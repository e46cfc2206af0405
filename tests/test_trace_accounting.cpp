// Counter accounting: SolveStats, the CommModel and the trace's phase
// counters are three views of the same synchronization/kernel structure
// and must agree exactly (paper section III-D counts the reductions; the
// trace must not invent or lose any).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/lgmres.hpp"
#include "fem/poisson2d.hpp"
#include "parallel/comm_model.hpp"
#include "precond/jacobi.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using testing::random_matrix;

void expect_trace_matches_stats(const obs::SolverTrace& trace, const SolveStats& st,
                                const char* label) {
  EXPECT_EQ(trace.phase_count(obs::Phase::Reduction), st.reductions) << label;
  EXPECT_EQ(trace.phase_count(obs::Phase::Spmm), st.operator_applies) << label;
  EXPECT_EQ(trace.phase_count(obs::Phase::Precond), st.precond_applies) << label;
}

TEST(TraceAccounting, GmresReductionFormulaPerOrtho) {
  // Single-vector unpreconditioned GMRES converging within one Krylov
  // cycle of N iterations (the convergence re-check enters a second outer
  // cycle): 1 bnorm + 2 residual norms + 1 initial normalization, plus per
  // iteration 1 projection + 1 normalization for CGS, 2 + 1 for CGS2, and
  // j + 1 for the MGS projection at iteration j (section III-D).
  const auto a = poisson2d(10, 10);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(10, 10, 2.0);
  for (const Ortho ortho : {Ortho::Cgs, Ortho::Cgs2, Ortho::Mgs}) {
    obs::SolverTrace trace;
    SolverOptions opts;
    opts.restart = 200;
    opts.tol = 1e-10;
    opts.ortho = ortho;
    opts.trace = &trace;
    std::vector<double> x(b.size(), 0.0);
    const auto st = gmres<double>(op, nullptr, b, x, opts);
    ASSERT_TRUE(st.converged);
    ASSERT_EQ(st.cycles, 2);  // one Krylov cycle + the convergence re-check
    const std::int64_t n_it = st.iterations;
    std::int64_t expected = 4;
    switch (ortho) {
      case Ortho::Cgs: expected += 2 * n_it; break;
      case Ortho::Cgs2: expected += 3 * n_it; break;
      case Ortho::Mgs: expected += n_it * (n_it + 1) / 2 + n_it; break;
    }
    EXPECT_EQ(st.reductions, expected) << "ortho " << int(ortho);
    EXPECT_EQ(trace.phase_count(obs::Phase::Reduction), st.reductions) << "ortho " << int(ortho);
    // Operator applications: one per iteration plus the two residuals.
    EXPECT_EQ(st.operator_applies, n_it + 2);
    EXPECT_EQ(trace.phase_count(obs::Phase::Spmm), st.operator_applies);
  }
}

TEST(TraceAccounting, TraceCountsMatchStatsAllSolvers) {
  // The accounting contract holds for every method and preconditioning
  // side: the trace's Reduction/Spmm/Precond counters equal the
  // SolveStats counters exactly.
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  JacobiPreconditioner<double> m(a);
  const auto bblock = random_matrix<double>(n, 3, 61);
  const auto b1 = poisson2d_rhs(10, 10, 1.0);

  SolverOptions base;
  base.restart = 25;
  base.tol = 1e-8;

  {
    obs::SolverTrace trace;
    auto opts = base;
    opts.side = PrecondSide::Right;
    opts.trace = &trace;
    DenseMatrix<double> x(n, 3);
    x.set_zero();
    const auto st = block_gmres<double>(op, &m, bblock.view(), x.view(), opts);
    ASSERT_TRUE(st.converged);
    expect_trace_matches_stats(trace, st, "block_gmres right");
  }
  {
    obs::SolverTrace trace;
    auto opts = base;
    opts.side = PrecondSide::Left;
    opts.trace = &trace;
    std::vector<double> x(b1.size(), 0.0);
    const auto st = gmres<double>(op, &m, b1, x, opts);
    ASSERT_TRUE(st.converged);
    expect_trace_matches_stats(trace, st, "gmres left");
  }
  {
    obs::SolverTrace trace;
    auto opts = base;
    opts.side = PrecondSide::Flexible;
    opts.trace = &trace;
    std::vector<double> x(b1.size(), 0.0);
    const auto st = gmres<double>(op, &m, b1, x, opts);
    ASSERT_TRUE(st.converged);
    expect_trace_matches_stats(trace, st, "gmres flexible");
  }
  {
    obs::SolverTrace trace;
    auto opts = base;
    opts.trace = &trace;
    DenseMatrix<double> x(n, 3);
    x.set_zero();
    const auto st = pseudo_block_gmres<double>(op, &m, bblock.view(), x.view(), opts);
    ASSERT_TRUE(st.converged);
    expect_trace_matches_stats(trace, st, "pseudo_block_gmres");
  }
  for (const Ortho ortho : {Ortho::Cgs, Ortho::Cgs2, Ortho::Mgs}) {
    obs::SolverTrace trace;
    auto opts = base;
    opts.ortho = ortho;
    opts.recycle = 6;  // LGMRES augmentation count
    opts.trace = &trace;
    std::vector<double> x(b1.size(), 0.0);
    const auto st = lgmres<double>(op, &m, b1, x, opts);
    ASSERT_TRUE(st.converged);
    expect_trace_matches_stats(trace, st, "lgmres");
  }
  {
    obs::SolverTrace trace;
    auto opts = base;
    opts.trace = &trace;
    DenseMatrix<double> x(n, 2);
    x.set_zero();
    const auto bcg = random_matrix<double>(n, 2, 62);
    const auto st = cg<double>(op, &m, bcg.view(), x.view(), opts);
    ASSERT_TRUE(st.converged);
    expect_trace_matches_stats(trace, st, "cg");
  }
  {
    obs::SolverTrace trace;
    auto opts = base;
    opts.trace = &trace;
    DenseMatrix<double> x(n, 2);
    x.set_zero();
    const auto bcg = random_matrix<double>(n, 2, 63);
    const auto st = block_cg<double>(op, &m, bcg.view(), x.view(), opts);
    ASSERT_TRUE(st.converged);
    expect_trace_matches_stats(trace, st, "block_cg");
  }
}

TEST(TraceAccounting, TraceCountsMatchStatsRecyclingSequence) {
  // GCRO-DR (both variants) across a sequence: clear the shared sink
  // between solves and compare per solve — including the strategy-A
  // restarts, whose extra reduction is count-only inside the RestartEig
  // phase.
  const auto a = poisson2d(11, 11);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  JacobiPreconditioner<double> m(a);
  for (const RecycleStrategy strat : {RecycleStrategy::A, RecycleStrategy::B}) {
    obs::SolverTrace trace;
    SolverOptions opts;
    opts.restart = 15;
    opts.recycle = 5;
    opts.tol = 1e-8;
    opts.strategy = strat;
    opts.trace = &trace;
    GcroDr<double> solver(opts);
    Rng rng(71);
    for (int s = 0; s < 3; ++s) {
      trace.clear();
      std::vector<double> b(static_cast<size_t>(n));
      for (auto& v : b) v = rng.scalar<double>();
      std::vector<double> x(b.size(), 0.0);
      const auto st = solver.solve(op, &m, MatrixView<const double>(b.data(), n, 1, n),
                                   MatrixView<double>(x.data(), n, 1, n), nullptr, false);
      ASSERT_TRUE(st.converged) << "solve " << s;
      expect_trace_matches_stats(trace, st, "gcrodr");
    }
  }
  {
    obs::SolverTrace trace;
    SolverOptions opts;
    opts.restart = 20;
    opts.recycle = 4;
    opts.tol = 1e-8;
    opts.trace = &trace;
    PseudoGcroDr<double> solver(opts);
    const auto b = random_matrix<double>(n, 3, 72);
    for (int s = 0; s < 2; ++s) {
      trace.clear();
      DenseMatrix<double> x(n, 3);
      x.set_zero();
      const auto st = solver.solve(op, &m, b.view(), x.view(), nullptr, false);
      ASSERT_TRUE(st.converged) << "solve " << s;
      expect_trace_matches_stats(trace, st, "pseudo_gcrodr");
    }
  }
}

TEST(TraceAccounting, CommModelUnchangedByTrace) {
  // Attaching a trace must not change the communication structure: the
  // pseudo-block methods make ONE all-reduce per fused batch regardless of
  // how many paper-count reductions ride on it, and the comm-model call
  // count with and without a sink is identical.
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  JacobiPreconditioner<double> m(a);
  const auto b = random_matrix<double>(n, 3, 81);
  SolverOptions opts;
  opts.restart = 20;
  opts.tol = 1e-8;
  // MGS makes the fusion visible: j+1 paper-count reductions ride on one
  // batched all-reduce at iteration j.
  opts.ortho = Ortho::Mgs;

  auto run = [&](obs::TraceSink* sink, CommModel& comm) {
    auto o = opts;
    o.trace = sink;
    DenseMatrix<double> x(n, 3);
    x.set_zero();
    return pseudo_block_gmres<double>(op, &m, b.view(), x.view(), o, &comm);
  };
  CommModel plain, traced;
  obs::SolverTrace trace;
  const auto st0 = run(nullptr, plain);
  const auto st1 = run(&trace, traced);
  ASSERT_TRUE(st0.converged);
  EXPECT_EQ(st0.iterations, st1.iterations);
  EXPECT_EQ(st0.reductions, st1.reductions);
  EXPECT_EQ(plain.reductions(), traced.reductions());
  EXPECT_EQ(plain.reduction_bytes(), traced.reduction_bytes());
  // The fused batches mean fewer all-reduces than paper-count reductions.
  EXPECT_LT(plain.reductions(), st0.reductions);
  EXPECT_EQ(trace.phase_count(obs::Phase::Reduction), st1.reductions);
}

TEST(TraceAccounting, StrategyBNeedsNoExtraRestartReduction) {
  // Eq. 3b is communication-free at restarts. With a fixed iteration
  // budget (unreachable tolerance) both strategies traverse the same
  // cycle structure, so strategy A accounts exactly one extra reduction
  // per deflation refresh — strictly more than B — and both match their
  // traces.
  const auto a = poisson2d(14, 14);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  std::int64_t reds[2];
  index_t iters[2], cycles[2];
  int i = 0;
  for (const RecycleStrategy strat : {RecycleStrategy::A, RecycleStrategy::B}) {
    obs::SolverTrace trace;
    SolverOptions opts;
    opts.restart = 12;  // small restart: several deflation refreshes
    opts.recycle = 4;
    opts.tol = 1e-16;        // unreachable: the budget fixes the structure
    opts.max_iterations = 60;
    opts.strategy = strat;
    opts.trace = &trace;
    GcroDr<double> solver(opts);
    const auto b = poisson2d_rhs(14, 14, 3.0);
    std::vector<double> x(b.size(), 0.0);
    const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                 MatrixView<double>(x.data(), n, 1, n));
    EXPECT_EQ(st.iterations, 60);
    ASSERT_GT(st.cycles, 2) << "need restarts for the strategies to differ";
    EXPECT_EQ(trace.phase_count(obs::Phase::Reduction), st.reductions);
    reds[i] = st.reductions;
    iters[i] = st.iterations;
    cycles[i] = st.cycles;
    ++i;
  }
  ASSERT_EQ(iters[0], iters[1]);
  ASSERT_EQ(cycles[0], cycles[1]);
  EXPECT_GT(reds[0], reds[1]);
}

TEST(TraceAccounting, CgReductionFormula) {
  // CG synchronization structure (section III-D applied to the CG
  // recursion): 1 bnorm + 1 initial residual norm + 1 initial rho, then
  // per iteration the fused (d,q)/residual-norm pair (2) plus the rho of
  // the next direction (1) — which the final, converging iteration skips.
  // Converged: 2 + 3*it. Budget-exhausted: 3 + 3*it. Every SolveStats
  // reduction is one CommModel all-reduce in CG (no fused batching).
  const auto a = poisson2d(10, 10);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(10, 10, 0.1);
  {
    CommModel comm;
    SolverOptions opts;
    opts.tol = 1e-10;
    std::vector<double> x(b.size(), 0.0);
    const auto st = cg<double>(op, nullptr, b, x, opts, &comm);
    ASSERT_TRUE(st.converged);
    EXPECT_EQ(st.reductions, 2 + 3 * std::int64_t(st.iterations));
    EXPECT_EQ(comm.reductions(), st.reductions);
  }
  {
    CommModel comm;
    SolverOptions opts;
    opts.tol = 1e-30;  // unreachable: exhaust the budget
    opts.max_iterations = 7;
    std::vector<double> x(b.size(), 0.0);
    const auto st = cg<double>(op, nullptr, b, x, opts, &comm);
    ASSERT_FALSE(st.converged);
    ASSERT_EQ(st.iterations, 7);
    EXPECT_EQ(st.reductions, 3 + 3 * std::int64_t(7));
    EXPECT_EQ(comm.reductions(), st.reductions);
  }
}

// Reduction count between consecutive iteration events, with each
// event's step index inside its restart cycle: a step > 0 delta is
// exactly one iteration's synchronizations.
class IterationReductionSink final : public obs::TraceSink {
 public:
  struct Step {
    index_t step;
    bool projected;
    std::int64_t reductions;
  };
  std::vector<Step> steps;

  void begin_solve(const char*, index_t, index_t) override {
    pending_ = 0;
    cycle_ = -1;
  }
  void end_solve(bool, index_t, index_t, double) override {}
  void phase(obs::Phase p, double, std::int64_t count) override {
    if (p == obs::Phase::Reduction) pending_ += count;
  }
  void iteration(const obs::IterationEvent& ev) override {
    step_ = (ev.cycle == cycle_) ? step_ + 1 : 0;
    cycle_ = ev.cycle;
    steps.push_back({step_, ev.recycle_dim > 0, pending_});
    pending_ = 0;
  }

 private:
  std::int64_t pending_ = 0;
  index_t cycle_ = -1, step_ = 0;
};

TEST(TraceAccounting, LaneLayoutReductionFormulaPerOrtho) {
  // The fused lane cycle of the pseudo-block solvers (section III-D with
  // p lanes batched into each reduction): per iteration with any active
  // lane, 1 projection + 1 normalization for CGS, one more for the CGS2
  // reorthogonalization, j + 1 fused projection counts at step j for MGS,
  // and one more for the C_k projection of PseudoGcroDr's projected
  // cycles. Lanes lock at different iterations here; the count must not
  // depend on how many are still active.
  const auto a = poisson2d(12, 12);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = random_matrix<double>(n, 3, 91);
  for (const Ortho ortho : {Ortho::Cgs, Ortho::Cgs2, Ortho::Mgs}) {
    for (const bool recycling : {false, true}) {
      SCOPED_TRACE(std::string(recycling ? "pseudo_gcrodr" : "pseudo_block_gmres") +
                   " ortho " + std::to_string(int(ortho)));
      IterationReductionSink sink;
      SolverOptions opts;
      opts.restart = 15;
      opts.recycle = 4;
      opts.tol = 1e-9;
      opts.ortho = ortho;
      opts.trace = &sink;
      if (recycling) {
        PseudoGcroDr<double> solver(opts);
        for (int s = 0; s < 2; ++s) {
          DenseMatrix<double> x(n, 3);
          ASSERT_TRUE(solver.solve(op, nullptr, b.view(), x.view()).converged);
        }
      } else {
        DenseMatrix<double> x(n, 3);
        ASSERT_TRUE(pseudo_block_gmres<double>(op, nullptr, b.view(), x.view(), opts).converged);
      }
      index_t checked = 0, projected = 0;
      for (const auto& step : sink.steps) {
        if (step.step == 0) continue;  // carries the cycle-start reductions
        std::int64_t expected = 0;
        switch (ortho) {
          case Ortho::Cgs: expected = 2; break;
          case Ortho::Cgs2: expected = 3; break;
          case Ortho::Mgs: expected = std::int64_t(step.step) + 2; break;
        }
        if (step.projected) expected += 1;
        EXPECT_EQ(step.reductions, expected) << "step " << step.step;
        ++checked;
        projected += step.projected ? 1 : 0;
      }
      EXPECT_GT(checked, 20);
      EXPECT_EQ(projected > 0, recycling);
    }
  }
}

// The sharded layer makes the CommModel's message counters real: every
// all-reduce is an executed (S-1)-message, ceil(log2 S)-round tree, every
// operator apply one halo exchange with the operator's true neighbor-pair
// count — and the trace mirror sees one CommEvent per round. Pinned for CG
// and GMRES.
TEST(TraceAccounting, ShardedMessageAccountingCgAndGmres) {
  const auto a = poisson2d(10, 10);
  const auto b = poisson2d_rhs(10, 10, 0.1);
  for (const index_t shards : {index_t(2), index_t(4), index_t(7)}) {
    for (const bool use_cg : {true, false}) {
      SCOPED_TRACE(std::string(use_cg ? "cg" : "gmres") + " shards=" + std::to_string(shards));
      CommModel comm;
      obs::SolverTrace trace;
      comm.set_trace(&trace);
      ShardedOperator<double> op(a, shards, &comm);
      ASSERT_EQ(comm.shards(), shards);
      SolverOptions opts;
      opts.tol = 1e-10;
      opts.restart = 120;
      opts.shards = shards;
      std::vector<double> x(b.size(), 0.0);
      const auto st = use_cg ? cg<double>(op, nullptr, b, x, opts, &comm)
                             : gmres<double>(op, nullptr, b, x, opts, &comm);
      ASSERT_TRUE(st.converged);
      const std::int64_t applies = comm.halo_exchanges();
      EXPECT_EQ(applies, st.operator_applies);
      const std::int64_t halo_msgs =
          std::int64_t(op.sharded().halo_messages()) * applies;
      EXPECT_EQ(comm.messages(), comm.reductions() * (shards - 1) + halo_msgs);
      EXPECT_EQ(comm.tree_rounds(), comm.reductions() * CommModel::ceil_log2(shards));
      // Trace mirror: one CommEvent per all-reduce tree and one per halo
      // exchange round.
      EXPECT_EQ(trace.comm_event_count("reduction-tree"), comm.reductions());
      EXPECT_EQ(trace.comm_event_count("halo"), applies);
    }
  }
}

// Monolithic runs keep the legacy accounting: no shard count attached
// means no executed messages, no tree rounds, no comm events.
TEST(TraceAccounting, MonolithicRunsRecordNoMessages) {
  const auto a = poisson2d(10, 10);
  const auto b = poisson2d_rhs(10, 10, 0.1);
  CommModel comm;
  obs::SolverTrace trace;
  comm.set_trace(&trace);
  CsrOperator<double> op(a);
  SolverOptions opts;
  opts.tol = 1e-10;
  std::vector<double> x(b.size(), 0.0);
  const auto st = cg<double>(op, nullptr, b, x, opts, &comm);
  ASSERT_TRUE(st.converged);
  EXPECT_GT(comm.reductions(), 0);
  EXPECT_EQ(comm.messages(), 0);
  EXPECT_EQ(comm.tree_rounds(), 0);
  EXPECT_EQ(trace.comm_event_count("reduction-tree"), 0);
  EXPECT_EQ(trace.comm_event_count("halo"), 0);
}

// A single process communicates with nobody: the modeled time of any
// recorded traffic is exactly zero at P <= 1 (the historical model charged
// halo latency and bytes even at P = 1, flattening every scaling curve's
// origin), and positive as soon as a second process exists.
TEST(TraceAccounting, ModeledSecondsFreeAtSingleProcess) {
  CommModel comm;
  for (int i = 0; i < 10; ++i) comm.reduction(64);
  for (int i = 0; i < 5; ++i) comm.halo_exchange(4096, 3);
  EXPECT_EQ(comm.modeled_seconds(1), 0.0);
  EXPECT_EQ(comm.modeled_seconds(0), 0.0);
  EXPECT_GT(comm.modeled_seconds(2), 0.0);
  EXPECT_GT(comm.modeled_seconds(64), comm.modeled_seconds(2));
}

}  // namespace
}  // namespace bkr
