// Shared building blocks of the (block) Krylov implementations: the
// per-solve context, the preconditioned operator application, block
// orthogonalization schemes and the block QR normalization, all
// instrumented with the reduction counts of the paper's section III-D and
// the per-phase timers of src/obs.
#pragma once

#include <cmath>
#include <initializer_list>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "core/operator.hpp"
#include "core/solver.hpp"
#include "core/workspace.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "obs/trace.hpp"
#include "resilience/fault_injector.hpp"

namespace bkr::detail {

// Entry-point preconditions shared by every solver: consistent system /
// block dimensions, a matching preconditioner, and sane option values.
template <class T>
void check_solve_entry(const LinearOperator<T>& a, const Preconditioner<T>* m,
                       MatrixView<const T> b, MatrixView<T> x, const SolverOptions& opts) {
  BKR_REQUIRE(a.n() > 0, "a.n", a.n());
  BKR_REQUIRE(b.rows() == a.n(), "b.rows", b.rows(), "a.n", a.n());
  BKR_REQUIRE(b.cols() >= 1, "b.cols", b.cols());
  BKR_ASSERT_SHAPE(x, b.rows(), b.cols());
  BKR_REQUIRE(m == nullptr || m->n() == a.n(), "m.n", m == nullptr ? a.n() : m->n(), "a.n", a.n());
  BKR_REQUIRE(opts.restart >= 1, "opts.restart", opts.restart);
  BKR_REQUIRE(opts.recycle >= 0, "opts.recycle", opts.recycle);
  BKR_REQUIRE(opts.max_iterations >= 0, "opts.max_iterations", opts.max_iterations);
  // tol == 0 is the documented smoother mode: never converge, run exactly
  // max_iterations (see Cg.FixedIterationSmootherMode). Only negatives are
  // malformed.
  BKR_REQUIRE(opts.tol >= 0, "opts.tol", opts.tol);
}

// Resilience state of one solve, held by its SolveContext. Owns nothing.
template <class T>
struct Resilience {
  const RecoveryPolicy& policy;
  resilience::FaultInjector* fault = nullptr;
  // Orthonormal basis columns preceding the block being normalized; the
  // replacement ladder re-orthogonalizes substitute columns against it.
  MatrixView<const T> prior{};
  // Block-recovery engagements consumed this solve (vs kMaxRecoveries).
  index_t used = 0;
};

// A restart cycle whose worst-column residual estimate has not improved
// for this many consecutive iterations closes early (RecoveryPolicy::
// early_restart); the restart re-seeds the basis from the true residual.
inline constexpr index_t kStagnationWindow = 15;

// Fault-injection hook: a pointer test when no injector is attached. A
// null `rz` (qr_block on GCRO-DR's recycled block) skips it altogether.
template <class T>
inline void fault_hook(Resilience<T>* rz, resilience::FaultSite site, MatrixView<T> block) {
  if (rz != nullptr && rz->fault != nullptr) rz->fault->at(site, block);
}

// True when every entry of a residual-norm array is finite.
template <class R>
inline bool finite_norms(const R* v, index_t k) {
  for (index_t i = 0; i < k; ++i)
    if (!std::isfinite(static_cast<double>(v[i]))) return false;
  return true;
}

// Leading Krylov columns with a safely invertible R factor; stagnated
// directions past the first tiny (or non-finite: NaN compares false
// against every threshold, so it must be cut explicitly) diagonal are
// discarded. Shared by GMRES / GCRO-DR / pseudo-GCRO-DR.
template <class T>
index_t usable_columns(const IncrementalQR<T>& qr, index_t s) {
  real_t<T> dmax(0);
  for (index_t c = 0; c < s; ++c) {
    const real_t<T> d = abs_val(qr.r(c, c));
    if (std::isfinite(static_cast<double>(d))) dmax = std::max(dmax, d);
  }
  for (index_t c = 0; c < s; ++c) {
    const real_t<T> d = abs_val(qr.r(c, c));
    if (!std::isfinite(static_cast<double>(d)) ||
        d <= real_t<T>(1e-14) * std::max(dmax, real_t<T>(1e-300)))
      return c;
  }
  return s;
}

// True when a deadline is attached: the epoch default of
// SolverOptions::deadline is the disabled sentinel, so solves without one
// never read the clock on the hot path.
inline bool deadline_enabled(const SolverOptions& opts) {
  return opts.deadline.time_since_epoch().count() != 0;
}

// The per-solve context (DESIGN.md §4). run_solver builds one per solve,
// a Krylov smoother one per apply, from the options, the stats record, the
// communication model and a workspace. It holds references and the
// resilience state, so handing it down costs what the loose arguments did.
// The runtime attachments of SolverOptions (trace, exec, shards, fault,
// workspace, cancel, deadline) are read here, not in the solver loops, and
// the steps every loop shares live here: reduction accounting, norms with
// the shard-tree choice, fault hooks, the cancel/deadline poll, b - A x,
// the residual history, the per-RHS counts and the IterationEvent.
//
// Reduction accounting keeps section III-D's counts in two forms, chosen
// by what the caller does:
//  * count-only: a zero-second trace event carrying the count, for
//    synchronizations whose compute is timed by the enclosing phase.
//    count_reductions(k) is k separate all-reduces (a block caller);
//    fused_reductions(count) is ONE all-reduce carrying `count`
//    paper-count reductions (a LaneCycle batch, e.g. MGS's j + 1).
//  * timed: reduce() runs the compute inside a Reduction phase scope, so
//    its time lands in that phase; one all-reduce per entry of `bytes`.
// Either way SolveStats::reductions, the CommModel and the trace's
// reduction count move in lockstep (TraceAccounting pins the formulas).
template <class T>
struct SolveContext {
  using Real = real_t<T>;

  const SolverOptions& opts;
  SolveStats& st;
  CommModel* const comm;
  // opts.workspace when it is a SolverWorkspace<T>; a null or
  // scalar-mismatched attachment falls back to the caller's `own`, so it
  // can never corrupt a solve.
  SolverWorkspace<T>& ws;
  obs::TraceSink* const trace;
  const KernelExecutor* const ex;
  // Sharded solves (DESIGN.md §13) take the binary-tree combine in norms,
  // column_norms and dot; its fold shape depends on the problem size only.
  const bool tree;
  Resilience<T> rz;
  obs::IterationEvent ev;

  SolveContext(const SolverOptions& o, SolveStats& s, CommModel* c, SolverWorkspace<T>& own)
      : opts(o),
        st(s),
        comm(c),
        ws(typed_workspace(o.workspace, own)),
        trace(o.trace),
        ex(o.exec),
        tree(o.shards > 0),
        rz{o.recovery, o.fault} {}
  // The context outlives the statement that builds it: no temporaries.
  SolveContext(SolverOptions&&, SolveStats&, CommModel*, SolverWorkspace<T>&) = delete;

  // Cooperative cancellation/deadline poll (DESIGN.md §15), called once per
  // (block) outer iteration at the top of every solver's hot loop and once
  // at solve entry (so an already-expired deadline aborts before the first
  // operator apply). With no token and no deadline attached — the default —
  // this is two branch-predictable tests with no loads of shared state, so
  // it is sanctioned inside BKR_HOT_LOOP by bkr-lint --hotpath. The relaxed
  // load is deliberate: the only contract is "a flag set by another thread
  // is observed at some subsequent iteration boundary".
  BKR_HOT void poll_cancel() const {
    if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed))
      throw BreakdownError(SolveStatus::Cancelled, "solve cancelled by token");
    if (deadline_enabled(opts) && std::chrono::steady_clock::now() >= opts.deadline)
      throw BreakdownError(SolveStatus::DeadlineExceeded, "solve deadline exceeded");
  }

  void fault_hook(resilience::FaultSite site, MatrixView<T> block) {
    detail::fault_hook(&rz, site, block);
  }

  // Count-only accounting: `k` all-reduces of `bytes` each.
  void count_reductions(std::int64_t k, std::int64_t bytes = 8) {
    st.reductions += k;
    if (comm != nullptr)
      for (std::int64_t i = 0; i < k; ++i) comm->reduction(bytes);
    if (trace != nullptr) trace->phase(obs::Phase::Reduction, 0.0, k);
  }

  // Count-only accounting: one all-reduce of `bytes` carrying `count`
  // paper-count reductions.
  void fused_reductions(std::int64_t count, std::int64_t bytes) {
    st.reductions += count;
    if (comm != nullptr) comm->reduction(bytes);
    if (trace != nullptr) trace->phase(obs::Phase::Reduction, 0.0, count);
  }

  // Timed accounting: `compute` runs inside one Reduction scope counting
  // bytes.size() reductions, one all-reduce per entry. Returns its result.
  template <class F>
  decltype(auto) reduce(std::initializer_list<std::int64_t> bytes, F&& compute) {
    obs::ScopedPhase sp(trace, obs::Phase::Reduction, std::int64_t(bytes.size()));
    st.reductions += std::int64_t(bytes.size());
    if (comm != nullptr)
      for (const std::int64_t b : bytes) comm->reduction(b);
    return compute();
  }

  // Per-column norms as one timed reduction: the compute *is* the global
  // reduction, so its time lands in that phase.
  BKR_HOT void norms(MatrixView<const T> x, Real* out) {
    reduce({x.cols() * 8}, [&] { column_norms(x, out); });
  }

  // The raw kernels behind a reduction the caller accounts for.
  void column_norms(MatrixView<const T> x, Real* out) const {
    if (tree) {
      tree_column_norms<T>(x, out, ex);
    } else {
      bkr::column_norms<T>(x, out, ex);
    }
  }
  T dot(index_t n, const T* u, const T* v) const {
    return tree ? tree_dot<T>(n, u, v, ex) : bkr::dot<T>(n, u, v, ex);
  }

  // R = B - A X: one operator apply, fault-hooked.
  void residual(const LinearOperator<T>& a, MatrixView<const T> b, MatrixView<const T> x,
                MatrixView<T> r) {
    {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(x, r);
      ++st.operator_applies;
      fault_hook(resilience::FaultSite::OperatorApply, r);
    }
    for (index_t c = 0; c < b.cols(); ++c)
      for (index_t i = 0; i < b.rows(); ++i) r(i, c) = b(i, c) - r(i, c);
  }

  // The history entries rnorm / bnorm of every column (the initial
  // residual), and capacity for `steps` more entries per column.
  void push_history(const Real* rnorm, const Real* bnorm, index_t p) {
    if (!opts.record_history) return;
    for (index_t c = 0; c < p; ++c)
      st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
  }
  void reserve_history(index_t p, index_t steps) {
    if (!opts.record_history) return;
    for (index_t c = 0; c < p; ++c)
      st.history[size_t(c)].reserve(st.history[size_t(c)].size() + static_cast<size_t>(steps));
  }

  // Column c's residual estimate after a (block) iteration: into the
  // history, and into the per-RHS count while above tolerance. Returns
  // whether it is above tolerance.
  bool record(index_t c, Real est, Real bnorm) {
    if (opts.record_history) st.history[size_t(c)].push_back(est / bnorm);
    const bool above = est > opts.tol * bnorm;
    if (above) ++st.per_rhs_iterations[size_t(c)];
    return above;
  }

  // The IterationEvent of the iteration just counted, with relative
  // residuals est / bnorm per column.
  void iteration_event(index_t cycle, index_t basis_size, index_t recycle_dim, const Real* est,
                       const Real* bnorm, index_t p) {
    if (trace == nullptr) return;
    ev.cycle = cycle;
    ev.iteration = st.iterations;
    ev.basis_size = basis_size;
    ev.recycle_dim = recycle_dim;
    ev.residuals.resize(size_t(p));
    for (index_t c = 0; c < p; ++c) ev.residuals[size_t(c)] = est[size_t(c)] / bnorm[size_t(c)];
    trace->iteration(ev);
  }

  // One recovery-ladder engagement, counted and traced.
  void note_recovery(const char* site, const char* action, index_t columns) {
    ++st.recoveries;
    if (trace != nullptr) trace->recovery(obs::RecoveryEvent{st.iterations, site, action, columns});
  }

 private:
  static SolverWorkspace<T>& typed_workspace(SolverWorkspaceBase* base, SolverWorkspace<T>& own) {
    auto* typed = dynamic_cast<SolverWorkspace<T>*>(base);
    return typed != nullptr ? *typed : own;
  }
};

// Uniform solver entry wrapper: owns the wall clock, the per-solve context
// (with a one-shot workspace for solves that attach none), the begin/end
// trace pairing, the terminal-status resolution and the translation of the
// two structured abort exceptions into SolveStats. `body` is the solver's
// iteration loop; it fills ctx.st and returns, setting the status only on
// explicit failure exits (the default covers budget exhaustion, the
// wrapper covers success).
template <class T, class F>
SolveStats run_solver(const char* method, index_t n, index_t nrhs, const SolverOptions& opts,
                      CommModel* comm, F&& body) {
  BKR_REQUIRE(n > 0, "n", n);
  BKR_REQUIRE(nrhs >= 1, "nrhs", nrhs);
  Timer timer;
  SolveStats st;
  SolverWorkspace<T> one_shot;
  SolveContext<T> ctx(opts, st, comm, one_shot);
  if (ctx.trace != nullptr) ctx.trace->begin_solve(method, n, nrhs);
  try {
    ctx.poll_cancel();  // expired-at-entry deadline: abort with 0 applies
    body(ctx);
  } catch (const resilience::InjectedFault& f) {
    st.converged = false;
    st.status = f.site() == resilience::FaultSite::PrecondApply
                    ? SolveStatus::PreconditionerFailure
                    : SolveStatus::Faulted;
  } catch (const BreakdownError& e) {
    st.converged = false;
    st.status = e.status();
  }
  if (st.converged) st.status = SolveStatus::Converged;
  st.seconds = timer.seconds();
  if (ctx.trace != nullptr)
    ctx.trace->end_solve(st.converged, st.iterations, st.cycles, st.seconds);
  if (opts.recovery.throw_on_failure && !st.converged &&
      st.status != SolveStatus::MaxIterations && st.status != SolveStatus::Stagnated &&
      st.status != SolveStatus::Cancelled && st.status != SolveStatus::DeadlineExceeded)
    throw BreakdownError(st.status, std::string(method) + ": " + status_name(st.status));
  return st;
}

// Effective preconditioning side of a solve: no preconditioner means
// None, and a variable preconditioner applied on the right runs flexible.
template <class T>
PrecondSide resolve_side(const Preconditioner<T>* m, PrecondSide side) {
  if (m == nullptr) return PrecondSide::None;
  if (side == PrecondSide::Right && m->is_variable()) return PrecondSide::Flexible;
  return side;
}

// Per-column norms of B, or of M^{-1} B under left preconditioning (the
// quantity the left-preconditioned residual is measured against). Zero
// norms become 1 so that a zero right-hand side measures absolute
// residuals.
template <class T>
void rhs_norms(SolveContext<T>& ctx, Preconditioner<T>* m, PrecondSide side,
               MatrixView<const T> b, real_t<T>* out) {
  DenseMatrix<T> mb;
  MatrixView<const T> target = b;
  if (side == PrecondSide::Left) {
    mb.resize(b.rows(), b.cols());
    {
      obs::ScopedPhase sp(ctx.trace, obs::Phase::Precond);
      m->apply(b, mb.view());
      ++ctx.st.precond_applies;
    }
    target = mb.view();
  }
  ctx.norms(target, out);
  for (index_t c = 0; c < b.cols(); ++c)
    if (out[c] == real_t<T>(0)) out[c] = real_t<T>(1);
}

// R = B - A X with A at full precision: through
// MixedPrecisionOperator::apply_full when `a` is one (its apply streams the
// fp32 mirror), through a.apply otherwise. One operator apply, no fault
// hook.
template <class T>
void true_residual(SolveContext<T>& ctx, const LinearOperator<T>& a, MatrixView<const T> b,
                   MatrixView<const T> x, MatrixView<T> r) {
  {
    obs::ScopedPhase sp(ctx.trace, obs::Phase::Spmm);
    if (const auto* mp = dynamic_cast<const MixedPrecisionOperator<T>*>(&a)) {
      mp->apply_full(x, r);
    } else {
      a.apply(x, r);
    }
    ++ctx.st.operator_applies;
  }
  for (index_t c = 0; c < b.cols(); ++c)
    for (index_t i = 0; i < b.rows(); ++i) r(i, c) = b(i, c) - r(i, c);
}

// Fault-gated epilogue: a corrupted recurrence can drive the *estimated*
// residual below tolerance while the true residual is arbitrary (the
// estimate converges against the faulted operator, not A). When an
// injector is attached — or the caller opts in via final_check, or runs
// the mixed-precision pilot — recompute b - A x (A at full precision) and
// demote `converged` to Faulted / NonFiniteResidual if a column's norm
// exceeds slack * tol * ||b||. The check only has to catch corruption,
// which is orders of magnitude, so `slack` is a margin for the gap between
// the residual a solver converges on and b - A x. The GMRES family passes
// 100: left preconditioning converges on M^{-1}(b - A x), measured against
// ||M^{-1} b||. The CG family passes 10: its recursion updates b - A x
// itself, so only rounding drift separates the two. `bnorm`, when given,
// holds the caller's ||b|| per column (zeros already read as 1) and saves
// the reduction that would recompute it.
template <class T>
BKR_COLD void final_residual_check(SolveContext<T>& ctx, const LinearOperator<T>& a,
                                   MatrixView<const T> b, MatrixView<T> x, real_t<T> slack = 100,
                                   const real_t<T>* bnorm = nullptr) {
  using Real = real_t<T>;
  const SolverOptions& opts = ctx.opts;
  SolveStats& st = ctx.st;
  if (!st.converged ||
      (ctx.rz.fault == nullptr && !opts.recovery.final_check && !opts.mixed_precision))
    return;
  const index_t n = b.rows(), p = b.cols();
  DenseMatrix<T> q(n, p);
  true_residual<T>(ctx, a, b, MatrixView<const T>(x.data(), n, p, x.ld()), q.view());
  std::vector<Real> rn(static_cast<size_t>(p)), bn(static_cast<size_t>(p));
  ctx.norms(q.view(), rn.data());
  if (bnorm != nullptr) {
    bn.assign(bnorm, bnorm + p);
  } else {
    ctx.norms(b, bn.data());
  }
  for (index_t c = 0; c < p; ++c) {
    const Real scale = bn[size_t(c)] > Real(0) ? bn[size_t(c)] : Real(1);
    if (rn[size_t(c)] <= slack * opts.tol * scale) continue;
    st.converged = false;
    st.status = finite_norms(&rn[size_t(c)], 1) ? SolveStatus::Faulted
                                                : SolveStatus::NonFiniteResidual;
    break;
  }
}

// The k eigenvectors of the GCRO-DR deflation pencil T z = theta W z with
// the smallest eigenvalues. When the eigensolver fails, either abort with
// EigSolveFailure or, under policy.shrink_recycle, keep the leading k
// directions of the space — unit vectors — and record the recovery.
template <class T>
BKR_COLD DenseMatrix<T> deflation_vectors(SolveContext<T>& ctx, const DenseMatrix<T>& t,
                                          const DenseMatrix<T>& w, index_t k) {
  try {
    return smallest_gen_eig_vectors<T>(t, w, k);
  } catch (const EigFailure&) {
    if (!ctx.rz.policy.shrink_recycle)
      throw BreakdownError(SolveStatus::EigSolveFailure, "deflation eigensolve failed");
    DenseMatrix<T> pk(t.rows(), k);
    for (index_t j = 0; j < k; ++j) pk(j, j) = T(1);
    ctx.note_recovery("deflation", "identity-pk", k);
    return pk;
  }
}

// Z and W outputs of one preconditioned operator application on the block
// V: W is the vector entering the Arnoldi recurrence; Z is the vector that
// reconstructs the solution update (Z = M^{-1}V for right/flexible).
template <class T>
BKR_HOT void apply_preconditioned(SolveContext<T>& ctx, const LinearOperator<T>& a,
                                  Preconditioner<T>* m, PrecondSide side, MatrixView<const T> v,
                                  MatrixView<T> z, MatrixView<T> w) {
  obs::TraceSink* const trace = ctx.trace;
  switch (side) {
    case PrecondSide::None: {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(v, w);
      ++ctx.st.operator_applies;
      ctx.fault_hook(resilience::FaultSite::OperatorApply, w);
      break;
    }
    case PrecondSide::Right:
    case PrecondSide::Flexible: {
      {
        obs::ScopedPhase sp(trace, obs::Phase::Precond);
        m->apply(v, z);
        ++ctx.st.precond_applies;
        ctx.fault_hook(resilience::FaultSite::PrecondApply, z);
      }
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(MatrixView<const T>(z.data(), z.rows(), z.cols(), z.ld()), w);
      ++ctx.st.operator_applies;
      ctx.fault_hook(resilience::FaultSite::OperatorApply, w);
      break;
    }
    case PrecondSide::Left: {
      {
        obs::ScopedPhase sp(trace, obs::Phase::Spmm);
        a.apply(v, z);  // z used as scratch: z = A v
        ++ctx.st.operator_applies;
        ctx.fault_hook(resilience::FaultSite::OperatorApply, z);
      }
      obs::ScopedPhase sp(trace, obs::Phase::Precond);
      m->apply(MatrixView<const T>(z.data(), z.rows(), z.cols(), z.ld()), w);
      ++ctx.st.precond_applies;
      ctx.fault_hook(resilience::FaultSite::PrecondApply, w);
      break;
    }
  }
}

// op(U) for GCRO-DR's recycled block U: the operator of the Arnoldi
// cycles, except under flexible preconditioning, where U already holds
// preconditioned vectors and A alone maps it to C.
template <class T>
void apply_recycled_op(SolveContext<T>& ctx, const LinearOperator<T>& a, Preconditioner<T>* m,
                       PrecondSide side, MatrixView<const T> u, MatrixView<T> out) {
  const PrecondSide op_side = (side == PrecondSide::Flexible) ? PrecondSide::None : side;
  DenseMatrix<T> tmp;
  if (op_side != PrecondSide::None) tmp.resize(u.rows(), u.cols());
  apply_preconditioned<T>(ctx, a, m, op_side, u, tmp.view(), out);
}

// X += T for an update T living in Krylov space: right preconditioning
// maps it back through M^{-1} (into `ztmp`), every other side adds it as is.
template <class T>
void add_update(SolveContext<T>& ctx, Preconditioner<T>* m, PrecondSide side,
                MatrixView<const T> t, MatrixView<T> x, MatrixView<T> ztmp) {
  const index_t n = t.rows();
  MatrixView<const T> dx = t;
  if (side == PrecondSide::Right) {
    obs::ScopedPhase sp(ctx.trace, obs::Phase::Precond);
    m->apply(t, ztmp);
    ++ctx.st.precond_applies;
    ctx.fault_hook(resilience::FaultSite::PrecondApply, ztmp);
    dx = ztmp;
  }
  for (index_t c = 0; c < t.cols(); ++c) axpy<T>(n, T(1), dx.col(c), x.col(c));
}

// (Possibly left-preconditioned) residual: R = B - A X, or M^{-1}(B - A X)
// with `scratch` holding B - A X.
template <class T>
void residual(SolveContext<T>& ctx, const LinearOperator<T>& a, Preconditioner<T>* m,
              PrecondSide side, MatrixView<const T> b, MatrixView<const T> x, MatrixView<T> r,
              DenseMatrix<T>& scratch) {
  if (side != PrecondSide::Left) {
    ctx.residual(a, b, x, r);
    return;
  }
  scratch.resize(b.rows(), b.cols());
  ctx.residual(a, b, x, scratch.view());
  obs::ScopedPhase sp(ctx.trace, obs::Phase::Precond);
  m->apply(scratch.view(), r);
  ++ctx.st.precond_applies;
  ctx.fault_hook(resilience::FaultSite::PrecondApply, r);
}

// Project W against the first `s` columns of the basis, writing the
// coefficients into the first s rows of `h` (s x p view), by the scheme of
// ctx.opts.ortho. Reduction accounting follows section III-D: CGS fuses
// the projection into one global reduction, MGS needs one per basis block.
// The workspace provides the CGS2 reprojection scratch.
template <class T>
BKR_HOT void project(SolveContext<T>& ctx, MatrixView<const T> basis, index_t s, MatrixView<T> w,
                     MatrixView<T> h, index_t block) {
  if (s == 0) return;
  obs::ScopedPhase sp(ctx.trace, obs::Phase::OrthoProjection);
  const KernelExecutor* const ex = ctx.ex;
  const auto v = basis.cols_view(0, s);
  const auto wc = MatrixView<const T>(w.data(), w.rows(), w.cols(), w.ld());
  switch (ctx.opts.ortho) {
    case Ortho::Cgs: {
      gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h.block(0, 0, s, w.cols()), ex);
      ctx.count_reductions(1);
      gemm<T>(Trans::N, Trans::N, T(-1), v, h.block(0, 0, s, w.cols()), T(1), w, ex);
      break;
    }
    case Ortho::Cgs2: {
      gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h.block(0, 0, s, w.cols()), ex);
      gemm<T>(Trans::N, Trans::N, T(-1), v, h.block(0, 0, s, w.cols()), T(1), w, ex);
      DenseMatrix<T>& h2 = ctx.ws.mat(kWsProjectScratch, s, w.cols());
      gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h2.view(), ex);
      gemm<T>(Trans::N, Trans::N, T(-1), v, h2.view(), T(1), w, ex);
      for (index_t c = 0; c < w.cols(); ++c)
        for (index_t i = 0; i < s; ++i) h(i, c) += h2(i, c);
      ctx.count_reductions(2);
      break;
    }
    case Ortho::Mgs: {
      for (index_t i0 = 0; i0 < s; i0 += block) {
        const index_t width = std::min(block, s - i0);
        const auto vi = basis.cols_view(i0, width);
        gemm<T>(Trans::C, Trans::N, T(1), vi, wc, T(0), h.block(i0, 0, width, w.cols()), ex);
        gemm<T>(Trans::N, Trans::N, T(-1), vi, h.block(i0, 0, width, w.cols()), T(1), w, ex);
        ctx.count_reductions(1);
      }
      break;
    }
  }
}

// Block-recovery engagements allowed per solve before the solver gives up
// with SolveStatus::Breakdown, and the seed of the replacement columns.
inline constexpr index_t kMaxRecoveries = 8;
inline constexpr std::uint64_t kRecoverySeed = 0x5eedb10cULL;

// Normalize a block in place: W = Q R via CholQR (single reduction),
// falling back to Householder TSQR on breakdown. Returns false when even
// the fallback produced a numerically rank-deficient R (exact block
// breakdown) — unless `rz` (the context's resilience state, or null for
// no fault hook and no ladder) enables block recovery, in which case the
// final ladder rung replaces the dead columns with seeded random
// directions re-orthogonalized against rz->prior and reports success (the
// caller's cycle continues on a full-rank block; the next restart
// recomputes the true residual, so a stale Hessenberg column can only cost
// iterations, never correctness).
template <class T>
BKR_HOT bool qr_block(SolveContext<T>& ctx, MatrixView<T> w, MatrixView<T> r,
                      Resilience<T>* rz) {
  obs::ScopedPhase sp(ctx.trace, obs::Phase::OrthoNormalization);
  fault_hook(rz, resilience::FaultSite::Orthogonalization, w);
  const index_t n = w.rows(), p = w.cols();
  const bool recover = rz != nullptr && rz->policy.block_recovery;
  if (recover) {
    // Zero poisoned columns before the Gram matrix: one non-finite entry
    // would otherwise contaminate every factor column through CholQR's
    // triangular solve. The zeroed columns surface as dead below.
    for (index_t c = 0; c < p; ++c) {
      bool finite = true;
      for (index_t i = 0; i < n; ++i)
        if (!std::isfinite(static_cast<double>(abs_val(w(i, c))))) {
          finite = false;
          break;
        }
      if (!finite)
        for (index_t i = 0; i < n; ++i) w(i, c) = T(0);
    }
  }
  ctx.count_reductions(1, w.cols() * w.cols() * 8);
  if (!cholqr<T>(w, r, ctx.ex)) householder_tsqr<T>(w, r);
  real_t<T> dmax(0);
  for (index_t c = 0; c < r.cols(); ++c) {
    const real_t<T> d = abs_val(r(c, c));
    if (std::isfinite(static_cast<double>(d))) dmax = std::max(dmax, d);
  }
  const real_t<T> cutoff = real_t<T>(1e-14) * std::max(dmax, real_t<T>(1e-300));
  auto is_dead = [&](index_t c) {
    const real_t<T> d = abs_val(r(c, c));
    return !std::isfinite(static_cast<double>(d)) || d <= cutoff;
  };
  bool any_dead = false;
  for (index_t c = 0; c < p && !any_dead; ++c) any_dead = is_dead(c);
  if (!any_dead) return true;
  if (!recover || rz->used >= kMaxRecoveries) return false;
  // Replacement ladder: off the iterate fast path by construction — it
  // only runs on an actual block breakdown, at most kMaxRecoveries times
  // per solve — so allocation and trace construction are acceptable here.
  BKR_COLD {
    ++rz->used;
    ++ctx.st.recoveries;
    std::vector<index_t> alive, dead;
    for (index_t c = 0; c < p; ++c) (is_dead(c) ? dead : alive).push_back(c);
    // Seed varies per engagement so a second breakdown in the same solve
    // draws fresh directions, but reruns stay bit-identical.
    Rng rng(static_cast<unsigned>(kRecoverySeed +
                                  0x9e3779b9ULL * static_cast<std::uint64_t>(rz->used)));
    for (size_t di = 0; di < dead.size(); ++di) {
      const index_t c = dead[di];
      for (index_t i = 0; i < n; ++i) w(i, c) = rng.scalar<T>();
      // Two classical Gram-Schmidt passes against the prior basis, the
      // surviving block columns and the already-replaced ones; serial dots
      // keep the replacement deterministic at any thread count.
      for (int pass = 0; pass < 2; ++pass) {
        for (index_t q = 0; q < rz->prior.cols(); ++q) {
          const T h = dot<T>(n, rz->prior.col(q), w.col(c));
          axpy<T>(n, -h, rz->prior.col(q), w.col(c));
        }
        for (const index_t q : alive) {
          const T h = dot<T>(n, w.col(q), w.col(c));
          axpy<T>(n, -h, w.col(q), w.col(c));
        }
        for (size_t dj = 0; dj < di; ++dj) {
          const T h = dot<T>(n, w.col(dead[dj]), w.col(c));
          axpy<T>(n, -h, w.col(dead[dj]), w.col(c));
        }
      }
      const real_t<T> nrm = norm2<T>(n, w.col(c));
      if (!(nrm > real_t<T>(0)) || !std::isfinite(static_cast<double>(nrm))) return false;
      scal<T>(n, scalar_traits<T>::from_real(real_t<T>(1) / nrm), w.col(c));
    }
    // The replacement dots amount to one more fused synchronization.
    ctx.count_reductions(1, p * p * 8);
    // R still factors the *original* block over the surviving columns (its
    // dead diagonals are ~0, so backsolves keep excluding them); only
    // non-finite entries are scrubbed so Hessenberg assembly stays finite.
    for (index_t i = 0; i < r.rows(); ++i)
      for (index_t c = 0; c < r.cols(); ++c)
        if (!std::isfinite(static_cast<double>(abs_val(r(i, c))))) r(i, c) = T(0);
    if (ctx.trace != nullptr)
      ctx.trace->recovery(obs::RecoveryEvent{ctx.st.iterations, "ortho", "replace-columns",
                                             static_cast<index_t>(dead.size())});
  }
  return true;
}

}  // namespace bkr::detail
