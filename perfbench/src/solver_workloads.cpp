// The two in-process solver workloads (poisson-amg-recycle and
// maxwell-block-mrhs): set-up measured several times, then the seeded RHS
// sequence solved again and again by a fresh GCRO-DR object until the
// run's time is up. Untraced sequences hand the solver the plain CSR
// operator and preconditioner; traced sequences wrap both in timing
// decorators and attach an obs::SolverTrace. A traced run alternates the
// two kinds, so it measures its own tracing overhead. The speed probe runs
// before every set-up and before and after every sequence (calibrate.hpp).
#include <sys/resource.h>

#include <algorithm>
#include <complex>
#include <memory>
#include <optional>

#include "calibrate.hpp"
#include "core/gcrodr.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "metrics.hpp"
#include "precond/amg.hpp"
#include "precond/schwarz.hpp"
#include "trace.hpp"
#include "verify.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using bkr::index_t;
using cd = std::complex<double>;

// Floor for trace.coverage on the solver workloads: the decorators and
// the SolverTrace phases must account for most of each solve's wall time.
constexpr double kCoverageFloor = 0.8;

double peak_rss_mb_self() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

struct Counts {
  int64_t iterations = 0, cycles = 0, reductions = 0, operator_applies = 0, precond_applies = 0;
  void add(const bkr::SolveStats& st) {
    iterations += st.iterations;
    cycles += st.cycles;
    reductions += st.reductions;
    operator_applies += st.operator_applies;
    precond_applies += st.precond_applies;
  }
  bool operator==(const Counts&) const = default;
};

// One pass over the RHS sequence by a fresh solver object.
struct SequenceOutcome {
  std::vector<double> solve_seconds;  // one per solve call
  double wall = 0;                    // sum of solve_seconds
  int64_t verified_columns = 0;
  Counts counts;
  LayerTally sparse, precond;
  double phase_s[kCorePhaseCount] = {};
  int64_t phase_count[kCorePhaseCount] = {};
};

struct SetupTimes {
  std::vector<double> total, assemble, precond;
  std::vector<double> probes;  // speed probe before each repetition
};

// Runs assembly and preconditioner construction `count` times and keeps
// the last problem/preconditioner pair. Each repetition frees the previous
// pair first, so peak memory holds one copy.
template <class Problem, class Precond, class Assemble, class Build>
void timed_setups(int count, Assemble&& assemble, Build&& build, SpanRecorder& rec,
                  SpeedProbe& probe, std::optional<Problem>& problem, std::unique_ptr<Precond>& m,
                  SetupTimes& times) {
  for (int i = 0; i < count; ++i) {
    m.reset();
    problem.reset();
    probe.sample(times.probes);
    const auto t0 = Clock::now();
    const int32_t root = rec.open("bench.setup", t0, -1, i);
    problem.emplace(assemble());
    const auto t1 = Clock::now();
    rec.add("fem.assemble", t0, t1, root, i);
    m = build(*problem);
    const auto t2 = Clock::now();
    rec.add("precond.setup", t1, t2, root, i);
    rec.close(root, t2);
    times.assemble.push_back(seconds_between(t0, t1));
    times.precond.push_back(seconds_between(t1, t2));
    times.total.push_back(seconds_between(t0, t2));
  }
}

template <class T>
class SequenceRunner {
 public:
  SequenceRunner(const bkr::CsrMatrix<T>& a, bkr::Preconditioner<T>& m,
                 const std::vector<bkr::DenseMatrix<T>>& sequence, bkr::SolverOptions opts,
                 SpanRecorder& rec, RunResult& out)
      : a_(a), m_(m), sequence_(sequence), opts_(std::move(opts)), rec_(rec), out_(out) {}

  SequenceOutcome run(bool traced) {
    SequenceOutcome o;
    bkr::obs::SolverTrace solver_trace;
    bkr::SolverOptions opts = opts_;
    if (traced) opts.trace = &solver_trace;
    bkr::GcroDr<T> solver(opts);
    bkr::CsrOperator<T> csr(a_);
    SpanContext ctx;
    TimedOperator<T> timed_op(csr, rec_, ctx);
    TimedPreconditioner<T> timed_m(m_, rec_, ctx);
    const bkr::LinearOperator<T>& op = traced ? static_cast<const bkr::LinearOperator<T>&>(timed_op)
                                              : csr;
    bkr::Preconditioner<T>* m = traced ? static_cast<bkr::Preconditioner<T>*>(&timed_m) : &m_;
    const index_t n = a_.rows();
    const auto seq_start = Clock::now();
    const int32_t seq_span = traced ? rec_.open("bench.sequence", seq_start, -1, sequences_) : -1;
    std::vector<int64_t> solve_ids;
    for (const auto& b : sequence_) {
      bkr::DenseMatrix<T> x(n, b.cols());
      const auto t0 = Clock::now();
      if (traced) {
        ctx.id = next_solve_id_;
        ctx.parent = rec_.open("core.solve", t0, seq_span, ctx.id);
        solve_ids.push_back(next_solve_id_++);
      }
      const bkr::SolveStats st = solver.solve(op, m, b.view(), x.view());
      const auto t1 = Clock::now();
      if (traced) rec_.close(ctx.parent, t1);
      o.solve_seconds.push_back(seconds_between(t0, t1));
      o.wall += o.solve_seconds.back();
      o.counts.add(st);
      for (index_t c = 0; c < b.cols(); ++c) {
        const double rr = true_relative_residual(a_, b.view().col(c), x.view().col(c));
        worst_ratio_ = std::max(worst_ratio_, rr / opts_.tol);
        const bool ok = st.converged && rr <= kResidualSlack * opts_.tol;
        out_.op(ok);
        if (ok) ++o.verified_columns;
      }
    }
    if (traced) {
      rec_.close(seq_span, Clock::now());
      o.sparse = timed_op.tally();
      o.precond = timed_m.tally();
      const auto& records = solver_trace.solves();
      for (size_t s = 0; s < records.size() && s < solve_ids.size(); ++s) {
        PhaseRecord pr;
        pr.solve_id = solve_ids[s];
        for (int p = 0; p < bkr::obs::kPhaseCount; ++p) {
          pr.seconds[p] = records[s].phases[p].seconds;
          pr.counts[p] = records[s].phases[p].count;
        }
        phases_.push_back(pr);
      }
      for (int i = 0; i < kCorePhaseCount; ++i) {
        o.phase_s[i] = solver_trace.phase_seconds(kCorePhases[i]);
        o.phase_count[i] = solver_trace.phase_count(kCorePhases[i]);
      }
    }
    ++sequences_;
    return o;
  }

  [[nodiscard]] const std::vector<PhaseRecord>& phases() const { return phases_; }
  [[nodiscard]] double worst_residual_ratio() const { return worst_ratio_; }

 private:
  const bkr::CsrMatrix<T>& a_;
  bkr::Preconditioner<T>& m_;
  const std::vector<bkr::DenseMatrix<T>>& sequence_;
  bkr::SolverOptions opts_;
  SpanRecorder& rec_;
  RunResult& out_;
  std::vector<PhaseRecord> phases_;
  int64_t sequences_ = 0;
  int64_t next_solve_id_ = 0;
  double worst_ratio_ = 0;
};

// Bytes an operator apply must move, computed from the CSR arrays and the
// block width (labelled as computed, not measured): the matrix is read
// once per apply, the input and output blocks once per column.
template <class T>
double computed_apply_bytes(const bkr::CsrMatrix<T>& a, const LayerTally& applies) {
  const double matrix = double(a.nnz()) * double(sizeof(T) + sizeof(index_t)) +
                        double(a.rows() + 1) * double(sizeof(index_t));
  const double per_column = double(a.rows() + a.cols()) * double(sizeof(T));
  return double(applies.calls) * matrix + double(applies.cols) * per_column;
}

template <class T>
RunResult measure_solver_workload(const RunArgs& args, const char* name, const bkr::CsrMatrix<T>& a,
                                  bkr::Preconditioner<T>& m,
                                  const std::vector<bkr::DenseMatrix<T>>& sequence,
                                  const bkr::SolverOptions& opts, const SetupTimes& setup,
                                  SpanRecorder& rec, SpeedProbe& probe, RunResult out) {
  SequenceRunner<T> runner(a, m, sequence, opts, rec, out);
  std::vector<SequenceOutcome> plain, traced;
  std::vector<double> plain_probes, traced_probes;  // speed probe around each sequence
  // At least three sequences of each kind measured, however long they take.
  const size_t min_each = 3;
  const auto deadline = Clock::now() + std::chrono::duration<double>(args.seconds);
  for (size_t rep = 0;; ++rep) {
    const bool trace_this = args.trace && rep % 2 == 1;
    std::vector<double>& probes = trace_this ? traced_probes : plain_probes;
    probe.sample(probes);
    (trace_this ? traced : plain).push_back(runner.run(trace_this));
    probe.sample(probes);
    const bool enough = plain.size() >= min_each && (!args.trace || traced.size() >= min_each);
    if (enough && Clock::now() >= deadline) break;
  }

  const Counts& ref = plain.front().counts;
  for (const auto* group : {&plain, &traced})
    for (const auto& o : *group)
      if (!(o.counts == ref))
        out.fail_check("core counts differ between sequences of the same inputs");

  std::vector<double> walls, latencies;
  // Mean time of each solve call of the sequence (by position).
  std::vector<double> call_means(plain.front().solve_seconds.size(), 0.0);
  int64_t verified = 0;
  for (const auto& o : plain) {
    walls.push_back(o.wall);
    latencies.insert(latencies.end(), o.solve_seconds.begin(), o.solve_seconds.end());
    for (size_t j = 0; j < call_means.size(); ++j)
      call_means[j] += o.solve_seconds[j] / double(plain.size());
    verified += o.verified_columns;
  }

  // End-to-end times at the reference speed when the workload calibrates
  // (calibrate.hpp); the factors are 1 otherwise.
  const double setup_f = probe.factor(setup.probes);
  const double solve_f = probe.factor(plain_probes);
  std::fprintf(stderr,
               "%s: %zu untraced + %zu traced sequences (raw wall min %.4g / median %.4g / max "
               "%.4g s; speed factors set-up %.3f, solve %.3f), worst true residual %.3g x tol\n",
               name, plain.size(), traced.size(), *std::min_element(walls.begin(), walls.end()),
               median(walls), *std::max_element(walls.begin(), walls.end()), setup_f, solve_f,
               runner.worst_residual_ratio());

  if (!args.trace) {
    EndToEnd e;
    e.setup_s = median(setup.total) * setup_f;
    e.solve_s = mean(walls) * solve_f;
    e.latency_p50_ms = 1e3 * quantile(call_means, 0.5) * solve_f;
    e.latency_p90_ms = 1e3 * quantile(call_means, 0.9) * solve_f;
    e.goodput_rps = double(verified) / (double(plain.size()) * e.solve_s);
    e.peak_rss_mb = peak_rss_mb_self();
    report(out, e);
    std::fprintf(stderr, "%s: %zu latency samples over %zu solve calls per sequence\n", name,
                 latencies.size(), call_means.size());
    return out;
  }

  Layers l;
  l.fem_assemble_s = median(setup.assemble);
  l.precond_setup_s = median(setup.precond);
  l.core_iterations = ref.iterations;
  l.core_cycles = ref.cycles;
  l.core_reductions = ref.reductions;
  l.core_operator_applies = ref.operator_applies;
  l.core_precond_applies = ref.precond_applies;
  const SequenceOutcome& first = traced.front();
  l.sparse_apply_calls = first.sparse.calls;
  l.sparse_apply_cols = first.sparse.cols;
  l.precond_apply_calls = first.precond.calls;
  l.precond_apply_cols = first.precond.cols;
  for (int i = 0; i < kCorePhaseCount; ++i) l.core_phase_count[i] = first.phase_count[i];
  std::vector<double> sparse_s, precond_s, self_s, gbps, coverage, traced_walls;
  std::vector<double> phase_s[kCorePhaseCount];
  for (const auto& o : traced) {
    traced_walls.push_back(o.wall);
    sparse_s.push_back(o.sparse.seconds);
    precond_s.push_back(o.precond.seconds);
    self_s.push_back(o.wall - o.sparse.seconds - o.precond.seconds);
    gbps.push_back(o.sparse.seconds > 0 ? computed_apply_bytes(a, o.sparse) / o.sparse.seconds / 1e9
                                        : 0.0);
    double attributed = o.sparse.seconds + o.precond.seconds;
    for (int i = 0; i < kCorePhaseCount; ++i) {
      phase_s[i].push_back(o.phase_s[i]);
      attributed += o.phase_s[i];
    }
    coverage.push_back(attributed / o.wall);
    // The decorators see every apply the solver counts, and no other.
    if (o.sparse.calls != ref.operator_applies || o.precond.calls != ref.precond_applies)
      out.fail_check("decorator call counts differ from SolveStats applies");
  }
  l.sparse_apply_s = median(sparse_s);
  l.precond_apply_s = median(precond_s);
  l.core_self_s = median(self_s);
  l.sparse_computed_gbps = median(gbps);
  for (int i = 0; i < kCorePhaseCount; ++i) l.core_phase_s[i] = median(phase_s[i]);
  l.trace_overhead_ratio = median(traced_walls) / median(walls) - 1.0;
  l.trace_coverage = median(coverage);
  l.latency_samples = int64_t(latencies.size());
  for (const double c : coverage)
    if (c < kCoverageFloor || c > 1.0)
      out.fail_check("trace.coverage " + std::to_string(c) + " outside [" +
                     std::to_string(kCoverageFloor) + ", 1]");
  report(out, l);
  if (!write_trace_file(args.trace_out, name, args.seed, rec, runner.phases()))
    out.fail_check("cannot write trace file " + args.trace_out);
  return out;
}

}  // namespace

RunResult run_poisson_amg_recycle(const RunArgs& args) {
  const PoissonRecycleSpec spec = poisson_recycle_spec(args.smoke);
  SpanRecorder rec(args.trace);
  SpeedProbe probe(spec.calibrate);
  const index_t g = spec.grid;

  bkr::AmgOptions amg;
  amg.threshold = 0.02;
  amg.smoother = bkr::AmgSmoother::Gmres;
  amg.smoother_iterations = spec.smoother_iterations;
  std::optional<bkr::CsrMatrix<double>> a;
  std::unique_ptr<bkr::AmgPreconditioner<double>> m;
  SetupTimes setup;
  timed_setups(
      spec.setups, [&] { return bkr::poisson2d_varcoef(g, g, spec.contrast, spec.inclusions); },
      [&](const bkr::CsrMatrix<double>& mat) {
        return std::make_unique<bkr::AmgPreconditioner<double>>(mat, amg);
      },
      rec, probe, a, m, setup);

  // The sequence opens with the paper's first source (nus[0], solved cold
  // every time); the seed orders the rest and jitters every width.
  InputRng rng(args.seed);
  std::vector<double> nus = spec.nus;
  std::vector<double> rest(nus.begin() + 1, nus.end());
  rng.shuffle(rest);
  std::copy(rest.begin(), rest.end(), nus.begin() + 1);
  std::vector<bkr::DenseMatrix<double>> sequence;
  for (const double nu : nus) {
    const auto f = bkr::poisson2d_rhs(g, g, nu * rng.uniform(0.9, 1.1));
    bkr::DenseMatrix<double> b(g * g, 1);
    std::copy(f.begin(), f.end(), b.col(0));
    sequence.push_back(std::move(b));
  }

  bkr::SolverOptions opts;
  opts.restart = spec.restart;
  opts.recycle = spec.recycle;
  opts.tol = spec.tol;
  opts.side = bkr::PrecondSide::Flexible;
  opts.same_system = true;
  opts.max_iterations = 2000;
  return measure_solver_workload<double>(args, "poisson-amg-recycle", *a, *m, sequence, opts,
                                         setup, rec, probe, RunResult{});
}

RunResult run_maxwell_block_mrhs(const RunArgs& args) {
  const MaxwellBlockSpec spec = maxwell_block_spec(args.smoke);
  SpanRecorder rec(args.trace);
  SpeedProbe probe(spec.calibrate);

  bkr::MaxwellConfig cfg;  // the fig-8 chamber: matching liquid + plastic cylinder
  cfg.n = spec.grid;
  cfg.wavelengths = 2.0;
  cfg.eps_r = 1.0;
  cfg.loss = 0.15;
  cfg.inclusion_radius = 0.21;
  cfg.inclusion_eps_r = 3.0;
  bkr::SchwarzOptions oras;
  oras.subdomains = spec.subdomains;
  oras.overlap = spec.overlap;
  oras.kind = bkr::SchwarzKind::Oras;
  oras.impedance = spec.impedance;
  oras.parallel = false;  // one lane: thread-pool wake-ups would add timing noise
  std::optional<bkr::MaxwellProblem> prob;
  std::unique_ptr<bkr::SchwarzPreconditioner<cd>> m;
  SetupTimes setup;
  timed_setups(
      spec.setups, [&] { return bkr::maxwell3d(cfg); },
      [&](const bkr::MaxwellProblem& p) {
        return std::make_unique<bkr::SchwarzPreconditioner<cd>>(p.matrix, oras);
      },
      rec, probe, prob, m, setup);

  InputRng rng(args.seed);
  std::vector<index_t> antennas(size_t(spec.antennas));
  for (index_t i = 0; i < spec.antennas; ++i) antennas[size_t(i)] = i;
  rng.shuffle(antennas);
  const index_t n = prob->nfree;
  std::vector<bkr::DenseMatrix<cd>> sequence;
  for (index_t s = 0; s + spec.block_width <= spec.antennas; s += spec.block_width) {
    bkr::DenseMatrix<cd> b(n, spec.block_width);
    for (index_t j = 0; j < spec.block_width; ++j) {
      const auto col = bkr::antenna_rhs(*prob, antennas[size_t(s + j)], spec.antennas);
      std::copy(col.begin(), col.end(), b.col(j));
    }
    sequence.push_back(std::move(b));
  }

  bkr::SolverOptions opts;
  opts.restart = spec.restart;
  opts.recycle = spec.recycle;
  opts.tol = spec.tol;
  opts.side = bkr::PrecondSide::Right;
  opts.same_system = true;
  opts.max_iterations = 4000;
  return measure_solver_workload<cd>(args, "maxwell-block-mrhs", prob->matrix, *m, sequence, opts,
                                     setup, rec, probe, RunResult{});
}

}  // namespace perfbench
