// Shared building blocks of the (block) Krylov implementations: the
// preconditioned operator application, block orthogonalization schemes and
// the block QR normalization, all instrumented with the reduction counts
// of the paper's section III-D and the per-phase timers of src/obs.
#pragma once

#include <cmath>
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

// Per-solve resilience context threaded through the shared kernels. Owns
// nothing; a null pointer (the default of every `rz` parameter below)
// keeps each kernel on its legacy code path with zero added work.
template <class T>
struct Resilience {
  const RecoveryPolicy& policy;
  resilience::FaultInjector* fault = nullptr;
  // Orthonormal basis columns preceding the block being normalized; the
  // replacement ladder re-orthogonalizes substitute columns against it.
  MatrixView<const T> prior{};
  // Solver-maintained global (block) iteration count, for event records.
  index_t iteration = 0;
  // Block-recovery engagements consumed this solve (vs policy.max_recoveries).
  index_t used = 0;
};

// Fault-injection hook: a pointer test when no injector is attached.
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

// Cooperative cancellation/deadline poll (DESIGN.md §15), called once per
// (block) outer iteration at the top of every solver's hot loop and once
// at solve entry (so an already-expired deadline aborts before the first
// operator apply). With no token and no deadline attached — the default —
// this is two branch-predictable tests with no loads of shared state, so
// it is sanctioned inside BKR_HOT_LOOP by bkr-lint --hotpath. The relaxed
// load is deliberate: the only contract is "a flag set by another thread
// is observed at some subsequent iteration boundary".
BKR_HOT inline void poll_cancel(const SolverOptions& opts) {
  if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed))
    throw BreakdownError(SolveStatus::Cancelled, "solve cancelled by token");
  if (deadline_enabled(opts) && std::chrono::steady_clock::now() >= opts.deadline)
    throw BreakdownError(SolveStatus::DeadlineExceeded, "solve deadline exceeded");
}

// Uniform solver entry wrapper: owns the wall clock, the begin/end trace
// pairing, the terminal-status resolution and the translation of the two
// structured abort exceptions into SolveStats. `body` is the solver's
// iteration loop; it fills `st` and returns, setting st.status only on
// explicit failure exits (the default covers budget exhaustion, the
// wrapper covers success).
template <class F>
SolveStats run_solver(const char* method, index_t n, index_t nrhs, const SolverOptions& opts,
                      F&& body) {
  BKR_REQUIRE(n > 0, "n", n);
  BKR_REQUIRE(nrhs >= 1, "nrhs", nrhs);
  BKR_REQUIRE(opts.recovery.max_recoveries >= 0, "opts.recovery.max_recoveries",
              opts.recovery.max_recoveries);
  BKR_REQUIRE(opts.recovery.stagnation_window >= 1, "opts.recovery.stagnation_window",
              opts.recovery.stagnation_window);
  Timer timer;
  SolveStats st;
  obs::TraceSink* const trace = opts.trace;
  if (trace != nullptr) trace->begin_solve(method, n, nrhs);
  try {
    poll_cancel(opts);  // expired-at-entry deadline: abort with 0 applies
    body(st);
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
  if (trace != nullptr) trace->end_solve(st.converged, st.iterations, st.cycles, st.seconds);
  if (opts.recovery.throw_on_failure && !st.converged &&
      st.status != SolveStatus::MaxIterations && st.status != SolveStatus::Stagnated &&
      st.status != SolveStatus::Cancelled && st.status != SolveStatus::DeadlineExceeded)
    throw BreakdownError(st.status, std::string(method) + ": " + status_name(st.status));
  return st;
}

// Downcast the type-erased SolverOptions::workspace to the solve's scalar
// type; a null or mismatched attachment falls back to `fallback` (the
// per-solve one-shot workspace) so it can never corrupt a solve.
template <class T>
SolverWorkspace<T>* resolve_workspace(SolverWorkspaceBase* base, SolverWorkspace<T>* fallback) {
  if (base != nullptr)
    if (auto* typed = dynamic_cast<SolverWorkspace<T>*>(base)) return typed;
  return fallback;
}

// run_solver with workspace plumbing: resolves the session workspace (or
// owns a one-shot fallback for the duration of the solve) and hands it to
// the body alongside the stats record.
template <class T, class F>
SolveStats run_solver_ws(const char* method, index_t n, index_t nrhs, const SolverOptions& opts,
                         F&& body) {
  SolverWorkspace<T> one_shot;
  SolverWorkspace<T>& ws = *resolve_workspace<T>(opts.workspace, &one_shot);
  return run_solver(method, n, nrhs, opts, [&](SolveStats& st) { body(st, ws); });
}

// Effective preconditioning side of a solve: no preconditioner means
// None, and a variable preconditioner applied on the right runs flexible.
template <class T>
PrecondSide resolve_side(const Preconditioner<T>* m, PrecondSide side) {
  if (m == nullptr) return PrecondSide::None;
  if (side == PrecondSide::Right && m->is_variable()) return PrecondSide::Flexible;
  return side;
}

// Account `k` global reductions at once: the SolveStats counter, the
// communication model (bytes per reduction) and the trace's reduction
// phase all stay in lockstep. Every solver routes its synchronization
// points through here so the counter-accounting tests can assert
// stats.reductions == trace reduction count exactly.
inline void count_reductions(SolveStats& stats, CommModel* comm, obs::TraceSink* trace,
                             std::int64_t k = 1, std::int64_t bytes = 8) {
  stats.reductions += k;
  if (comm != nullptr)
    for (std::int64_t i = 0; i < k; ++i) comm->reduction(bytes);
  if (trace != nullptr) trace->phase(obs::Phase::Reduction, 0.0, k);
}

template <class T>
void norms(MatrixView<const T> x, real_t<T>* out, SolveStats& stats, CommModel* comm,
           obs::TraceSink* trace = nullptr, const KernelExecutor* ex = nullptr,
           index_t shards = 0);

// Per-column norms of B, or of M^{-1} B under left preconditioning (the
// quantity the left-preconditioned residual is measured against), with
// `scratch` as the M^{-1} B buffer. Zero norms become 1 so that a zero
// right-hand side measures absolute residuals.
template <class T>
void rhs_norms(Preconditioner<T>* m, PrecondSide side, MatrixView<const T> b, real_t<T>* out,
               DenseMatrix<T>& scratch, SolveStats& stats, CommModel* comm,
               const SolverOptions& opts) {
  MatrixView<const T> target = b;
  if (side == PrecondSide::Left) {
    scratch.resize(b.rows(), b.cols());
    {
      obs::ScopedPhase sp(opts.trace, obs::Phase::Precond);
      m->apply(b, scratch.view());
      ++stats.precond_applies;
    }
    target = scratch.view();
  }
  norms<T>(target, out, stats, comm, opts.trace, opts.exec, opts.shards);
  for (index_t c = 0; c < b.cols(); ++c)
    if (out[c] == real_t<T>(0)) out[c] = real_t<T>(1);
}

// Fault-gated epilogue: a corrupted recurrence can drive the *estimated*
// residual below tolerance while the true residual is arbitrary (the
// estimate converges against the faulted operator, not A). When an
// injector is attached — or the caller opts in via final_check — recompute
// b - A x and demote `converged` to Faulted / NonFiniteResidual if they
// disagree. The factor is looser than the tolerance itself because left
// preconditioning converges on M^{-1}(b - A x); it only has to catch
// corruption, which is orders of magnitude, not a rounding factor.
template <class T>
BKR_COLD void final_residual_check(const LinearOperator<T>& a, MatrixView<const T> b,
                                   MatrixView<T> x, const SolverOptions& opts, SolveStats& st,
                                   CommModel* comm) {
  using Real = real_t<T>;
  if (!st.converged ||
      (opts.fault == nullptr && !opts.recovery.final_check && !opts.mixed_precision))
    return;
  obs::TraceSink* const trace = opts.trace;
  const KernelExecutor* const ex = opts.exec;
  const index_t n = b.rows(), p = b.cols();
  // Under the mixed-precision pilot the operator's apply is the fp32
  // mirror; the epilogue must measure against the fp64 matrix.
  const auto* const mp = dynamic_cast<const MixedPrecisionOperator<T>*>(&a);
  DenseMatrix<T> q(n, p);
  {
    obs::ScopedPhase sp(trace, obs::Phase::Spmm);
    const auto xv = MatrixView<const T>(x.data(), n, p, x.ld());
    if (mp != nullptr) {
      mp->apply_full(xv, q.view());
    } else {
      a.apply(xv, q.view());
    }
    ++st.operator_applies;
  }
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i) q(i, c) = b(i, c) - q(i, c);
  std::vector<Real> rn(static_cast<size_t>(p)), bn(static_cast<size_t>(p));
  norms<T>(MatrixView<const T>(q.data(), n, p, q.ld()), rn.data(), st, comm, trace, ex,
           opts.shards);
  norms<T>(b, bn.data(), st, comm, trace, ex, opts.shards);
  for (index_t c = 0; c < p; ++c) {
    const Real scale = bn[size_t(c)] > Real(0) ? bn[size_t(c)] : Real(1);
    if (rn[size_t(c)] <= Real(100) * opts.tol * scale) continue;
    st.converged = false;
    st.status = finite_norms(&rn[size_t(c)], 1) ? SolveStatus::Faulted
                                                : SolveStatus::NonFiniteResidual;
    break;
  }
}

// The k eigenvectors of the GCRO-DR deflation pencil T z = theta W z with
// the smallest eigenvalues. When the eigensolver fails, either abort with
// EigSolveFailure (`failure` names the solve) or, under
// policy.shrink_recycle, keep the leading k directions of the space —
// unit vectors — and record the recovery.
template <class T>
BKR_COLD DenseMatrix<T> deflation_vectors(const DenseMatrix<T>& t, const DenseMatrix<T>& w,
                                          index_t k, const RecoveryPolicy& policy,
                                          const char* failure, SolveStats& st,
                                          obs::TraceSink* trace) {
  try {
    return smallest_gen_eig_vectors<T>(t, w, k);
  } catch (const EigFailure&) {
    if (!policy.shrink_recycle) throw BreakdownError(SolveStatus::EigSolveFailure, failure);
    DenseMatrix<T> pk(t.rows(), k);
    for (index_t j = 0; j < k; ++j) pk(j, j) = T(1);
    ++st.recoveries;
    if (trace != nullptr)
      trace->recovery(obs::RecoveryEvent{st.iterations, "deflation", "identity-pk", k});
    return pk;
  }
}

// Harmonic Ritz vectors after an unprojected cycle (fig. 1 line 16): the
// k smallest pairs of the generalized form (R^H R) z = theta H_m^H z over
// the first s Krylov columns, assembled from the incremental QR of the
// Hessenberg `hbar` (the paper's eq. 2 reformulation).
template <class T>
BKR_COLD DenseMatrix<T> harmonic_ritz_vectors(const IncrementalQR<T>& qr,
                                              MatrixView<const T> hbar, index_t s, index_t k,
                                              const RecoveryPolicy& policy, const char* failure,
                                              SolveStats& st, obs::TraceSink* trace) {
  const DenseMatrix<T> r = qr.r_matrix();
  DenseMatrix<T> t(s, s);
  gemm<T>(Trans::C, Trans::N, T(1), MatrixView<const T>(r.data(), s, s, r.ld()),
          MatrixView<const T>(r.data(), s, s, r.ld()), T(0), t.view());
  DenseMatrix<T> w(s, s);
  for (index_t j = 0; j < s; ++j)
    for (index_t i = 0; i < s; ++i) w(i, j) = conj(hbar(j, i));  // H_m^H
  return deflation_vectors<T>(t, w, k, policy, failure, st, trace);
}

// Z and W outputs of one preconditioned operator application on the block
// V: W is the vector entering the Arnoldi recurrence; Z is the vector that
// reconstructs the solution update (Z = M^{-1}V for right/flexible).
template <class T>
BKR_HOT void apply_preconditioned(const LinearOperator<T>& a, Preconditioner<T>* m,
                                  PrecondSide side, MatrixView<const T> v, MatrixView<T> z,
                                  MatrixView<T> w, SolveStats& stats,
                                  obs::TraceSink* trace = nullptr, Resilience<T>* rz = nullptr) {
  switch (side) {
    case PrecondSide::None: {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(v, w);
      ++stats.operator_applies;
      fault_hook(rz, resilience::FaultSite::OperatorApply, w);
      break;
    }
    case PrecondSide::Right:
    case PrecondSide::Flexible: {
      {
        obs::ScopedPhase sp(trace, obs::Phase::Precond);
        m->apply(v, z);
        ++stats.precond_applies;
        fault_hook(rz, resilience::FaultSite::PrecondApply, z);
      }
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(MatrixView<const T>(z.data(), z.rows(), z.cols(), z.ld()), w);
      ++stats.operator_applies;
      fault_hook(rz, resilience::FaultSite::OperatorApply, w);
      break;
    }
    case PrecondSide::Left: {
      {
        obs::ScopedPhase sp(trace, obs::Phase::Spmm);
        a.apply(v, z);  // z used as scratch: z = A v
        ++stats.operator_applies;
        fault_hook(rz, resilience::FaultSite::OperatorApply, z);
      }
      obs::ScopedPhase sp(trace, obs::Phase::Precond);
      m->apply(MatrixView<const T>(z.data(), z.rows(), z.cols(), z.ld()), w);
      ++stats.precond_applies;
      fault_hook(rz, resilience::FaultSite::PrecondApply, w);
      break;
    }
  }
}

// op(U) for GCRO-DR's recycled block U: the operator of the Arnoldi
// cycles, except under flexible preconditioning, where U already holds
// preconditioned vectors and A alone maps it to C.
template <class T>
void apply_recycled_op(const LinearOperator<T>& a, Preconditioner<T>* m, PrecondSide side,
                       MatrixView<const T> u, MatrixView<T> out, SolveStats& stats,
                       obs::TraceSink* trace, Resilience<T>* rz) {
  const PrecondSide op_side = (side == PrecondSide::Flexible) ? PrecondSide::None : side;
  DenseMatrix<T> tmp;
  if (op_side != PrecondSide::None) tmp.resize(u.rows(), u.cols());
  apply_preconditioned<T>(a, m, op_side, u, tmp.view(), out, stats, trace, rz);
}

// X += T for an update T living in Krylov space: right preconditioning
// maps it back through M^{-1} (into `ztmp`), every other side adds it as is.
template <class T>
void add_update(Preconditioner<T>* m, PrecondSide side, MatrixView<const T> t, MatrixView<T> x,
                MatrixView<T> ztmp, SolveStats& stats, obs::TraceSink* trace, Resilience<T>* rz) {
  const index_t n = t.rows();
  MatrixView<const T> dx = t;
  if (side == PrecondSide::Right) {
    obs::ScopedPhase sp(trace, obs::Phase::Precond);
    m->apply(t, ztmp);
    ++stats.precond_applies;
    fault_hook(rz, resilience::FaultSite::PrecondApply, ztmp);
    dx = ztmp;
  }
  for (index_t c = 0; c < t.cols(); ++c) axpy<T>(n, T(1), dx.col(c), x.col(c));
}

// (Possibly left-preconditioned) residual: R = B - A X, or M^{-1}(B - A X).
template <class T>
void residual(const LinearOperator<T>& a, Preconditioner<T>* m, PrecondSide side,
              MatrixView<const T> b, MatrixView<const T> x, MatrixView<T> r,
              DenseMatrix<T>& scratch, SolveStats& stats, obs::TraceSink* trace = nullptr,
              Resilience<T>* rz = nullptr) {
  const index_t n = b.rows(), p = b.cols();
  if (side == PrecondSide::Left) {
    scratch.resize(n, p);
    {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(x, scratch.view());
      ++stats.operator_applies;
      fault_hook(rz, resilience::FaultSite::OperatorApply, scratch.view());
    }
    for (index_t c = 0; c < p; ++c)
      for (index_t i = 0; i < n; ++i) scratch(i, c) = b(i, c) - scratch(i, c);
    obs::ScopedPhase sp(trace, obs::Phase::Precond);
    m->apply(scratch.view(), r);
    ++stats.precond_applies;
    fault_hook(rz, resilience::FaultSite::PrecondApply, r);
  } else {
    {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(x, r);
      ++stats.operator_applies;
      fault_hook(rz, resilience::FaultSite::OperatorApply, r);
    }
    for (index_t c = 0; c < p; ++c)
      for (index_t i = 0; i < n; ++i) r(i, c) = b(i, c) - r(i, c);
  }
}

// Project W against the first `s` columns of the basis, writing the
// coefficients into the first s rows of `h` (s x p view). Reduction
// accounting follows section III-D: CGS fuses the projection into one
// global reduction, MGS needs one per basis block. `ws` provides the CGS2
// reprojection scratch (legacy code constructed it fresh per call — one
// heap allocation on every block iteration of the default Cgs2 scheme).
template <class T>
BKR_HOT void project(MatrixView<const T> basis, index_t s, MatrixView<T> w, MatrixView<T> h,
                     Ortho ortho, index_t block, SolveStats& stats, CommModel* comm,
                     SolverWorkspace<T>& ws, obs::TraceSink* trace = nullptr,
                     const KernelExecutor* ex = nullptr) {
  if (s == 0) return;
  obs::ScopedPhase sp(trace, obs::Phase::OrthoProjection);
  const auto v = basis.cols_view(0, s);
  auto count = [&](std::int64_t k) { count_reductions(stats, comm, trace, k); };
  const auto wc = MatrixView<const T>(w.data(), w.rows(), w.cols(), w.ld());
  switch (ortho) {
    case Ortho::Cgs: {
      gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h.block(0, 0, s, w.cols()), ex);
      count(1);
      gemm<T>(Trans::N, Trans::N, T(-1), v, h.block(0, 0, s, w.cols()), T(1), w, ex);
      break;
    }
    case Ortho::Cgs2: {
      gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h.block(0, 0, s, w.cols()), ex);
      gemm<T>(Trans::N, Trans::N, T(-1), v, h.block(0, 0, s, w.cols()), T(1), w, ex);
      DenseMatrix<T>& h2 = ws.mat(kWsProjectScratch, s, w.cols());
      gemm<T>(Trans::C, Trans::N, T(1), v, wc, T(0), h2.view(), ex);
      gemm<T>(Trans::N, Trans::N, T(-1), v, h2.view(), T(1), w, ex);
      for (index_t c = 0; c < w.cols(); ++c)
        for (index_t i = 0; i < s; ++i) h(i, c) += h2(i, c);
      count(2);
      break;
    }
    case Ortho::Mgs: {
      for (index_t i0 = 0; i0 < s; i0 += block) {
        const index_t width = std::min(block, s - i0);
        const auto vi = basis.cols_view(i0, width);
        gemm<T>(Trans::C, Trans::N, T(1), vi, wc, T(0), h.block(i0, 0, width, w.cols()), ex);
        gemm<T>(Trans::N, Trans::N, T(-1), vi, h.block(i0, 0, width, w.cols()), T(1), w, ex);
        count(1);
      }
      break;
    }
  }
}

// Normalize a block in place: W = Q R via CholQR (single reduction),
// falling back to Householder TSQR on breakdown. Returns false when even
// the fallback produced a numerically rank-deficient R (exact block
// breakdown) — unless a Resilience context with block recovery is
// attached, in which case the final ladder rung replaces the dead columns
// with seeded random directions re-orthogonalized against the basis and
// reports success (the caller's cycle continues on a full-rank block; the
// next restart recomputes the true residual, so a stale Hessenberg column
// can only cost iterations, never correctness).
template <class T>
BKR_HOT bool qr_block(MatrixView<T> w, MatrixView<T> r, SolveStats& stats, CommModel* comm,
                      obs::TraceSink* trace = nullptr, const KernelExecutor* ex = nullptr,
                      Resilience<T>* rz = nullptr) {
  obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
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
  count_reductions(stats, comm, trace, 1, w.cols() * w.cols() * 8);
  if (!cholqr<T>(w, r, ex)) householder_tsqr<T>(w, r);
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
  if (!recover || rz->used >= rz->policy.max_recoveries) return false;
  // Replacement ladder: off the iterate fast path by construction — it
  // only runs on an actual block breakdown, at most max_recoveries times
  // per solve — so allocation and trace construction are acceptable here.
  BKR_COLD {
    ++rz->used;
    ++stats.recoveries;
    std::vector<index_t> alive, dead;
    for (index_t c = 0; c < p; ++c) (is_dead(c) ? dead : alive).push_back(c);
    // Seed varies per engagement so a second breakdown in the same solve
    // draws fresh directions, but reruns stay bit-identical.
    Rng rng(static_cast<unsigned>(rz->policy.seed + 0x9e3779b9ULL *
                                                        static_cast<std::uint64_t>(rz->used)));
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
    count_reductions(stats, comm, trace, 1, p * p * 8);
    // R still factors the *original* block over the surviving columns (its
    // dead diagonals are ~0, so backsolves keep excluding them); only
    // non-finite entries are scrubbed so Hessenberg assembly stays finite.
    for (index_t i = 0; i < r.rows(); ++i)
      for (index_t c = 0; c < r.cols(); ++c)
        if (!std::isfinite(static_cast<double>(abs_val(r(i, c))))) r(i, c) = T(0);
    if (trace != nullptr)
      trace->recovery(obs::RecoveryEvent{rz->iteration, "ortho", "replace-columns",
                                         static_cast<index_t>(dead.size())});
  }
  return true;
}

// Per-column norms with reduction accounting (one fused reduction). The
// compute *is* the global reduction, so its time lands in that phase.
// `shards > 0` selects the explicit binary-tree combine (DESIGN.md §13);
// the tree's shape is a function of the problem size only — never of the
// shard count — so sharded solves are bitwise identical at every S >= 1.
template <class T>
BKR_HOT void norms(MatrixView<const T> x, real_t<T>* out, SolveStats& stats, CommModel* comm,
                   obs::TraceSink* trace, const KernelExecutor* ex, index_t shards) {
  // The ScopedPhase itself contributes the single reduction count.
  obs::ScopedPhase sp(trace, obs::Phase::Reduction);
  if (shards > 0) {
    tree_column_norms<T>(x, out, ex);
  } else {
    column_norms<T>(x, out, ex);
  }
  stats.reductions += 1;
  if (comm != nullptr) comm->reduction(x.cols() * 8);
}

}  // namespace bkr::detail
