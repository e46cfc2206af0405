#include "core/cg.hpp"

#include <algorithm>
#include <cmath>

#include "core/krylov_detail.hpp"

namespace bkr {

namespace detail {

namespace {
// Workspace slots, one numbering per pool.
enum : int { kWsR = kWsSolverBase, kWsZ, kWsQ, kWsD };     // mats_
enum : int { kWsRho = kWsSolverBase, kWsRhoOld };           // vecs_
enum : int { kWsBnorm = kWsSolverBase, kWsRnorm, kWsDead };  // dvecs_
}  // namespace

template <class T>
void cg_body(SolveContext<T>& ctx, const LinearOperator<T>& a, Preconditioner<T>* m,
             MatrixView<const T> b, MatrixView<T> x) {
  using Real = real_t<T>;
  const SolverOptions& opts = ctx.opts;
  SolveStats& st = ctx.st;
  SolverWorkspace<T>& ws = ctx.ws;
  obs::TraceSink* const trace = ctx.trace;
  const index_t n = a.n(), p = b.cols();

  std::vector<Real>& bnorm = ws.dvec(kWsBnorm, p);
  std::vector<Real>& rnorm = ws.dvec(kWsRnorm, p);
  rhs_norms<T>(ctx, nullptr, PrecondSide::None, b, bnorm.data());
  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);

  DenseMatrix<T>& r = ws.mat(kWsR, n, p);
  DenseMatrix<T>& z = ws.mat(kWsZ, n, p);
  DenseMatrix<T>& q = ws.mat(kWsQ, n, p);
  DenseMatrix<T>& d = ws.mat(kWsD, n, p);
  ctx.residual(a, b, MatrixView<const T>(x.data(), n, p, x.ld()), r.view());
  ctx.norms(r.view(), rnorm.data());
  ctx.push_history(rnorm.data(), bnorm.data(), p);
  if (!detail::finite_norms(bnorm.data(), p) || !detail::finite_norms(rnorm.data(), p)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }

  auto precondition = [&](MatrixView<const T> in, MatrixView<T> out) {
    if (m != nullptr) {
      obs::ScopedPhase sp(trace, obs::Phase::Precond);
      m->apply(in, out);
      ++st.precond_applies;
      ctx.fault_hook(resilience::FaultSite::PrecondApply, out);
    } else {
      copy_into<T>(in, out);
    }
  };
  precondition(r.view(), z.view());
  copy_into<T>(MatrixView<const T>(z.data(), n, p, z.ld()), d.view());
  std::vector<T>& rho = ws.vec(kWsRho, p);
  std::vector<T>& rho_old = ws.vec(kWsRhoOld, p);
  ctx.reduce({p * 8}, [&] {
    for (index_t c = 0; c < p; ++c) rho[size_t(c)] = ctx.dot(n, r.col(c), z.col(c));
  });

  auto converged = [&] {
    for (index_t c = 0; c < p; ++c)
      if (rnorm[size_t(c)] > opts.tol * bnorm[size_t(c)]) return false;
    return true;
  };
  // A lane whose search direction exposed an indefinite or non-finite
  // curvature is frozen: it can make no further progress and would
  // otherwise loop to max_iterations. (A real slot: nonzero marks it.)
  std::vector<double>& lane_dead = ws.dvec(kWsDead, p);
  auto live_work = [&] {
    for (index_t c = 0; c < p; ++c)
      if (lane_dead[size_t(c)] == 0 && rnorm[size_t(c)] > opts.tol * bnorm[size_t(c)]) return true;
    return false;
  };

  // Mixed-precision pilot (DESIGN.md §14): the recursive residual tracks
  // the reduced-precision operator, so it is periodically replaced — and
  // always re-verified before reporting convergence — by the true fp64
  // residual b - A x.
  auto replace_residual = [&] {
    true_residual<T>(ctx, a, b, MatrixView<const T>(x.data(), n, p, x.ld()), r.view());
    ctx.norms(r.view(), rnorm.data());
    ctx.note_recovery("mixed-precision", "residual-replacement", p);
  };

  // The initial entry is in: room for min(max_iterations, 256) more.
  ctx.reserve_history(p, std::min<index_t>(opts.max_iterations, 256));

  BKR_HOT_LOOP while (live_work() && st.iterations < opts.max_iterations) {
    ctx.poll_cancel();
    {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(MatrixView<const T>(d.data(), n, p, d.ld()), q.view());
      ++st.operator_applies;
      ctx.fault_hook(resilience::FaultSite::OperatorApply, q.view());
    }
    // Fused alpha = rho / (d, q) and (later) residual norms: two global
    // reductions, timed by one scope. The interleaved axpy updates ride
    // in the same span (separating them would split every column loop).
    ctx.reduce({p * 8, p * 8}, [&] {
      for (index_t c = 0; c < p; ++c) {
        if (lane_dead[size_t(c)] != 0) continue;
        const T dq = ctx.dot(n, d.col(c), q.col(c));
        const Real dqr = real_part(dq);
        if (!std::isfinite(static_cast<double>(dqr)) || dqr < Real(0)) {
          // Indefinite operator (negative curvature) or numerical poison.
          lane_dead[size_t(c)] = 1;
          st.status = std::isfinite(static_cast<double>(dqr)) ? SolveStatus::Breakdown
                                                              : SolveStatus::NonFiniteResidual;
          continue;
        }
        if (dq == T(0)) continue;  // converged/breakdown lane
        const T alpha = rho[size_t(c)] / dq;
        axpy<T>(n, alpha, d.col(c), x.col(c));
        axpy<T>(n, -alpha, q.col(c), r.col(c));
      }
      ctx.column_norms(r.view(), rnorm.data());
    });
    ++st.iterations;
    for (index_t c = 0; c < p; ++c) ctx.record(c, rnorm[size_t(c)], bnorm[size_t(c)]);
    ctx.iteration_event(1, p, 0, rnorm.data(), bnorm.data(), p);
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    if (opts.mixed_precision) {
      bool done = converged();
      const bool periodic = opts.replacement_interval > 0 &&
                            st.iterations % opts.replacement_interval == 0;
      if (done || periodic) {
        // Drift correction (periodic) or convergence verification: after
        // the replacement, rnorm holds the true fp64 residual, so the
        // stopping test below cannot be lied to by the fp32 recursion.
        replace_residual();
        if (!detail::finite_norms(rnorm.data(), p)) {
          st.status = SolveStatus::NonFiniteResidual;
          break;
        }
        done = converged();
      }
      if (done) break;
    } else if (converged()) {
      break;
    }
    precondition(r.view(), z.view());
    std::swap(rho, rho_old);
    ctx.reduce({p * 8}, [&] {
      for (index_t c = 0; c < p; ++c) rho[size_t(c)] = ctx.dot(n, r.col(c), z.col(c));
    });
    for (index_t c = 0; c < p; ++c) {
      const T beta = (rho_old[size_t(c)] == T(0)) ? T(0) : rho[size_t(c)] / rho_old[size_t(c)];
      for (index_t i = 0; i < n; ++i) d(i, c) = z(i, c) + beta * d(i, c);
    }
  }
  st.converged = detail::finite_norms(rnorm.data(), p) && converged();
  // The recursion can be lied to by a faulted operator, and under the
  // mixed-precision pilot it tracks the fp32 mirror: confirm against b - A x.
  final_residual_check<T>(ctx, a, b, x, Real(10), bnorm.data());
}

template void cg_body<double>(SolveContext<double>&, const LinearOperator<double>&,
                              Preconditioner<double>*, MatrixView<const double>,
                              MatrixView<double>);
template void cg_body<std::complex<double>>(SolveContext<std::complex<double>>&,
                                            const LinearOperator<std::complex<double>>&,
                                            Preconditioner<std::complex<double>>*,
                                            MatrixView<const std::complex<double>>,
                                            MatrixView<std::complex<double>>);

}  // namespace detail

template <class T>
SolveStats cg(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
              MatrixView<T> x, const SolverOptions& opts, CommModel* comm) {
  detail::check_solve_entry<T>(a, m, b, x, opts);
  return detail::run_solver<T>("cg", a.n(), b.cols(), opts, comm,
                               [&](detail::SolveContext<T>& ctx) {
                                 detail::cg_body<T>(ctx, a, m, b, x);
                               });
}

template SolveStats cg<double>(const LinearOperator<double>&, Preconditioner<double>*,
                               MatrixView<const double>, MatrixView<double>, const SolverOptions&,
                               CommModel*);
template SolveStats cg<std::complex<double>>(const LinearOperator<std::complex<double>>&,
                                             Preconditioner<std::complex<double>>*,
                                             MatrixView<const std::complex<double>>,
                                             MatrixView<std::complex<double>>,
                                             const SolverOptions&, CommModel*);

}  // namespace bkr
