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
void cg_body(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
             MatrixView<T> x, const SolverOptions& opts, CommModel* comm, SolveStats& st,
             SolverWorkspace<T>& ws) {
  using Real = real_t<T>;
  const index_t n = a.n(), p = b.cols();
  obs::TraceSink* const trace = opts.trace;
  const KernelExecutor* const ex = opts.exec;
  detail::Resilience<T> rz{opts.recovery, opts.fault};
  // Sharded solves route every synchronization through the explicit tree
  // combine; the fold shape is shard-count independent (DESIGN.md §13).
  const bool tree = opts.shards > 0;
  auto cdot = [&](const T* u, const T* v) {
    return tree ? tree_dot<T>(n, u, v, ex) : dot<T>(n, u, v, ex);
  };

  std::vector<Real>& bnorm = ws.dvec(kWsBnorm, p);
  std::vector<Real>& rnorm = ws.dvec(kWsRnorm, p);
  detail::norms<T>(b, bnorm.data(), st, comm, trace, ex, opts.shards);
  for (auto& v : bnorm)
    if (v == Real(0)) v = Real(1);
  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);

  DenseMatrix<T>& r = ws.mat(kWsR, n, p);
  DenseMatrix<T>& z = ws.mat(kWsZ, n, p);
  DenseMatrix<T>& q = ws.mat(kWsQ, n, p);
  DenseMatrix<T>& d = ws.mat(kWsD, n, p);
  // r = b - A x
  {
    obs::ScopedPhase sp(trace, obs::Phase::Spmm);
    a.apply(MatrixView<const T>(x.data(), n, p, x.ld()), r.view());
    ++st.operator_applies;
    detail::fault_hook(&rz, resilience::FaultSite::OperatorApply, r.view());
  }
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i) r(i, c) = b(i, c) - r(i, c);
  detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts.shards);
  if (opts.record_history)
    for (index_t c = 0; c < p; ++c)
      st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
  if (!detail::finite_norms(bnorm.data(), p) || !detail::finite_norms(rnorm.data(), p)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }

  auto precondition = [&](MatrixView<const T> in, MatrixView<T> out) {
    if (m != nullptr) {
      obs::ScopedPhase sp(trace, obs::Phase::Precond);
      m->apply(in, out);
      ++st.precond_applies;
      detail::fault_hook(&rz, resilience::FaultSite::PrecondApply, out);
    } else {
      copy_into<T>(in, out);
    }
  };
  precondition(r.view(), z.view());
  copy_into<T>(MatrixView<const T>(z.data(), n, p, z.ld()), d.view());
  std::vector<T>& rho = ws.vec(kWsRho, p);
  std::vector<T>& rho_old = ws.vec(kWsRhoOld, p);
  {
    obs::ScopedPhase sp(trace, obs::Phase::Reduction);
    for (index_t c = 0; c < p; ++c) rho[size_t(c)] = cdot(r.col(c), z.col(c));
    st.reductions += 1;
    if (comm != nullptr) comm->reduction(p * 8);
  }

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
    detail::true_residual<T>(a, b, MatrixView<const T>(x.data(), n, p, x.ld()), r.view(), st,
                             trace);
    detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts.shards);
    ++st.recoveries;
    if (trace != nullptr)
      trace->recovery(obs::RecoveryEvent{st.iterations, "mixed-precision",
                                         "residual-replacement", p});
  };

  obs::IterationEvent ev;
  if (trace != nullptr) ev.residuals.reserve(static_cast<size_t>(p));
  if (opts.record_history) {
    const size_t hint = static_cast<size_t>(std::min<index_t>(opts.max_iterations, 256)) + 1;
    for (index_t c = 0; c < p; ++c) st.history[size_t(c)].reserve(hint);
  }

  BKR_HOT_LOOP while (live_work() && st.iterations < opts.max_iterations) {
    detail::poll_cancel(opts);
    {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(MatrixView<const T>(d.data(), n, p, d.ld()), q.view());
      ++st.operator_applies;
      detail::fault_hook(&rz, resilience::FaultSite::OperatorApply, q.view());
    }
    // Fused alpha = rho / (d, q) and (later) residual norms: two global
    // reductions, counted by the scope. The interleaved axpy updates ride
    // in the same span (separating them would split every column loop).
    {
      obs::ScopedPhase sp(trace, obs::Phase::Reduction, 2);
      st.reductions += 2;
      if (comm != nullptr) {
        comm->reduction(p * 8);
        comm->reduction(p * 8);
      }
      for (index_t c = 0; c < p; ++c) {
        if (lane_dead[size_t(c)] != 0) continue;
        const T dq = cdot(d.col(c), q.col(c));
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
      if (tree) {
        tree_column_norms<T>(r.view(), rnorm.data(), ex);
      } else {
        column_norms<T>(r.view(), rnorm.data(), ex);
      }
    }
    ++st.iterations;
    for (index_t c = 0; c < p; ++c) {
      if (opts.record_history)
        st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
      if (rnorm[size_t(c)] > opts.tol * bnorm[size_t(c)]) ++st.per_rhs_iterations[size_t(c)];
    }
    if (trace != nullptr) {
      ev.cycle = 1;
      ev.iteration = st.iterations;
      ev.basis_size = p;
      ev.residuals.resize(size_t(p));
      for (index_t c = 0; c < p; ++c)
        ev.residuals[size_t(c)] = rnorm[size_t(c)] / bnorm[size_t(c)];
      trace->iteration(ev);
    }
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
    {
      obs::ScopedPhase sp(trace, obs::Phase::Reduction);
      for (index_t c = 0; c < p; ++c) rho[size_t(c)] = cdot(r.col(c), z.col(c));
      st.reductions += 1;
      if (comm != nullptr) comm->reduction(p * 8);
    }
    for (index_t c = 0; c < p; ++c) {
      const T beta = (rho_old[size_t(c)] == T(0)) ? T(0) : rho[size_t(c)] / rho_old[size_t(c)];
      for (index_t i = 0; i < n; ++i) d(i, c) = z(i, c) + beta * d(i, c);
    }
  }
  st.converged = detail::finite_norms(rnorm.data(), p) && converged();
  // The recursion can be lied to by a faulted operator, and under the
  // mixed-precision pilot it tracks the fp32 mirror: confirm against b - A x.
  detail::final_residual_check<T>(a, b, x, opts, st, comm, Real(10), bnorm.data());
}

template void cg_body<double>(const LinearOperator<double>&, Preconditioner<double>*,
                               MatrixView<const double>, MatrixView<double>,
                               const SolverOptions&, CommModel*, SolveStats&,
                               SolverWorkspace<double>&);
template void cg_body<std::complex<double>>(const LinearOperator<std::complex<double>>&,
                                            Preconditioner<std::complex<double>>*,
                                            MatrixView<const std::complex<double>>,
                                            MatrixView<std::complex<double>>,
                                            const SolverOptions&, CommModel*, SolveStats&,
                                            SolverWorkspace<std::complex<double>>&);

}  // namespace detail

template <class T>
SolveStats cg(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
              MatrixView<T> x, const SolverOptions& opts, CommModel* comm) {
  detail::check_solve_entry<T>(a, m, b, x, opts);
  return detail::run_solver_ws<T>("cg", a.n(), b.cols(), opts,
                                  [&](SolveStats& st, SolverWorkspace<T>& ws) {
                                    detail::cg_body<T>(a, m, b, x, opts, comm, st, ws);
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
