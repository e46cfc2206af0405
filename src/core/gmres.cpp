#include "core/gmres.hpp"

#include "core/arnoldi.hpp"

namespace bkr {

namespace {

// Workspace slot map (mats_ slots kWsProjectScratch and kWsCycleSolution
// belong to detail::project and the Arnoldi cycles).
enum : int { kWsUpdate = kWsSolverBase };  // mats_

}  // namespace

// Restart loop of block GMRES: block Arnoldi cycles (core/arnoldi.hpp)
// with no recycled space, each followed by the update of x and a fresh
// true residual — the converged flag is only ever set from that
// recomputation.
template <class T>
SolveStats block_gmres(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
                       MatrixView<T> x, const SolverOptions& opts, CommModel* comm) {
  detail::check_solve_entry<T>(a, m, b, x, opts);
  return detail::run_solver_ws<T>(
      "block_gmres", a.n(), b.cols(), opts, [&](SolveStats& st, SolverWorkspace<T>& ws) {
        using Real = real_t<T>;
        const index_t n = a.n(), p = b.cols();
        const PrecondSide side = detail::resolve_side(m, opts.side);
        detail::Resilience<T> rz{opts.recovery, opts.fault};
        std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
        DenseMatrix<T> scratch;
        detail::rhs_norms<T>(m, side, b, bnorm.data(), scratch, st, comm, opts);
        if (!detail::finite_norms(bnorm.data(), p)) {
          st.status = SolveStatus::NonFiniteResidual;
          return;
        }
        st.history.resize(size_t(p));
        st.per_rhs_iterations.assign(size_t(p), 0);
        DenseMatrix<T> r(n, p), ztmp(n, p);
        detail::BlockCycle<T> cycle;
        while (st.iterations < opts.max_iterations) {
          ++st.cycles;
          detail::residual<T>(a, m, side, b, x, r.view(), scratch, st, opts.trace, &rz);
          detail::norms<T>(r.view(), rnorm.data(), st, comm, opts.trace, opts.exec, opts.shards);
          if (st.cycles == 1 && opts.record_history)
            for (index_t c = 0; c < p; ++c)
              st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
          if (!detail::finite_norms(rnorm.data(), p)) {
            st.status = SolveStatus::NonFiniteResidual;
            break;
          }
          bool conv = true;
          for (index_t c = 0; c < p; ++c) conv &= rnorm[size_t(c)] <= opts.tol * bnorm[size_t(c)];
          if (conv) {
            st.converged = true;
            break;
          }

          const index_t s = cycle.run(a, m, side, r.view(), MatrixView<const T>(), opts.restart,
                                      opts, bnorm, st, comm, rz, ws);
          if (cycle.fatal) {
            st.status = SolveStatus::NonFiniteResidual;
            break;
          }
          if (s == 0) {
            if (cycle.hit_tolerance) continue;
            st.status = SolveStatus::Stagnated;
            break;  // no usable direction was produced
          }
          DenseMatrix<T>& t = ws.mat(kWsUpdate, n, p);
          MatrixView<const T> y;
          {
            obs::ScopedPhase sp(opts.trace, obs::Phase::SmallDense);
            y = cycle.solve(s, t.view(), ws, opts.exec);
          }
          bool null_update = true;
          for (index_t c = 0; c < p && null_update; ++c)
            for (index_t i = 0; i < s && null_update; ++i) null_update = y(i, c) == T(0);
          detail::add_update<T>(m, side, t.view(), x, ztmp.view(), st, opts.trace, &rz);
          if (null_update && !cycle.hit_tolerance && side != PrecondSide::Flexible) {
            // An exactly zero update means the next cycle replays this one
            // from an identical state (the restart is deterministic for a
            // fixed preconditioner): provably wedged, so stop now.
            st.status = SolveStatus::Stagnated;
            break;
          }
        }
        detail::final_residual_check<T>(a, b, x, opts, st, comm);
      });
}

// Restart loop of pseudo-block GMRES: fused lane cycles with no recycled
// space, then each lane's least-squares update.
template <class T>
SolveStats pseudo_block_gmres(const LinearOperator<T>& a, Preconditioner<T>* m,
                              MatrixView<const T> b, MatrixView<T> x, const SolverOptions& opts,
                              CommModel* comm) {
  detail::check_solve_entry<T>(a, m, b, x, opts);
  return detail::run_solver_ws<T>(
      "pseudo_block_gmres", a.n(), b.cols(), opts, [&](SolveStats& st, SolverWorkspace<T>& ws) {
        using Real = real_t<T>;
        const index_t n = a.n(), p = b.cols();
        const PrecondSide side = detail::resolve_side(m, opts.side);
        detail::Resilience<T> rz{opts.recovery, opts.fault};
        std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
        DenseMatrix<T> scratch;
        detail::rhs_norms<T>(m, side, b, bnorm.data(), scratch, st, comm, opts);
        if (!detail::finite_norms(bnorm.data(), p)) {
          st.status = SolveStatus::NonFiniteResidual;
          return;
        }
        st.history.resize(size_t(p));
        st.per_rhs_iterations.assign(size_t(p), 0);
        DenseMatrix<T> r(n, p), ztmp(n, p);
        detail::LaneCycle<T> cycle;
        while (st.iterations < opts.max_iterations) {
          ++st.cycles;
          detail::residual<T>(a, m, side, b, x, r.view(), scratch, st, opts.trace, &rz);
          detail::norms<T>(r.view(), rnorm.data(), st, comm, opts.trace, opts.exec, opts.shards);
          if (st.cycles == 1 && opts.record_history)
            for (index_t c = 0; c < p; ++c)
              st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
          if (!detail::finite_norms(rnorm.data(), p)) {
            st.status = SolveStatus::NonFiniteResidual;
            break;
          }
          bool conv = true;
          for (index_t c = 0; c < p; ++c) conv &= rnorm[size_t(c)] <= opts.tol * bnorm[size_t(c)];
          if (conv) {
            st.converged = true;
            break;
          }

          cycle.run(a, m, side, r.view(), {}, 0, opts.restart, opts, bnorm, rnorm, st, comm, rz);
          if (cycle.fatal) {
            // A poisoned lane would feed NaN into the shared update; stop
            // with the last consistent iterate.
            st.status = SolveStatus::NonFiniteResidual;
            break;
          }
          DenseMatrix<T>& t = ws.mat(kWsUpdate, n, p);
          bool updated = false;
          {
            obs::ScopedPhase sp(opts.trace, obs::Phase::SmallDense);
            for (index_t l = 0; l < p; ++l) updated |= !cycle.solve(l, t.col(l), ws).empty();
          }
          if (!updated) {
            st.status = SolveStatus::Stagnated;  // stagnation everywhere
            break;
          }
          detail::add_update<T>(m, side, t.view(), x, ztmp.view(), st, opts.trace, &rz);
        }
        detail::final_residual_check<T>(a, b, x, opts, st, comm);
      });
}

template SolveStats block_gmres<double>(const LinearOperator<double>&, Preconditioner<double>*,
                                        MatrixView<const double>, MatrixView<double>,
                                        const SolverOptions&, CommModel*);
template SolveStats block_gmres<std::complex<double>>(const LinearOperator<std::complex<double>>&,
                                                      Preconditioner<std::complex<double>>*,
                                                      MatrixView<const std::complex<double>>,
                                                      MatrixView<std::complex<double>>,
                                                      const SolverOptions&, CommModel*);
template SolveStats pseudo_block_gmres<double>(const LinearOperator<double>&,
                                               Preconditioner<double>*, MatrixView<const double>,
                                               MatrixView<double>, const SolverOptions&,
                                               CommModel*);
template SolveStats pseudo_block_gmres<std::complex<double>>(
    const LinearOperator<std::complex<double>>&, Preconditioner<std::complex<double>>*,
    MatrixView<const std::complex<double>>, MatrixView<std::complex<double>>, const SolverOptions&,
    CommModel*);

}  // namespace bkr
