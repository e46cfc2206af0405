#include "core/gcrodr.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/arnoldi.hpp"

namespace bkr {

namespace {

// Workspace slot map (mats_ slots kWsProjectScratch and kWsCycleSolution
// belong to detail::project and the Arnoldi cycles).
enum : int { kWsUpdateT = kWsSolverBase, kWsYc };

}  // namespace

template <class T>
SolveStats GcroDr<T>::solve(const LinearOperator<T>& a, Preconditioner<T>* m,
                            MatrixView<const T> b, MatrixView<T> x, CommModel* comm,
                            bool new_matrix) {
  using Real = real_t<T>;
  detail::check_solve_entry<T>(a, m, b, x, opts_);
  const index_t n = a.n(), p = b.cols();
  obs::TraceSink* const trace = opts_.trace;
  const KernelExecutor* const ex = opts_.exec;
  const PrecondSide side = detail::resolve_side(m, opts_.side);
  const index_t mdim = opts_.restart;
  const index_t k = std::min(opts_.recycle, mdim - 1);
  if (k <= 0) throw std::invalid_argument("GcroDr: opts.recycle must be in [1, restart)");
  const index_t kp = k * p;
  const bool matrix_changed = (solves_ == 0) || (new_matrix && !opts_.same_system);
  ++solves_;

  return detail::run_solver_ws<T>("gcrodr", n, p, opts_,
                                  [&](SolveStats& st, SolverWorkspace<T>& ws) {
  detail::Resilience<T> rz{opts_.recovery, opts_.fault};

  std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
  DenseMatrix<T> scratch;
  detail::rhs_norms<T>(m, side, b, bnorm.data(), scratch, st, comm, opts_);
  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);

  DenseMatrix<T> r(n, p);
  detail::residual<T>(a, m, side, b, x, r.view(), scratch, st, trace, &rz);
  detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts_.shards);
  if (opts_.record_history)
    for (index_t c = 0; c < p; ++c)
      st.history[size_t(c)].push_back(rnorm[size_t(c)] / bnorm[size_t(c)]);
  if (!detail::finite_norms(bnorm.data(), p) || !detail::finite_norms(rnorm.data(), p)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }
  auto converged = [&] {
    for (index_t c = 0; c < p; ++c)
      if (rnorm[size_t(c)] > opts_.tol * bnorm[size_t(c)]) return false;
    return true;
  };
  if (converged()) {
    st.converged = true;
    return;
  }

  DenseMatrix<T> ztmp(n, p);
  detail::BlockCycle<T> cycle;

  if (u_.cols() > 0) {
    if (matrix_changed) {
      // Lines 4-6: [Q, R] = distributed_qr(op(U)); C = Q; U = U R^{-1}.
      c_.resize(n, u_.cols());
      detail::apply_recycled_op<T>(a, m, side, u_.view(), c_.view(), st, trace, &rz);
      DenseMatrix<T> rq(u_.cols(), u_.cols());
      // A rank-deficient recycled space only degrades the deflation; the
      // subsequent trsm keeps U consistent with whatever rank survived.
      detail::qr_block<T>(c_.view(), rq.view(), st, comm, trace, ex);  // bkr-lint: allow(unchecked-factor)
      trsm_right_upper<T>(rq.view(), u_.view(), ex);
    }
    // Lines 8-9: X += U C^H R, R -= C C^H R (one fused reduction).
    DenseMatrix<T> y0(u_.cols(), p);
    {
      obs::ScopedPhase sp(trace, obs::Phase::Reduction);
      gemm<T>(Trans::C, Trans::N, T(1), c_.view(), r.view(), T(0), y0.view(), ex);
      st.reductions += 1;
      if (comm != nullptr) comm->reduction(u_.cols() * p * 8);
    }
    DenseMatrix<T>& t = ws.mat(kWsUpdateT, n, p);
    gemm<T>(Trans::N, Trans::N, T(1), u_.view(), y0.view(), T(0), t.view(), ex);
    detail::add_update<T>(m, side, t.view(), x, ztmp.view(), st, trace, &rz);
    gemm<T>(Trans::N, Trans::N, T(-1), c_.view(), y0.view(), T(1), r.view(), ex);
    detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts_.shards);
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      return;
    }
    if (converged()) {
      st.converged = true;
      return;
    }
  } else {
    // First cycle of the sequence: m steps of plain (block) GMRES
    // (fig. 1 lines 11-20).
    ++st.cycles;
    const index_t s =
        cycle.run(a, m, side, r.view(), MatrixView<const T>(), mdim, opts_, bnorm, st, comm, rz, ws);
    if (cycle.fatal) {
      // The least squares over a poisoned Hessenberg would corrupt x;
      // leave the iterate as it was.
      st.status = SolveStatus::NonFiniteResidual;
      return;
    }
    if (s == 0) {
      st.status = SolveStatus::Stagnated;
      return;  // complete stagnation
    }
    DenseMatrix<T>& t = ws.mat(kWsUpdateT, n, p);
    cycle.solve(s, t.view(), ws, ex);
    detail::add_update<T>(m, side, t.view(), x, ztmp.view(), st, trace, &rz);
    {
      // Harmonic Ritz deflation seeds U_k, C_k (lines 16-20).
      obs::ScopedPhase sp(trace, obs::Phase::RestartEig);
      const index_t k_eff = std::min(kp, s);
      const DenseMatrix<T> pk = detail::harmonic_ritz_vectors<T>(
          cycle.qr, cycle.hbar.view(), s, k_eff, opts_.recovery,
          "gcrodr: harmonic Ritz extraction failed", st, trace);
      // [Q, R] = qr(Hbar * Pk); C = V_{m+1} Q; U = basis * Pk * R^{-1}.
      DenseMatrix<T> hp((cycle.steps + 1) * p, k_eff);
      gemm<T>(Trans::N, Trans::N, T(1),
              MatrixView<const T>(cycle.hbar.data(), (cycle.steps + 1) * p, s, cycle.hbar.ld()),
              pk.view(), T(0), hp.view());
      HouseholderQR<T> hq(copy_of(hp));
      const DenseMatrix<T> q = hq.q_thin();
      const DenseMatrix<T> rq = hq.r();
      c_.resize(n, k_eff);
      gemm<T>(Trans::N, Trans::N, T(1), cycle.basis((cycle.steps + 1) * p), q.view(), T(0),
              c_.view(), ex);
      u_.resize(n, k_eff);
      gemm<T>(Trans::N, Trans::N, T(1), cycle.update_basis(s), pk.view(), T(0), u_.view(), ex);
      trsm_right_upper<T>(rq.view(), u_.view(), ex);
    }
    // Recompute the true residual for the EPS test (line 15).
    detail::residual<T>(a, m, side, b, x, r.view(), scratch, st, trace, &rz);
    detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts_.shards);
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      return;
    }
    if (converged()) {
      st.converged = true;
      return;
    }
  }

  // Outer loop (fig. 1 lines 22-39): cycles of m - k projected steps.
  const index_t inner = mdim - k;
  while (st.iterations < opts_.max_iterations) {
    ++st.cycles;
    // C^H R_{j-1} for the solution update (line 28; one reduction — this
    // is "the update of the least squares problem" of section III-D).
    DenseMatrix<T>& yc = ws.mat(kWsYc, u_.cols(), p);
    {
      obs::ScopedPhase sp(trace, obs::Phase::Reduction);
      gemm<T>(Trans::C, Trans::N, T(1), c_.view(), r.view(), T(0), yc.view(), ex);
      st.reductions += 1;
      if (comm != nullptr) comm->reduction(u_.cols() * p * 8);
    }

    const index_t s =
        cycle.run(a, m, side, r.view(), c_.view(), inner, opts_, bnorm, st, comm, rz, ws);
    if (cycle.fatal) {
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    if (s == 0 && !cycle.hit_tolerance) {
      st.status = SolveStatus::Stagnated;
      break;  // stagnation
    }
    if (s > 0) {
      DenseMatrix<T>& t = ws.mat(kWsUpdateT, n, p);
      {
        obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
        const MatrixView<const T> ym = cycle.solve(s, t.view(), ws, ex);
        // Y_k = C^H R_{j-1} - E Y_m (line 28); X += basis Y_m + U Y_k.
        gemm<T>(Trans::N, Trans::N, T(-1),
                MatrixView<const T>(cycle.e.data(), u_.cols(), s, cycle.e.ld()), ym, T(1),
                yc.view());
        gemm<T>(Trans::N, Trans::N, T(1), u_.view(), yc.view(), T(1), t.view(), ex);
      }
      detail::add_update<T>(m, side, t.view(), x, ztmp.view(), st, trace, &rz);
    }
    detail::residual<T>(a, m, side, b, x, r.view(), scratch, st, trace, &rz);
    detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts_.shards);
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    if (converged()) {
      st.converged = true;
      break;
    }
    if (s == 0) {
      st.status = SolveStatus::Stagnated;
      break;
    }

    if (matrix_changed) {
      // Lines 31-38: refresh the recycled space through the generalized
      // eigenproblem T z = theta W z.
      const index_t kcur = u_.cols();
      const index_t vcols = (cycle.steps + 1) * p;  // columns of the V basis
      const index_t rows = kcur + vcols;
      const index_t cols = kcur + s;
      // Scale U columns to unit norm (line 32; one fused reduction).
      // The norms run before the RestartEig scope opens so phase scopes
      // stay non-nested.
      std::vector<Real> unorm(static_cast<size_t>(kcur));
      detail::norms<T>(u_.view(), unorm.data(), st, comm, trace, ex, opts_.shards);
      obs::ScopedPhase sp_eig(trace, obs::Phase::RestartEig);
      for (index_t c = 0; c < kcur; ++c) {
        const T inv = scalar_traits<T>::from_real(Real(1) / std::max(unorm[size_t(c)], Real(1e-300)));
        scal<T>(n, inv, u_.col(c));
      }
      // G = [[D_k, E], [0, Hbar]] with D_k = diag(1/||u_c||) so that
      // op([U_s, basis]) = [C, V] G.
      DenseMatrix<T> g(rows, cols);
      for (index_t c = 0; c < kcur; ++c)
        g(c, c) = scalar_traits<T>::from_real(Real(1) / std::max(unorm[size_t(c)], Real(1e-300)));
      for (index_t j = 0; j < s; ++j) {
        for (index_t i = 0; i < kcur; ++i) g(i, kcur + j) = cycle.e(i, j);
        for (index_t i = 0; i < vcols; ++i) g(kcur + i, kcur + j) = cycle.hbar(i, j);
      }
      DenseMatrix<T> tmat(cols, cols);
      gemm<T>(Trans::C, Trans::N, T(1), g.view(), g.view(), T(0), tmat.view());
      DenseMatrix<T> wmat(cols, cols);
      if (opts_.strategy == RecycleStrategy::B) {
        // Eq. 3b: W = G^H [I; 0] — the first `cols` rows of G, conjugated.
        for (index_t j = 0; j < cols; ++j)
          for (index_t i = 0; i < cols; ++i) wmat(i, j) = conj(g(j, i));
      } else {
        // Eq. 3a: W = G^H [[C^H U, 0], [V^H U, I]]; the [C V]^H U block
        // costs one extra global reduction.
        DenseMatrix<T> inner_mat(rows, cols);
        DenseMatrix<T> cu(rows, kcur);
        // [C V]^H U in two gemms sharing one reduction.
        gemm<T>(Trans::C, Trans::N, T(1), c_.view(), u_.view(), T(0),
                cu.block(0, 0, kcur, kcur), ex);
        gemm<T>(Trans::C, Trans::N, T(1), cycle.basis(vcols), u_.view(), T(0),
                cu.block(kcur, 0, vcols, kcur), ex);
        st.reductions += 1;
        if (comm != nullptr) comm->reduction(rows * kcur * 8);
        // Count-only: the time already lands in the enclosing RestartEig.
        if (trace != nullptr) trace->phase(obs::Phase::Reduction, 0.0, 1);
        copy_into<T>(MatrixView<const T>(cu.data(), rows, kcur, cu.ld()),
                     inner_mat.block(0, 0, rows, kcur));
        for (index_t j = 0; j < s; ++j) inner_mat(kcur + j, kcur + j) = T(1);
        gemm<T>(Trans::C, Trans::N, T(1), g.view(), inner_mat.view(), T(0), wmat.view());
      }
      const DenseMatrix<T> pk = detail::deflation_vectors<T>(
          tmat, wmat, std::min(kp, cols), opts_.recovery,
          "gcrodr: deflation pencil eigensolve failed", st, trace);
      const index_t knew = pk.cols();
      // [Q, R] = qr(G Pk); C = [C V] Q; U = [U basis] Pk R^{-1}.
      DenseMatrix<T> gp(rows, knew);
      gemm<T>(Trans::N, Trans::N, T(1), g.view(), pk.view(), T(0), gp.view());
      HouseholderQR<T> hq(copy_of(gp));
      const DenseMatrix<T> q = hq.q_thin();
      const DenseMatrix<T> rq = hq.r();
      DenseMatrix<T> cnew(n, knew);
      DenseMatrix<T> cv(n, rows);
      copy_into<T>(c_.view(), cv.block(0, 0, n, kcur));
      copy_into<T>(cycle.basis(vcols), cv.block(0, kcur, n, vcols));
      gemm<T>(Trans::N, Trans::N, T(1), cv.view(), q.view(), T(0), cnew.view(), ex);
      DenseMatrix<T> ub(n, cols);
      copy_into<T>(u_.view(), ub.block(0, 0, n, kcur));
      copy_into<T>(cycle.update_basis(s), ub.block(0, kcur, n, s));
      DenseMatrix<T> unew(n, knew);
      gemm<T>(Trans::N, Trans::N, T(1), ub.view(), pk.view(), T(0), unew.view(), ex);
      trsm_right_upper<T>(rq.view(), unew.view(), ex);
      c_ = std::move(cnew);
      u_ = std::move(unew);
    }
  }
  detail::final_residual_check<T>(a, b, x, opts_, st, comm);
  });
}

template <class T>
void GcroDr<T>::install_recycled(DenseMatrix<T> u, DenseMatrix<T> c) {
  BKR_REQUIRE(u.rows() > 0 && u.cols() > 0 && u.rows() == c.rows() && u.cols() == c.cols(),
              "u.rows", u.rows(), "u.cols", u.cols(), "c.rows", c.rows(), "c.cols", c.cols());
  u_ = std::move(u);
  c_ = std::move(c);
  // solves_ stays untouched: the first solve still sees matrix_changed and
  // requalifies the seeded space through the distributed QR.
}

template class GcroDr<double>;
template class GcroDr<std::complex<double>>;

}  // namespace bkr
