// Pseudo-block GCRO-DR: p independent single-vector GCRO-DR instances
// advanced in lockstep with fused kernels (one SpMM / one batched
// reduction per global step), each lane owning its own k-column recycled
// subspace. This is the method of the paper's fig. 8 alternatives 5-6.
#include <algorithm>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/arnoldi.hpp"
#include "core/gcrodr.hpp"

namespace bkr {

namespace {

// Workspace slot map (mats_ slots kWsProjectScratch and kWsCycleSolution
// belong to detail::project and the Arnoldi cycles).
enum : int { kWsUpdateT = kWsSolverBase };  // mats_

// Refresh (or seed) lane l's recycled space (u, c) from the cycle data.
// `with_projection` distinguishes the first cycle (harmonic Ritz of the
// plain Hessenberg) from later cycles (generalized pencil with the
// coupling block E and the scaled U).
template <class T>
BKR_COLD void refresh_lane_recycle(DenseMatrix<T>& u, DenseMatrix<T>& c,
                                   const detail::LaneCycle<T>& cycle, index_t l, index_t k,
                                   index_t s, RecycleStrategy strategy, bool with_projection,
                                   const KernelExecutor* ex, const RecoveryPolicy& policy,
                                   SolveStats& st, obs::TraceSink* trace) {
  using Real = real_t<T>;
  if (s <= 0) return;
  const index_t n = cycle.v.rows();
  const auto hbar = cycle.hessenberg(l);
  const index_t vcols = hbar.rows();
  const index_t kcur = with_projection ? u.cols() : 0;
  const index_t rows = kcur + vcols;
  const index_t cols = kcur + s;
  // G = [[D_k, E], [0, Hbar]] (first cycle: G = Hbar).
  DenseMatrix<T> g(rows, cols);
  if (with_projection) {
    const auto e = cycle.coupling(l, kcur);
    for (index_t cc = 0; cc < kcur; ++cc) {
      const Real un = std::max(norm2<T>(n, u.col(cc), ex), Real(1e-300));
      scal<T>(n, scalar_traits<T>::from_real(Real(1) / un), u.col(cc));
      g(cc, cc) = scalar_traits<T>::from_real(Real(1) / un);
    }
    for (index_t j = 0; j < s; ++j) {
      for (index_t i = 0; i < kcur; ++i) g(i, kcur + j) = e(i, j);
      for (index_t i = 0; i < vcols; ++i) g(kcur + i, kcur + j) = hbar(i, j);
    }
  } else {
    for (index_t j = 0; j < s; ++j)
      for (index_t i = 0; i < vcols; ++i) g(i, j) = hbar(i, j);
  }
  DenseMatrix<T> pk;
  const index_t knew = std::min(k, cols);
  if (!with_projection) {
    pk = detail::harmonic_ritz_vectors<T>(cycle.qr[size_t(l)], hbar, s, knew, policy,
                                          "pseudo_gcrodr: harmonic Ritz extraction failed", st,
                                          trace);
  } else {
    DenseMatrix<T> tmat(cols, cols);
    gemm<T>(Trans::C, Trans::N, T(1), g.view(), g.view(), T(0), tmat.view());
    DenseMatrix<T> wmat(cols, cols);
    if (strategy == RecycleStrategy::B) {
      for (index_t j = 0; j < cols; ++j)
        for (index_t i = 0; i < cols; ++i) wmat(i, j) = conj(g(j, i));
    } else {
      DenseMatrix<T> inner_mat(rows, cols);
      // [C V]^H U (k columns).
      const auto v = cycle.basis(l, vcols);
      for (index_t cc = 0; cc < kcur; ++cc) {
        for (index_t i = 0; i < kcur; ++i) inner_mat(i, cc) = dot<T>(n, c.col(i), u.col(cc), ex);
        for (index_t i = 0; i < vcols; ++i)
          inner_mat(kcur + i, cc) = dot<T>(n, v.col(i), u.col(cc), ex);
      }
      for (index_t j = 0; j < s; ++j) inner_mat(kcur + j, kcur + j) = T(1);
      gemm<T>(Trans::C, Trans::N, T(1), g.view(), inner_mat.view(), T(0), wmat.view());
    }
    pk = detail::deflation_vectors<T>(tmat, wmat, knew, policy,
                                      "pseudo_gcrodr: deflation pencil eigensolve failed", st,
                                      trace);
  }
  // [Q, R] = qr(G Pk); C = [C V] Q; U = [U basis] Pk R^{-1}.
  DenseMatrix<T> gp(rows, knew);
  gemm<T>(Trans::N, Trans::N, T(1), g.view(), pk.view(), T(0), gp.view());
  HouseholderQR<T> hq(copy_of(gp));
  const DenseMatrix<T> q = hq.q_thin();
  const DenseMatrix<T> rq = hq.r();
  DenseMatrix<T> cv(n, rows);
  if (kcur > 0) copy_into<T>(c.view(), cv.block(0, 0, n, kcur));
  copy_into<T>(cycle.basis(l, vcols), cv.block(0, kcur, n, vcols));
  DenseMatrix<T> cnew(n, knew);
  gemm<T>(Trans::N, Trans::N, T(1), cv.view(), q.view(), T(0), cnew.view(), ex);
  DenseMatrix<T> ub(n, cols);
  if (kcur > 0) copy_into<T>(u.view(), ub.block(0, 0, n, kcur));
  copy_into<T>(cycle.update_basis(l, s), ub.block(0, kcur, n, s));
  DenseMatrix<T> unew(n, knew);
  gemm<T>(Trans::N, Trans::N, T(1), ub.view(), pk.view(), T(0), unew.view(), ex);
  trsm_right_upper<T>(rq.view(), unew.view(), ex);
  c = std::move(cnew);
  u = std::move(unew);
}

}  // namespace

template <class T>
SolveStats PseudoGcroDr<T>::solve(const LinearOperator<T>& a, Preconditioner<T>* m,
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
  if (k <= 0) throw std::invalid_argument("PseudoGcroDr: opts.recycle must be in [1, restart)");
  const bool matrix_changed = (solves_ == 0) || (new_matrix && !opts_.same_system);
  const bool had_recycle = u_.cols() > 0 && lanes_ == p;
  ++solves_;

  return detail::run_solver_ws<T>("pseudo_gcrodr", n, p, opts_,
                                  [&](SolveStats& st, SolverWorkspace<T>& ws) {
  detail::Resilience<T> rz{opts_.recovery, opts_.fault};

  // Per-lane recycled spaces (lane l's n x k_l pair). The persisted space
  // can be narrower than k: it is stored at the width of the narrowest
  // lane, and a lane that converged in fewer than k first-cycle steps
  // seeded fewer columns.
  const index_t kin = had_recycle ? std::min(k, u_.cols() / p) : 0;
  std::vector<DenseMatrix<T>> us(static_cast<size_t>(p)), cs(static_cast<size_t>(p));
  if (had_recycle) {
    for (index_t l = 0; l < p; ++l) {
      us[size_t(l)].resize(n, kin);
      cs[size_t(l)].resize(n, kin);
      for (index_t i = 0; i < kin; ++i) {
        std::copy(u_.col(i * p + l), u_.col(i * p + l) + n, us[size_t(l)].col(i));
        std::copy(c_.col(i * p + l), c_.col(i * p + l) + n, cs[size_t(l)].col(i));
      }
    }
  }

  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);
  DenseMatrix<T> scratch;
  std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
  detail::rhs_norms<T>(m, side, b, bnorm.data(), scratch, st, comm, opts_);

  DenseMatrix<T> r(n, p), ztmp(n, p);
  detail::residual<T>(a, m, side, b, x, r.view(), scratch, st, trace, &rz);
  detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts_.shards);
  // Convergence is only ever decided on true residual norms; the cycle
  // overwrites rnorm with its estimates.
  std::vector<char> converged(static_cast<size_t>(p));
  auto update_converged = [&] {
    for (index_t l = 0; l < p; ++l)
      converged[size_t(l)] = rnorm[size_t(l)] <= opts_.tol * bnorm[size_t(l)];
  };
  update_converged();
  if (opts_.record_history)
    for (index_t l = 0; l < p; ++l)
      st.history[size_t(l)].push_back(rnorm[size_t(l)] / bnorm[size_t(l)]);
  if (!detail::finite_norms(bnorm.data(), p) || !detail::finite_norms(rnorm.data(), p)) {
    st.status = SolveStatus::NonFiniteResidual;
    return;
  }
  auto all_converged = [&] {
    return std::all_of(converged.begin(), converged.end(), [](char c) { return c != 0; });
  };

  // Batched op([every lane's U]) for the re-orthonormalization and the
  // X += U C^H r correction (fig. 1 lines 3-9, per lane, fused).
  if (had_recycle) {
    if (matrix_changed) {
      DenseMatrix<T> uall(n, kin * p), wall(n, kin * p);
      for (index_t l = 0; l < p; ++l)
        copy_into<T>(us[size_t(l)].view(), uall.block(0, l * kin, n, kin));
      detail::apply_recycled_op<T>(a, m, side, uall.view(), wall.view(), st, trace, &rz);
      // Per-lane CholQR of its columns (one fused reduction).
      obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
      detail::count_reductions(st, comm, trace, 1, p * kin * kin * 8);
      for (index_t l = 0; l < p; ++l) {
        auto wl = wall.block(0, l * kin, n, kin);
        DenseMatrix<T> rq(kin, kin);
        if (!cholqr<T>(wl, rq.view(), ex)) householder_tsqr<T>(wl, rq.view());
        copy_into<T>(MatrixView<const T>(wl.data(), n, kin, wl.ld()), cs[size_t(l)].view());
        trsm_right_upper<T>(rq.view(), us[size_t(l)].view(), ex);
      }
    }
    // X += U C^H r; r -= C C^H r (fused dots: one reduction).
    DenseMatrix<T> t(n, p);
    {
      obs::ScopedPhase sp(trace, obs::Phase::Reduction);
      st.reductions += 1;
      if (comm != nullptr) comm->reduction(p * kin * 8);
      std::vector<T> y0(static_cast<size_t>(kin));
      for (index_t l = 0; l < p; ++l) {
        if (converged[size_t(l)]) continue;
        for (index_t i = 0; i < kin; ++i)
          y0[size_t(i)] = dot<T>(n, cs[size_t(l)].col(i), r.col(l), ex);
        for (index_t i = 0; i < kin; ++i) {
          axpy<T>(n, y0[size_t(i)], us[size_t(l)].col(i), t.col(l));
          axpy<T>(n, -y0[size_t(i)], cs[size_t(l)].col(i), r.col(l));
        }
      }
    }
    detail::add_update<T>(m, side, t.view(), x, ztmp.view(), st, trace, &rz);
    // The projection changed the residual: refresh norms and flags.
    detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts_.shards);
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      return;
    }
    update_converged();
  }

  // Main loop. The first pass of a fresh sequence runs m unprojected
  // steps (and seeds the recycled spaces); every later pass runs m - k
  // projected steps.
  detail::LaneCycle<T> cycle;
  DenseMatrix<T> yc(k, p);  // lane l's C^H r at cycle start in column l
  std::vector<T> yk(static_cast<size_t>(k));
  bool first_cycle = !had_recycle;
  while (!all_converged() && st.iterations < opts_.max_iterations) {
    ++st.cycles;
    {
      // C^H r, fused with the residual QR (whose norms are known from
      // the last batched residual evaluation): one reduction.
      obs::ScopedPhase sp(trace, obs::Phase::Reduction);
      if (!first_cycle)
        for (index_t l = 0; l < p; ++l) {
          if (converged[size_t(l)]) continue;
          for (index_t i = 0; i < cs[size_t(l)].cols(); ++i)
            yc(i, l) = dot<T>(n, cs[size_t(l)].col(i), r.col(l), ex);
        }
      st.reductions += 1;
      if (comm != nullptr) comm->reduction(p * 8);
    }
    cycle.run(a, m, side, r.view(),
              first_cycle ? std::span<const DenseMatrix<T>>() : std::span<const DenseMatrix<T>>(cs),
              k, first_cycle ? mdim : mdim - k, opts_, bnorm, rnorm, st, comm, rz);
    if (cycle.fatal) {
      // A poisoned lane would corrupt the shared update and the recycle
      // refresh: stop with the last consistent iterate and recycle data.
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }

    // Per-lane least squares and solution update.
    DenseMatrix<T>& t = ws.mat(kWsUpdateT, n, p);
    bool progress = false;
    {
      obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
      for (index_t l = 0; l < p; ++l) {
        const std::span<const T> y = cycle.solve(l, t.col(l), ws);
        if (y.empty()) continue;
        progress = true;
        if (first_cycle) continue;
        // Y_k = C^H r - E y (fig. 1 line 28); U lives in solution space
        // under flexible preconditioning.
        const DenseMatrix<T>& ul = us[size_t(l)];
        const auto e = cycle.coupling(l, ul.cols());
        for (index_t i = 0; i < ul.cols(); ++i) {
          yk[size_t(i)] = yc(i, l);
          for (index_t cc = 0; cc < index_t(y.size()); ++cc)
            yk[size_t(i)] -= mul(e(i, cc), y[size_t(cc)]);
        }
        T* target = (side == PrecondSide::Flexible) ? x.col(l) : t.col(l);
        for (index_t i = 0; i < ul.cols(); ++i) axpy<T>(n, yk[size_t(i)], ul.col(i), target);
      }
    }
    if (!progress) {
      if (st.iterations < opts_.max_iterations) st.status = SolveStatus::Stagnated;
      break;
    }
    detail::add_update<T>(m, side, t.view(), x, ztmp.view(), st, trace, &rz);
    detail::residual<T>(a, m, side, b, x, r.view(), scratch, st, trace, &rz);
    detail::norms<T>(r.view(), rnorm.data(), st, comm, trace, ex, opts_.shards);
    if (!detail::finite_norms(rnorm.data(), p)) {
      // Break before refreshing the recycled spaces so they keep the last
      // consistent state.
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    update_converged();
    // Refresh the recycled spaces (first cycle always seeds them; later
    // cycles only when the matrix changes — section III-B).
    if (first_cycle || matrix_changed) {
      obs::ScopedPhase sp(trace, obs::Phase::RestartEig);
      // Fused ||u_i|| scaling norms.
      if (!first_cycle) detail::count_reductions(st, comm, trace, 1, p * k * 8);
      for (index_t l = 0; l < p; ++l) {
        if (cycle.steps[size_t(l)] == 0) continue;
        const index_t s = detail::usable_columns(cycle.qr[size_t(l)], cycle.steps[size_t(l)]);
        refresh_lane_recycle<T>(us[size_t(l)], cs[size_t(l)], cycle, l, k, s, opts_.strategy,
                                !first_cycle, ex, opts_.recovery, st, trace);
      }
      // [C V]^H U of eq. 3a (fused over lanes).
      if (opts_.strategy == RecycleStrategy::A && !first_cycle)
        detail::count_reductions(st, comm, trace, 1, p * k * 8);
    }
    first_cycle = false;
  }

  // Persist the recycled spaces (interleaved storage).
  index_t kmin = k;
  for (const auto& ul : us) kmin = std::min(kmin, ul.cols());
  if (kmin > 0) {
    lanes_ = p;
    u_.resize(n, kmin * p);
    c_.resize(n, kmin * p);
    for (index_t l = 0; l < p; ++l)
      for (index_t i = 0; i < kmin; ++i) {
        std::copy(us[size_t(l)].col(i), us[size_t(l)].col(i) + n, u_.col(i * p + l));
        std::copy(cs[size_t(l)].col(i), cs[size_t(l)].col(i) + n, c_.col(i * p + l));
      }
  }
  st.converged = all_converged();
  detail::final_residual_check<T>(a, b, x, opts_, st, comm);
  });
}

template <class T>
void PseudoGcroDr<T>::install_recycled(DenseMatrix<T> u, DenseMatrix<T> c, index_t lanes) {
  BKR_REQUIRE(u.rows() > 0 && u.cols() > 0 && u.rows() == c.rows() && u.cols() == c.cols(),
              "u.rows", u.rows(), "u.cols", u.cols(), "c.rows", c.rows(), "c.cols", c.cols());
  BKR_REQUIRE(lanes > 0 && u.cols() % lanes == 0, "lanes", lanes, "u.cols", u.cols());
  u_ = std::move(u);
  c_ = std::move(c);
  lanes_ = lanes;
  // solves_ stays untouched; a first solve whose RHS count matches `lanes`
  // requalifies the space (matrix_changed path), any other count ignores it.
}

template class PseudoGcroDr<double>;
template class PseudoGcroDr<std::complex<double>>;

}  // namespace bkr
