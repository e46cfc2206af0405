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

}  // namespace

template <class T>
SolveStats PseudoGcroDr<T>::solve(const LinearOperator<T>& a, Preconditioner<T>* m,
                                  MatrixView<const T> b, MatrixView<T> x, CommModel* comm,
                                  bool new_matrix) {
  using Real = real_t<T>;
  detail::check_solve_entry<T>(a, m, b, x, opts_);
  const index_t n = a.n(), p = b.cols();
  const PrecondSide side = detail::resolve_side(m, opts_.side);
  const index_t mdim = opts_.restart;
  const index_t k = std::min(opts_.recycle, mdim - 1);
  if (k <= 0) throw std::invalid_argument("PseudoGcroDr: opts.recycle must be in [1, restart)");
  const bool matrix_changed = (solves_ == 0) || (new_matrix && !opts_.same_system);
  const bool had_recycle = u_.cols() > 0 && lanes_ == p;
  ++solves_;

  return detail::run_solver<T>("pseudo_gcrodr", n, p, opts_, comm,
                               [&](detail::SolveContext<T>& ctx) {
  SolveStats& st = ctx.st;
  obs::TraceSink* const trace = ctx.trace;
  const KernelExecutor* const ex = ctx.ex;

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
  std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
  detail::rhs_norms<T>(ctx, m, side, b, bnorm.data());

  DenseMatrix<T> r(n, p), ztmp(n, p), scratch;
  detail::residual<T>(ctx, a, m, side, b, x, r.view(), scratch);
  ctx.norms(r.view(), rnorm.data());
  // Convergence is only ever decided on true residual norms; the cycle
  // overwrites rnorm with its estimates.
  std::vector<char> converged(static_cast<size_t>(p));
  auto update_converged = [&] {
    for (index_t l = 0; l < p; ++l)
      converged[size_t(l)] = rnorm[size_t(l)] <= opts_.tol * bnorm[size_t(l)];
  };
  update_converged();
  ctx.push_history(rnorm.data(), bnorm.data(), p);
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
      detail::apply_recycled_op<T>(ctx, a, m, side, uall.view(), wall.view());
      // Per-lane CholQR of its columns (one fused reduction).
      obs::ScopedPhase sp(trace, obs::Phase::OrthoNormalization);
      ctx.count_reductions(1, p * kin * kin * 8);
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
    ctx.reduce({p * kin * 8}, [&] {
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
    });
    detail::add_update<T>(ctx, m, side, t.view(), x, ztmp.view());
    // The projection changed the residual: refresh norms and flags.
    ctx.norms(r.view(), rnorm.data());
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
  std::vector<Real> unorm(static_cast<size_t>(k));
  bool first_cycle = !had_recycle;
  while (!all_converged() && st.iterations < opts_.max_iterations) {
    ++st.cycles;
    // C^H r, fused with the residual QR (whose norms are known from the
    // last batched residual evaluation): one reduction.
    ctx.reduce({p * 8}, [&] {
      if (!first_cycle)
        for (index_t l = 0; l < p; ++l) {
          if (converged[size_t(l)]) continue;
          for (index_t i = 0; i < cs[size_t(l)].cols(); ++i)
            yc(i, l) = dot<T>(n, cs[size_t(l)].col(i), r.col(l), ex);
        }
    });
    cycle.run(ctx, a, m, side, r.view(),
              first_cycle ? std::span<const DenseMatrix<T>>() : std::span<const DenseMatrix<T>>(cs),
              k, first_cycle ? mdim : mdim - k, bnorm, rnorm);
    if (cycle.fatal) {
      // A poisoned lane would corrupt the shared update and the recycle
      // refresh: stop with the last consistent iterate and recycle data.
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }

    // Per-lane least squares and solution update.
    DenseMatrix<T>& t = ctx.ws.mat(kWsUpdateT, n, p);
    bool progress = false;
    {
      obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
      for (index_t l = 0; l < p; ++l) {
        const std::span<const T> y = cycle.solve(ctx, l, t.col(l));
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
    detail::add_update<T>(ctx, m, side, t.view(), x, ztmp.view());
    detail::residual<T>(ctx, a, m, side, b, x, r.view(), scratch);
    ctx.norms(r.view(), rnorm.data());
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
      if (!first_cycle) ctx.count_reductions(1, p * k * 8);
      for (index_t l = 0; l < p; ++l) {
        const index_t s = detail::usable_columns(cycle.qr[size_t(l)], cycle.steps[size_t(l)]);
        if (s == 0) continue;
        DenseMatrix<T>& ul = us[size_t(l)];
        DenseMatrix<T>& cl = cs[size_t(l)];
        const index_t kcur = first_cycle ? 0 : ul.cols();
        for (index_t i = 0; i < kcur; ++i) unorm[size_t(i)] = norm2<T>(n, ul.col(i), ex);
        const auto hbar = cycle.hessenberg(l);
        const auto v = cycle.basis(l, hbar.rows());
        // [C V]^H U of eq. 3a, one dot per entry.
        auto cvu = [&](MatrixView<T> out) {
          for (index_t cc = 0; cc < kcur; ++cc) {
            for (index_t i = 0; i < kcur; ++i) out(i, cc) = dot<T>(n, cl.col(i), ul.col(cc), ex);
            for (index_t i = 0; i < v.cols(); ++i)
              out(kcur + i, cc) = dot<T>(n, v.col(i), ul.col(cc), ex);
          }
        };
        detail::update_recycled<T>(ctx, ul, cl, hbar, cycle.coupling(l, kcur), v,
                                   cycle.update_basis(l, s),
                                   first_cycle ? &cycle.qr[size_t(l)] : nullptr, unorm.data(),
                                   cvu, k);
      }
      // [C V]^H U of eq. 3a (fused over lanes).
      if (opts_.strategy == RecycleStrategy::A && !first_cycle) ctx.count_reductions(1, p * k * 8);
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
  detail::final_residual_check<T>(ctx, a, b, x);
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
