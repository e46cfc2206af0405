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
  const PrecondSide side = detail::resolve_side(m, opts_.side);
  const index_t mdim = opts_.restart;
  const index_t k = std::min(opts_.recycle, mdim - 1);
  if (k <= 0) throw std::invalid_argument("GcroDr: opts.recycle must be in [1, restart)");
  const index_t kp = k * p;
  const bool matrix_changed = (solves_ == 0) || (new_matrix && !opts_.same_system);
  ++solves_;

  return detail::run_solver<T>("gcrodr", n, p, opts_, comm, [&](detail::SolveContext<T>& ctx) {
  SolveStats& st = ctx.st;
  obs::TraceSink* const trace = ctx.trace;
  const KernelExecutor* const ex = ctx.ex;

  std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
  detail::rhs_norms<T>(ctx, m, side, b, bnorm.data());
  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);

  DenseMatrix<T> r(n, p), scratch;
  detail::residual<T>(ctx, a, m, side, b, x, r.view(), scratch);
  ctx.norms(r.view(), rnorm.data());
  ctx.push_history(rnorm.data(), bnorm.data(), p);
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
      detail::apply_recycled_op<T>(ctx, a, m, side, u_.view(), c_.view());
      DenseMatrix<T> rq(u_.cols(), u_.cols());
      // A rank-deficient recycled space only degrades the deflation; the
      // subsequent trsm keeps U consistent with whatever rank survived.
      // No fault hook and no recovery ladder on this block.
      detail::qr_block<T>(ctx, c_.view(), rq.view(), nullptr);  // bkr-lint: allow(unchecked-factor)
      trsm_right_upper<T>(rq.view(), u_.view(), ex);
    }
    // Lines 8-9: X += U C^H R, R -= C C^H R (one fused reduction).
    DenseMatrix<T> y0(u_.cols(), p);
    ctx.reduce({u_.cols() * p * 8}, [&] {
      gemm<T>(Trans::C, Trans::N, T(1), c_.view(), r.view(), T(0), y0.view(), ex);
    });
    DenseMatrix<T>& t = ctx.ws.mat(kWsUpdateT, n, p);
    gemm<T>(Trans::N, Trans::N, T(1), u_.view(), y0.view(), T(0), t.view(), ex);
    detail::add_update<T>(ctx, m, side, t.view(), x, ztmp.view());
    gemm<T>(Trans::N, Trans::N, T(-1), c_.view(), y0.view(), T(1), r.view(), ex);
    ctx.norms(r.view(), rnorm.data());
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
    const index_t s = cycle.run(ctx, a, m, side, r.view(), MatrixView<const T>(), mdim, bnorm);
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
    DenseMatrix<T>& t = ctx.ws.mat(kWsUpdateT, n, p);
    cycle.solve(ctx, s, t.view());
    detail::add_update<T>(ctx, m, side, t.view(), x, ztmp.view());
    {
      // Harmonic Ritz deflation seeds U_k, C_k (lines 16-20).
      obs::ScopedPhase sp(trace, obs::Phase::RestartEig);
      const auto hbar = cycle.hessenberg();
      detail::update_recycled<T>(ctx, u_, c_, hbar, {}, cycle.basis(hbar.rows()),
                                 cycle.update_basis(s), &cycle.qr, nullptr,
                                 [](MatrixView<T>) {}, kp);
    }
    // Recompute the true residual for the EPS test (line 15).
    detail::residual<T>(ctx, a, m, side, b, x, r.view(), scratch);
    ctx.norms(r.view(), rnorm.data());
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
    DenseMatrix<T>& yc = ctx.ws.mat(kWsYc, u_.cols(), p);
    ctx.reduce({u_.cols() * p * 8}, [&] {
      gemm<T>(Trans::C, Trans::N, T(1), c_.view(), r.view(), T(0), yc.view(), ex);
    });

    const index_t s = cycle.run(ctx, a, m, side, r.view(), c_.view(), inner, bnorm);
    if (cycle.fatal) {
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    if (s == 0 && !cycle.hit_tolerance) {
      st.status = SolveStatus::Stagnated;
      break;  // stagnation
    }
    if (s > 0) {
      DenseMatrix<T>& t = ctx.ws.mat(kWsUpdateT, n, p);
      {
        obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
        const MatrixView<const T> ym = cycle.solve(ctx, s, t.view());
        // Y_k = C^H R_{j-1} - E Y_m (line 28); X += basis Y_m + U Y_k.
        gemm<T>(Trans::N, Trans::N, T(-1), cycle.coupling(u_.cols()).cols_view(0, s), ym, T(1),
                yc.view());
        gemm<T>(Trans::N, Trans::N, T(1), u_.view(), yc.view(), T(1), t.view(), ex);
      }
      detail::add_update<T>(ctx, m, side, t.view(), x, ztmp.view());
    }
    detail::residual<T>(ctx, a, m, side, b, x, r.view(), scratch);
    ctx.norms(r.view(), rnorm.data());
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
      // eigenproblem T z = theta W z. The U norms (line 32; one fused
      // reduction) run before the RestartEig scope opens so phase scopes
      // stay non-nested.
      const index_t kcur = u_.cols();
      std::vector<Real> unorm(static_cast<size_t>(kcur));
      ctx.norms(u_.view(), unorm.data());
      obs::ScopedPhase sp_eig(trace, obs::Phase::RestartEig);
      const auto hbar = cycle.hessenberg();
      const auto v = cycle.basis(hbar.rows());
      // [C V]^H U of eq. 3a in two gemms sharing one reduction; count-only,
      // as its time already lands in the enclosing RestartEig.
      auto cvu = [&](MatrixView<T> out) {
        gemm<T>(Trans::C, Trans::N, T(1), c_.view(), u_.view(), T(0),
                out.block(0, 0, kcur, kcur), ex);
        gemm<T>(Trans::C, Trans::N, T(1), v, u_.view(), T(0),
                out.block(kcur, 0, v.cols(), kcur), ex);
        ctx.count_reductions(1, out.rows() * kcur * 8);
      };
      detail::update_recycled<T>(ctx, u_, c_, hbar, cycle.coupling(kcur), v,
                                 cycle.update_basis(s), nullptr, unorm.data(), cvu, kp);
    }
  }
  detail::final_residual_check<T>(ctx, a, b, x);
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
