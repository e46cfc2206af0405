// Krylov-method preconditioners/smoothers.
//
// A handful of GMRES or CG iterations used as a preconditioner is
// *nonlinear*: the operator applied to r depends on r. These wrappers
// report is_variable() == true, which makes the solvers switch to their
// flexible variants automatically — the mechanism the paper exercises
// with "-mg_levels_ksp_type gmres/cg" in section IV.
#pragma once

#include "core/arnoldi.hpp"
#include "core/cg.hpp"
#include "core/operator.hpp"

namespace bkr {

// GMRES(s) as a smoother: exactly one s-step block GMRES cycle from the
// zero initial guess, on the BlockCycle shared with the solvers
// (core/arnoldi.hpp). With x0 = 0 the initial residual is r itself, so an
// apply needs no A*0 product and one norm pass, and the cycle, its
// workspace and the update buffers belong to the smoother: after the
// first apply at a block width, an apply touches the allocator nowhere.
//
// z is bitwise the z of block_gmres with restart = max_iterations = s,
// tol = 0, x0 = 0 and side Right, with one exception: when the cycle ends
// before s steps (an exact breakdown, or the stagnation early restart once
// s exceeds its window), the smoother returns that cycle's update, where
// block_gmres would restart on the rest of its iteration budget.
//
// GMRES(1) on one real column, with no inner preconditioner or a fixed
// one, takes a one-step body that does the cycle's arithmetic in seven
// passes over n-vectors instead of about forty-three (DESIGN.md §11).
// When the new direction's Gram is not finite and positive (breakdown,
// non-finite values, underflow, overflow), the apply is recomputed on the
// cycle, so every edge case keeps the cycle's bits by construction.
template <class T>
class GmresSmoother final : public Preconditioner<T> {
 public:
  GmresSmoother(const LinearOperator<T>& a, index_t iterations,
                Preconditioner<T>* inner = nullptr)
      : a_(&a), inner_(inner) {
    opts_.restart = iterations;
    opts_.max_iterations = iterations;
    opts_.tol = 0.0;  // always run the fixed number of iterations
    opts_.record_history = false;
  }

  [[nodiscard]] index_t n() const override { return a_->n(); }
  [[nodiscard]] bool is_variable() const override { return true; }
  void apply(MatrixView<const T> r, MatrixView<T> z) override {
    BKR_REQUIRE(r.rows() == n(), "r.rows", r.rows(), "n", n());
    BKR_ASSERT_SHAPE(z, r.rows(), r.cols());
    if constexpr (!is_complex_v<T>) {
      if (opts_.restart == 1 && r.cols() == 1 &&
          detail::resolve_side<T>(inner_, PrecondSide::Right) != PrecondSide::Flexible &&
          apply_one_step(r.col(0), z.col(0)))
        return;
    }
    apply_cycle(r, z);
  }

 private:
  void apply_cycle(MatrixView<const T> r, MatrixView<T> z) {
    using Real = real_t<T>;
    const index_t p = r.cols();
    z.set_zero();
    // One norm pass serves as the residual scale (a zero column measures
    // absolutely, as in block_gmres) and as the tol = 0 convergence test,
    // which only an all-zero r passes.
    st_.iterations = 0;
    st_.per_rhs_iterations.assign(size_t(p), 0);
    rnorm_.resize(size_t(p));
    detail::SolveContext<T> ctx(opts_, st_, nullptr, ws_);
    ctx.norms(r, rnorm_.data());
    if (!detail::finite_norms(rnorm_.data(), p)) return;
    bool zero = true;
    for (Real& nrm : rnorm_) {
      zero &= nrm == Real(0);
      if (nrm == Real(0)) nrm = Real(1);
    }
    if (zero) return;
    const PrecondSide side = detail::resolve_side<T>(inner_, PrecondSide::Right);
    const index_t s =
        cycle_.run(ctx, *a_, inner_, side, r, MatrixView<const T>(), opts_.restart, rnorm_);
    if (cycle_.fatal || s == 0) return;
    // The cycle's iterate scratch (w, ztmp; both n x p) is free once run()
    // has returned: w takes the Krylov-space update, ztmp its image under
    // a fixed inner preconditioner.
    cycle_.solve(ctx, s, cycle_.w.view());
    detail::add_update<T>(ctx, inner_, side, cycle_.w.view(), z, cycle_.ztmp.view());
  }

  // One step of the cycle on the column r, written out: every value is
  // formed from the same operands in the same order as run() + solve() +
  // add_update() form it. The buffers are the cycle's own, at the shapes
  // run() gives them. Returns false, with z untouched, when the cycle
  // must decide.
  bool apply_one_step(const T* r, T* z) {
    using Real = real_t<T>;
    const index_t n = a_->n();
    auto finish_zero = [&] {
      std::fill(z, z + n, T(0));
      return true;
    };
    // For real T, the CholQR Gram of v0 = r is the norm's sum of squares
    // (r_i * r_i == |r_i| * |r_i| exactly), so one chain gives ||r|| and
    // r00. The norm test returns z = 0 on a zero or non-finite r.
    const Real r00 = std::sqrt(detail::chunk_sumsq(n, r));
    if (!std::isfinite(static_cast<double>(r00)) || r00 == Real(0)) return finish_zero();
    // Every entry read below is written first, so a buffer is reshaped
    // (zero-filled) only when its shape changes.
    auto shape = [](DenseMatrix<T>& m, index_t rows, index_t cols) {
      if (m.rows() != rows || m.cols() != cols)
        m.resize(rows, cols);  // bkr-lint: allow(hot-path-alloc) capacity-reusing
    };
    detail::BlockCycle<T>& cy = cycle_;
    shape(cy.v, n, 2);
    shape(cy.ghat, 2, 1);
    cy.qr.reshape(2, 1);
    shape(cy.ztmp, n, 1);
    shape(cy.w, n, 1);
    T* const v0 = cy.v.col(0);
    T* const w = cy.w.col(0);
    T* const ztmp = cy.ztmp.col(0);

    // v0 = r R^{-1} (CholQR's right trsm), then w = A M v0.
    const T inv = T(1) / r00;
    for (index_t i = 0; i < n; ++i) v0[i] = mul(r[i], inv);
    const MatrixView<const T> v0v(v0, n, 1, n);
    if (inner_ != nullptr) {
      inner_->apply(v0v, cy.ztmp.view());
      a_->apply(MatrixView<const T>(ztmp, n, 1, n), cy.w.view());
    } else {
      a_->apply(v0v, cy.w.view());
    }

    // CGS2 against v0. Each coefficient is gemm's 0 + 1 * dot, and each
    // update skips a zero coefficient, as gemm does; the second dot and
    // the Gram of the new direction ride in the update passes, summed in
    // chunk_dot's order.
    const T h1 = T(0) + detail::chunk_dot(n, v0, w);
    const T s1 = -h1;
    T d2(0);
    if (s1 == T(0)) {
      d2 = detail::chunk_dot(n, v0, w);
    } else {
      for (index_t i = 0; i < n; ++i) {
        w[i] += mul(v0[i], s1);
        d2 += mul(v0[i], w[i]);
      }
    }
    const T h2 = T(0) + d2;
    const T s2 = -h2;
    T g(0);
    if (s2 == T(0)) {
      g = detail::chunk_dot(n, w, w);
    } else {
      for (index_t i = 0; i < n; ++i) {
        w[i] += mul(v0[i], s2);
        g += mul(w[i], w[i]);
      }
    }
    // The CholQR of w: a finite positive Gram means a finite w and a live
    // r11; anything else is the cycle's to handle (fallback, recovery).
    if (!(g > Real(0)) || !std::isfinite(static_cast<double>(g))) return false;
    const T hcol[2] = {h1 + h2, std::sqrt(g)};

    // The 2 x 1 least squares, as the cycle runs it.
    cy.ghat(0, 0) = r00;
    cy.ghat(1, 0) = T(0);
    cy.qr.add_column(hcol, 2);
    cy.qr.apply_qt_range(cy.ghat.view(), 0);
    if (!std::isfinite(static_cast<double>(norm2<T>(1, &cy.ghat(1, 0))))) return finish_zero();
    if (detail::usable_columns(cy.qr, 1) == 0) return finish_zero();
    const T y = cy.ghat(0, 0) / cy.qr.r(0, 0);

    // z = 0 + M(0 + v0 y): the update gemm (beta = 0, a zero y skipped)
    // into w, the inner apply into ztmp and add_update's axpy onto z = 0.
    // The 0 + turns a -0.0 into +0.0 exactly where those do.
    if (y == T(0)) {
      std::fill(w, w + n, T(0));
    } else {
      for (index_t i = 0; i < n; ++i) w[i] = T(0) + mul(v0[i], y);
    }
    const T* dz = w;
    if (inner_ != nullptr) {
      inner_->apply(MatrixView<const T>(w, n, 1, n), cy.ztmp.view());
      dz = ztmp;
    }
    for (index_t i = 0; i < n; ++i) z[i] = T(0) + dz[i];
    return true;
  }

  const LinearOperator<T>* a_;
  Preconditioner<T>* inner_;
  SolverOptions opts_;
  detail::BlockCycle<T> cycle_;
  SolverWorkspace<T> ws_;
  SolveStats st_;
  std::vector<real_t<T>> rnorm_;
};

// CG(s) as a smoother: s iterations of cg() from the zero initial guess.
// The recurrence runs on the smoother's own stats record and workspace,
// so after the first apply at a block width an apply touches the
// allocator nowhere; z is bitwise the x of cg() with max_iterations = s
// and tol = 0.
template <class T>
class CgSmoother final : public Preconditioner<T> {
 public:
  CgSmoother(const LinearOperator<T>& a, index_t iterations, Preconditioner<T>* inner = nullptr)
      : a_(&a), inner_(inner) {
    opts_.max_iterations = iterations;
    opts_.tol = 0.0;
    opts_.record_history = false;
  }

  [[nodiscard]] index_t n() const override { return a_->n(); }
  [[nodiscard]] bool is_variable() const override { return true; }
  void apply(MatrixView<const T> r, MatrixView<T> z) override {
    BKR_REQUIRE(r.rows() == n(), "r.rows", r.rows(), "n", n());
    BKR_ASSERT_SHAPE(z, r.rows(), r.cols());
    z.set_zero();
    st_.iterations = 0;
    detail::SolveContext<T> ctx(opts_, st_, nullptr, ws_);
    detail::cg_body<T>(ctx, *a_, inner_, r, z);
  }

 private:
  const LinearOperator<T>* a_;
  Preconditioner<T>* inner_;
  SolverOptions opts_;
  SolverWorkspace<T> ws_;
  SolveStats st_;
};

}  // namespace bkr
