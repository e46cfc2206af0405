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
    using Real = real_t<T>;
    BKR_REQUIRE(r.rows() == n(), "r.rows", r.rows(), "n", n());
    BKR_ASSERT_SHAPE(z, r.rows(), r.cols());
    const index_t p = r.cols();
    z.set_zero();
    // One norm pass serves as the residual scale (a zero column measures
    // absolutely, as in block_gmres) and as the tol = 0 convergence test,
    // which only an all-zero r passes.
    st_.iterations = 0;
    st_.per_rhs_iterations.assign(size_t(p), 0);
    rnorm_.resize(size_t(p));
    detail::norms<T>(r, rnorm_.data(), st_, nullptr);
    if (!detail::finite_norms(rnorm_.data(), p)) return;
    bool zero = true;
    for (Real& nrm : rnorm_) {
      zero &= nrm == Real(0);
      if (nrm == Real(0)) nrm = Real(1);
    }
    if (zero) return;
    const PrecondSide side = detail::resolve_side<T>(inner_, PrecondSide::Right);
    detail::Resilience<T> rz{opts_.recovery, opts_.fault};
    const index_t s = cycle_.run(*a_, inner_, side, r, MatrixView<const T>(), opts_.restart, opts_,
                                 rnorm_, st_, nullptr, rz, ws_);
    if (cycle_.fatal || s == 0) return;
    // The cycle's iterate scratch (w, ztmp; both n x p) is free once run()
    // has returned: w takes the Krylov-space update, ztmp its image under
    // a fixed inner preconditioner.
    cycle_.solve(s, cycle_.w.view(), ws_, nullptr);
    detail::add_update<T>(inner_, side, cycle_.w.view(), z, cycle_.ztmp.view(), st_, nullptr, &rz);
  }

 private:
  const LinearOperator<T>* a_;
  Preconditioner<T>* inner_;
  SolverOptions opts_;
  detail::BlockCycle<T> cycle_;
  SolverWorkspace<T> ws_;
  SolveStats st_;
  std::vector<real_t<T>> rnorm_;
};

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
    z.set_zero();
    (void)cg<T>(*a_, inner_, r, z, opts_);
  }

 private:
  const LinearOperator<T>* a_;
  Preconditioner<T>* inner_;
  SolverOptions opts_;
};

}  // namespace bkr
