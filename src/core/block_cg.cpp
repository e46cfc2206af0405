#include "core/block_cg.hpp"

#include <algorithm>

#include "core/krylov_detail.hpp"
#include "la/factor.hpp"

namespace bkr {

namespace {

// Workspace slot map (mats_ slot kWsProjectScratch is detail::project's).
enum : int { kWsPq = kWsSolverBase, kWsAlpha, kWsBeta, kWsRt, kWsPnext };

template <class T>
void block_cg_body(detail::SolveContext<T>& ctx, const LinearOperator<T>& a,
                   Preconditioner<T>* m, MatrixView<const T> b, MatrixView<T> x) {
  using Real = real_t<T>;
  const SolverOptions& opts = ctx.opts;
  SolveStats& st = ctx.st;
  obs::TraceSink* const trace = ctx.trace;
  const KernelExecutor* const ex = ctx.ex;
  const index_t n = a.n(), p = b.cols();

  std::vector<Real> bnorm(static_cast<size_t>(p)), rnorm(static_cast<size_t>(p));
  detail::rhs_norms<T>(ctx, nullptr, PrecondSide::None, b, bnorm.data());
  st.history.resize(size_t(p));
  st.per_rhs_iterations.assign(size_t(p), 0);

  DenseMatrix<T> r(n, p), z(n, p), pdir(n, p), q(n, p);
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
  auto converged = [&] {
    for (index_t c = 0; c < p; ++c)
      if (rnorm[size_t(c)] > opts.tol * bnorm[size_t(c)]) return false;
    return true;
  };

  precondition(r.view(), z.view());
  copy_into<T>(MatrixView<const T>(z.data(), n, p, z.ld()), pdir.view());
  // rho = Z^H R (p x p); one fused reduction.
  DenseMatrix<T> rho(p, p), rho_new(p, p);
  ctx.reduce({p * p * 8},
             [&] { gemm<T>(Trans::C, Trans::N, T(1), z.view(), r.view(), T(0), rho.view(), ex); });

  // Iterate-loop scratch: workspace slots and persistent factor objects, so
  // the block recursion reaches its steady state with zero heap traffic.
  DenseMatrix<T>& pnext = ctx.ws.mat(kWsPnext, n, p);
  DenseLU<T> lu, lurho;
  // The initial entry is in: room for min(max_iterations, 256) more.
  ctx.reserve_history(p, std::min<index_t>(opts.max_iterations, 256));

  BKR_HOT_LOOP while (!converged() && st.iterations < opts.max_iterations) {
    ctx.poll_cancel();
    {
      obs::ScopedPhase sp(trace, obs::Phase::Spmm);
      a.apply(MatrixView<const T>(pdir.data(), n, p, pdir.ld()), q.view());
      ++st.operator_applies;
      ctx.fault_hook(resilience::FaultSite::OperatorApply, q.view());
    }
    // alpha solves (P^H Q) alpha = rho; fused with the residual norms.
    DenseMatrix<T>& pq = ctx.ws.mat(kWsPq, p, p);
    ctx.reduce({p * p * 8, p * 8}, [&] {
      gemm<T>(Trans::C, Trans::N, T(1), pdir.view(), q.view(), T(0), pq.view(), ex);
    });
    lu.factor(MatrixView<const T>(pq.data(), p, p, pq.ld()));
    if (lu.singular()) {
      // Exact block breakdown (rank-collapsed direction block, e.g. a zero
      // or duplicated RHS column): restart semantics not needed for SPD.
      st.status = SolveStatus::Breakdown;
      break;
    }
    {
      obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
      DenseMatrix<T>& alpha = ctx.ws.mat(kWsAlpha, p, p);
      copy_into<T>(MatrixView<const T>(rho.data(), p, p, rho.ld()), alpha.view());
      lu.solve(alpha.view());
      // X += P alpha; R -= Q alpha.
      gemm<T>(Trans::N, Trans::N, T(1), pdir.view(), alpha.view(), T(1),
              MatrixView<T>(x.data(), n, p, x.ld()), ex);
      gemm<T>(Trans::N, Trans::N, T(-1), q.view(), alpha.view(), T(1), r.view(), ex);
    }
    // Sharded solves take the explicit tree combine here; the block inner
    // products above stay gemm-panelled either way (shard-independent).
    ctx.column_norms(r.view(), rnorm.data());
    ++st.iterations;
    for (index_t c = 0; c < p; ++c) ctx.record(c, rnorm[size_t(c)], bnorm[size_t(c)]);
    ctx.iteration_event(1, p, 0, rnorm.data(), bnorm.data(), p);
    if (!detail::finite_norms(rnorm.data(), p)) {
      st.status = SolveStatus::NonFiniteResidual;
      break;
    }
    if (converged()) break;
    precondition(r.view(), z.view());
    ctx.reduce({p * p * 8}, [&] {
      gemm<T>(Trans::C, Trans::N, T(1), z.view(), r.view(), T(0), rho_new.view(), ex);
    });
    obs::ScopedPhase sp(trace, obs::Phase::SmallDense);
    // beta solves rho^H beta = rho_new (the O'Leary block update).
    DenseMatrix<T>& rt = ctx.ws.mat(kWsRt, p, p);
    for (index_t j = 0; j < p; ++j)
      for (index_t i = 0; i < p; ++i) rt(i, j) = conj(rho(j, i));
    lurho.factor(MatrixView<const T>(rt.data(), p, p, rt.ld()));
    if (lurho.singular()) {
      st.status = SolveStatus::Breakdown;
      break;
    }
    DenseMatrix<T>& beta = ctx.ws.mat(kWsBeta, p, p);
    copy_into<T>(MatrixView<const T>(rho_new.data(), p, p, rho_new.ld()), beta.view());
    lurho.solve(beta.view());
    // P = Z + P beta (swap keeps both direction buffers live for reuse).
    copy_into<T>(MatrixView<const T>(z.data(), n, p, z.ld()), pnext.view());
    gemm<T>(Trans::N, Trans::N, T(1), pdir.view(), beta.view(), T(1), pnext.view(), ex);
    std::swap(pdir, pnext);
    rho = rho_new;
  }
  st.converged = detail::finite_norms(rnorm.data(), p) && converged();
  // Like CG, the block recursion can be lied to by a faulted operator:
  // confirm against b - A x before reporting success.
  detail::final_residual_check<T>(ctx, a, b, x, Real(10), bnorm.data());
}

}  // namespace

template <class T>
SolveStats block_cg(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
                    MatrixView<T> x, const SolverOptions& opts, CommModel* comm) {
  detail::check_solve_entry<T>(a, m, b, x, opts);
  return detail::run_solver<T>("block_cg", a.n(), b.cols(), opts, comm,
                               [&](detail::SolveContext<T>& ctx) {
                                 block_cg_body<T>(ctx, a, m, b, x);
                               });
}

template SolveStats block_cg<double>(const LinearOperator<double>&, Preconditioner<double>*,
                                     MatrixView<const double>, MatrixView<double>,
                                     const SolverOptions&, CommModel*);
template SolveStats block_cg<std::complex<double>>(const LinearOperator<std::complex<double>>&,
                                                   Preconditioner<std::complex<double>>*,
                                                   MatrixView<const std::complex<double>>,
                                                   MatrixView<std::complex<double>>,
                                                   const SolverOptions&, CommModel*);

}  // namespace bkr
