// Preconditioned Conjugate Gradient.
//
// Used two ways: as a solver for SPD systems and — with a fixed, small
// iteration count — as the *nonlinear* multigrid smoother of the paper's
// section IV-C ("-mg_levels_ksp_type cg -mg_levels_ksp_max_it 4"), which
// is what forces the flexible variants FGMRES / FGCRO-DR. A block of p
// RHS runs p independent recurrences with fused kernels (batched SpMM and
// one reduction per dot-product family).
#pragma once

#include "core/operator.hpp"
#include "core/solver.hpp"

namespace bkr {

template <class T>
SolveStats cg(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
              MatrixView<T> x, const SolverOptions& opts, CommModel* comm = nullptr);

template <class T>
SolveStats cg(const LinearOperator<T>& a, Preconditioner<T>* m, const std::vector<T>& b,
              std::vector<T>& x, const SolverOptions& opts, CommModel* comm = nullptr) {
  const index_t n = a.n();
  return cg<T>(a, m, MatrixView<const T>(b.data(), n, 1, n), MatrixView<T>(x.data(), n, 1, n),
               opts, comm);
}

namespace detail {

template <class T>
struct SolveContext;  // core/krylov_detail.hpp

// The CG recurrence behind cg(), without the entry checks and the stats
// record run_solver makes fresh: the CG smoother calls it with a context
// over its own stats and workspace, so a steady-state apply touches the
// allocator nowhere. Every block (r, z, q, d, rho and the norm arrays)
// comes from ctx.ws. The caller resets ctx.st.iterations, the loop's
// counter.
template <class T>
void cg_body(SolveContext<T>& ctx, const LinearOperator<T>& a, Preconditioner<T>* m,
             MatrixView<const T> b, MatrixView<T> x);

extern template void cg_body<double>(SolveContext<double>&, const LinearOperator<double>&,
                                     Preconditioner<double>*, MatrixView<const double>,
                                     MatrixView<double>);
extern template void cg_body<std::complex<double>>(SolveContext<std::complex<double>>&,
                                                   const LinearOperator<std::complex<double>>&,
                                                   Preconditioner<std::complex<double>>*,
                                                   MatrixView<const std::complex<double>>,
                                                   MatrixView<std::complex<double>>);

}  // namespace detail

extern template SolveStats cg<double>(const LinearOperator<double>&, Preconditioner<double>*,
                                      MatrixView<const double>, MatrixView<double>,
                                      const SolverOptions&, CommModel*);
extern template SolveStats cg<std::complex<double>>(const LinearOperator<std::complex<double>>&,
                                                    Preconditioner<std::complex<double>>*,
                                                    MatrixView<const std::complex<double>>,
                                                    MatrixView<std::complex<double>>,
                                                    const SolverOptions&, CommModel*);

}  // namespace bkr
