// (Block / pseudo-block / flexible) GMRES.
//
// One implementation covers the whole family of section V-B1:
//  * block_gmres with p = 1 is restarted GMRES(m) (FGMRES when
//    side == Flexible);
//  * block_gmres with p > 1 is BGMRES: a single block Krylov space, block
//    Hessenberg with p x p blocks, CholQR block normalization;
//  * pseudo_block_gmres runs p independent single-vector Krylov spaces
//    with fused kernels — one SpMM and one batched reduction per
//    iteration for all p RHS, as formalized in Belos and implemented in
//    HPDDM.
//
// Both are restart loops over the Arnoldi cycles of core/arnoldi.hpp
// (BlockCycle and LaneCycle) with no recycled space: GMRES is GCRO-DR
// with k = 0.
//
// Stopping: every RHS column's relative (unpreconditioned, except for
// left preconditioning) residual below opts.tol — the EPS test of fig. 1.
#pragma once

#include "core/operator.hpp"
#include "core/solver.hpp"

namespace bkr {

template <class T>
SolveStats block_gmres(const LinearOperator<T>& a, Preconditioner<T>* m, MatrixView<const T> b,
                       MatrixView<T> x, const SolverOptions& opts, CommModel* comm = nullptr);

template <class T>
SolveStats pseudo_block_gmres(const LinearOperator<T>& a, Preconditioner<T>* m,
                              MatrixView<const T> b, MatrixView<T> x, const SolverOptions& opts,
                              CommModel* comm = nullptr);

// Single-RHS convenience wrapper around block_gmres.
template <class T>
SolveStats gmres(const LinearOperator<T>& a, Preconditioner<T>* m, const std::vector<T>& b,
                 std::vector<T>& x, const SolverOptions& opts, CommModel* comm = nullptr) {
  const index_t n = a.n();
  return block_gmres<T>(a, m, MatrixView<const T>(b.data(), n, 1, n),
                        MatrixView<T>(x.data(), n, 1, n), opts, comm);
}

extern template SolveStats block_gmres<double>(const LinearOperator<double>&,
                                               Preconditioner<double>*, MatrixView<const double>,
                                               MatrixView<double>, const SolverOptions&,
                                               CommModel*);
extern template SolveStats block_gmres<std::complex<double>>(
    const LinearOperator<std::complex<double>>&, Preconditioner<std::complex<double>>*,
    MatrixView<const std::complex<double>>, MatrixView<std::complex<double>>, const SolverOptions&,
    CommModel*);
extern template SolveStats pseudo_block_gmres<double>(const LinearOperator<double>&,
                                                      Preconditioner<double>*,
                                                      MatrixView<const double>, MatrixView<double>,
                                                      const SolverOptions&, CommModel*);
extern template SolveStats pseudo_block_gmres<std::complex<double>>(
    const LinearOperator<std::complex<double>>&, Preconditioner<std::complex<double>>*,
    MatrixView<const std::complex<double>>, MatrixView<std::complex<double>>, const SolverOptions&,
    CommModel*);

}  // namespace bkr
