// Dense nonsymmetric eigensolvers for the GCRO-DR deflation problems.
//
// GCRO-DR needs, once per cycle, the k eigenvectors of smallest
// eigenvalue magnitude of either a (nearly Hessenberg) matrix H (fig. 1
// line 16, with the left-hand side of eq. 2) or of a generalized pencil
// (T, W) (fig. 1 line 33, eq. 3a/3b). The matrices are small — order
// p*(m+1) at most — so a dense complex QR (Schur) iteration is used, the
// same algorithm LAPACK's ?hseqr implements. Real inputs are promoted to
// complex; for real solvers, complex-conjugate eigenvector pairs are
// returned as their real span [Re z, Im z] so that the recycled subspace
// U_k stays real.
#pragma once

#include <complex>
#include <stdexcept>
#include <string>
#include <vector>

#include "la/dense.hpp"

namespace bkr {

using cplx = std::complex<double>;

// Thrown when a dense eigensolve cannot produce a usable decomposition:
// QR-iteration non-convergence, or a singular pencil right-hand side W. A
// distinct type so solver-level recovery (GCRO-DR's identity-pk fallback)
// can catch eigensolve failures specifically without swallowing contract
// violations or unrelated runtime errors.
class EigFailure : public std::runtime_error {
 public:
  explicit EigFailure(const std::string& what) : std::runtime_error(what) {}
};

// Eigen decomposition of a general complex matrix (values unordered,
// right eigenvectors as unit-norm columns). Throws EigFailure if the QR
// iteration fails to converge.
struct EigDecomposition {
  std::vector<cplx> values;
  DenseMatrix<cplx> vectors;
};
EigDecomposition eig_general(DenseMatrix<cplx> a);

// Eigen decomposition of the pencil T z = theta W z, reduced to standard
// form through an LU solve with W (the paper notes W is invertible for
// both strategy A and B right-hand sides). Throws EigFailure if W is
// singular (e.g. a stagnating cycle leaves H_m rank deficient).
EigDecomposition eig_generalized(const DenseMatrix<cplx>& t, const DenseMatrix<cplx>& w);

// --- selection helpers used by (B)GCRO-DR -------------------------------

// Columns spanning the invariant subspace of the k smallest-|theta|
// eigenvalues, in the caller's scalar type. For T = complex<double> the
// eigenvectors themselves are returned; for T = double, conjugate pairs
// contribute [Re z, Im z]. The result always has exactly k columns.
template <class T>
DenseMatrix<T> smallest_eig_vectors(const DenseMatrix<T>& a, index_t k);

template <class T>
DenseMatrix<T> smallest_gen_eig_vectors(const DenseMatrix<T>& t, const DenseMatrix<T>& w,
                                        index_t k);

template <>
DenseMatrix<double> smallest_eig_vectors<double>(const DenseMatrix<double>&, index_t);
template <>
DenseMatrix<cplx> smallest_eig_vectors<cplx>(const DenseMatrix<cplx>&, index_t);
template <>
DenseMatrix<double> smallest_gen_eig_vectors<double>(const DenseMatrix<double>&,
                                                     const DenseMatrix<double>&, index_t);
template <>
DenseMatrix<cplx> smallest_gen_eig_vectors<cplx>(const DenseMatrix<cplx>&,
                                                 const DenseMatrix<cplx>&, index_t);

// --- Schur-sweep kernels, exposed for the kernel oracle ------------------
namespace detail {

// Complex Givens rotation G = [c -conj(s); s c] with real c >= 0, chosen
// so that G^H [a; b] = [r; 0]. c is real in this convention, so the sweep
// applies it as LAPACK's zrot does: c times a complex value is two real
// products, and only s needs a complex product.
struct Rotation {
  double c;
  cplx s;
};
Rotation make_rotation(cplx a, cplx b);

// G^H from the left on a row pair of length len, entries ld apart:
//   x := c x + conj(s) y,   y := -s x + c y.
void rotate_rows(cplx* x, cplx* y, index_t len, index_t ld, const Rotation& g);

// G from the right on a column pair (unit stride), of H or of Q:
//   x := c x + s y,   y := -conj(s) x + c y.
void rotate_cols(cplx* x, cplx* y, index_t len, const Rotation& g);

}  // namespace detail

}  // namespace bkr
