// Sparse symmetric direct solver (the PARDISO stand-in).
//
// LDL^T factorization of a symmetric matrix — real SPD (Poisson,
// elasticity subdomains) or complex *symmetric* (time-harmonic Maxwell,
// A = A^T without conjugation) — using the up-looking row algorithm of
// Davis's LDL, preceded by a nested-dissection fill-reducing ordering.
//
// The solve phase accepts a block of p contiguous right-hand sides and
// traverses the factor once for the whole block (single forward
// elimination + backward substitution, exactly the property the paper
// exploits in section V-B3 / fig. 6: the factor is the large, memory-bound
// data structure, so solving p RHS together multiplies arithmetic
// intensity by p). RHS panels can additionally be spread over threads.
//
// Layout: the one solve kernel (solve_interleaved) works on the block in
// factor order and interleaved, a p x n column-major matrix whose column
// i holds the p values of factor row i side by side. Each factor entry is
// then one broadcast against p contiguous values (for complex<double>,
// one value per 16-byte register, or two per 32-byte register where the
// CPU runs AVX2; la/complex_reg.hpp), and for p = 1 the
// panel is the plain column. solve() gathers b through the ordering into
// that shape and scatters the result back; a caller that owns its gather
// (the Schwarz subdomain solves) builds the interleaved block from perm()
// and calls the kernel directly. D is stored as its inverse pivots.
#pragma once

#include <complex>
#include <stdexcept>
#include <vector>

#include "direct/ordering.hpp"
#include "la/dense.hpp"
#include "sparse/csr.hpp"

namespace bkr {

enum class FactorOrdering { NestedDissection, Rcm, Natural };

template <class T>
class SparseLDLT {
 public:
  // Factors the matrix eagerly; throws std::runtime_error on a (numerically)
  // singular pivot. The matrix must be structurally and numerically
  // symmetric (unconjugated).
  explicit SparseLDLT(const CsrMatrix<T>& a,
                      FactorOrdering ordering = FactorOrdering::NestedDissection);

  [[nodiscard]] index_t n() const { return n_; }
  [[nodiscard]] index_t factor_nnz() const { return index_t(li_.size()) + n_; }

  // X := A^{-1} B, in place, for a block of B.cols() RHS. `threads` > 1
  // splits the RHS into panels executed on the global thread pool.
  void solve(MatrixView<T> b, index_t threads = 1) const {
    DenseMatrix<T> scratch;
    solve(b, scratch, threads);
  }
  // The same solve permuting through a caller-owned scratch block, which
  // is reshaped to the interleaved p x n shape; a reused scratch makes the
  // solve allocation-free.
  void solve(MatrixView<T> b, DenseMatrix<T>& scratch, index_t threads = 1) const;

  // The solve kernel: X := A^{-1} B in place on a block already in factor
  // order and interleaved (see the layout note above). x is w x n; column
  // i holds factor row i of w right-hand sides, so a row range of x is a
  // panel of right-hand sides.
  void solve_interleaved(MatrixView<T> x) const;
  // Factor order: factor row i is row perm()[i] of the matrix.
  [[nodiscard]] const std::vector<index_t>& perm() const { return perm_; }

  // Convenience out-of-place single/multi RHS solve.
  void solve_copy(MatrixView<const T> b, MatrixView<T> x, index_t threads = 1) const {
    copy_into<T>(b, x);
    solve(x, threads);
  }

 private:
  index_t n_ = 0;
  std::vector<index_t> perm_;  // new -> old
  std::vector<index_t> lp_;    // column pointers of L (CSC), size n+1
  std::vector<index_t> li_;    // row indices of L
  std::vector<T> lx_;          // values of L (unit diagonal implicit)
  std::vector<T> d_;           // inverse pivots: 1 / diagonal of D
};

extern template class SparseLDLT<double>;
extern template class SparseLDLT<std::complex<double>>;

}  // namespace bkr
