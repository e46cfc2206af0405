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
  // is reshaped to b's shape; a reused scratch makes the solve
  // allocation-free.
  void solve(MatrixView<T> b, DenseMatrix<T>& scratch, index_t threads = 1) const;

  // Convenience out-of-place single/multi RHS solve.
  void solve_copy(MatrixView<const T> b, MatrixView<T> x, index_t threads = 1) const {
    copy_into<T>(b, x);
    solve(x, threads);
  }

 private:
  void solve_panel(MatrixView<T> b) const;

  index_t n_ = 0;
  std::vector<index_t> perm_;      // new -> old
  std::vector<index_t> inv_perm_;  // old -> new
  std::vector<index_t> lp_;        // column pointers of L (CSC), size n+1
  std::vector<index_t> li_;        // row indices of L
  std::vector<T> lx_;              // values of L (unit diagonal implicit)
  std::vector<T> d_;               // diagonal of D
};

extern template class SparseLDLT<double>;
extern template class SparseLDLT<std::complex<double>>;

}  // namespace bkr
