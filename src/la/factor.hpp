// Dense factorizations: Cholesky and LU with partial pivoting. Cholesky
// backs CholQR; LU backs the generalized deflation eigenproblem (reduction
// of T z = theta W z to standard form) and the AMG coarsest-grid solve.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "la/blas.hpp"
#include "la/dense.hpp"

namespace bkr {

// In-place upper Cholesky of a Hermitian positive definite matrix:
// A = R^H R with R stored in the upper triangle. Returns false if a
// non-positive pivot is met (matrix numerically not PD).
template <class T>
bool cholesky_upper(MatrixView<T> a) {
  const index_t n = a.rows();
  BKR_REQUIRE(a.cols() == n, "a.rows", n, "a.cols", a.cols());
  for (index_t j = 0; j < n; ++j) {
    real_t<T> d = real_part(a(j, j));
    for (index_t l = 0; l < j; ++l) {
      const auto v = abs_val(a(l, j));
      d -= v * v;
    }
    if (!(d > real_t<T>(0))) return false;
    const real_t<T> rjj = std::sqrt(d);
    a(j, j) = scalar_traits<T>::from_real(rjj);
    for (index_t i = j + 1; i < n; ++i) {
      T s = a(j, i);
      for (index_t l = 0; l < j; ++l) s -= mul(conj(a(l, j)), a(l, i));
      a(j, i) = s / rjj;
    }
  }
  // Zero the (unreferenced) strict lower triangle for cleanliness.
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) a(i, j) = T(0);
  return true;
}

// Dense LU with partial pivoting, stored packed (unit lower / upper) and
// transposed, so a row of the factors is a column of storage. `piv[i]`
// records the row swapped into position i.
template <class T>
class DenseLU {
 public:
  DenseLU() = default;  // empty; factor() before solve()
  explicit DenseLU(DenseMatrix<T> a) : a_(std::move(a)), piv_(size_t(a_.rows())) {
    eliminate();
  }

  // Refactor a new matrix reusing the existing storage (no allocation once
  // capacity has grown to the problem size); identical elimination order,
  // so the factors are bitwise equal to a freshly constructed DenseLU.
  BKR_HOT void factor(MatrixView<const T> a) {
    BKR_REQUIRE(a.cols() == a.rows(), "a.rows", a.rows(), "a.cols", a.cols());
    a_.resize(a.rows(), a.cols());       // bkr-lint: allow(hot-path-alloc) capacity-reusing
    copy_into<T>(a, a_.view());
    piv_.assign(size_t(a.rows()), 0);    // bkr-lint: allow(hot-path-alloc) capacity-reusing
    eliminate();
  }

  [[nodiscard]] bool singular() const { return singular_; }
  [[nodiscard]] index_t n() const { return a_.rows(); }

  // Solve A X = B in place by row-by-row forward and backward
  // substitution. Row i of the factors is column i of a_, so both sweeps
  // read it at unit stride, and four right-hand sides share each pass;
  // every column sees the operations of a lone solve in the same order.
  BKR_HOT void solve(MatrixView<T> b) const {
    const index_t n = a_.rows();
    BKR_REQUIRE(b.rows() == n, "b.rows", b.rows(), "lu.n", n);
    index_t j = 0;
    for (; j + 4 <= b.cols(); j += 4)
      solve_block<4>({b.col(j), b.col(j + 1), b.col(j + 2), b.col(j + 3)});
    for (; j < b.cols(); ++j) solve_block<1>({b.col(j)});
  }

 private:
  template <int W>
  void solve_block(const std::array<T*, W>& x) const {
    const index_t n = a_.rows();
    for (T* xc : x)
      for (index_t i = 0; i < n; ++i)
        if (piv_[size_t(i)] != i) std::swap(xc[i], xc[piv_[size_t(i)]]);
    T s[W]{};
    for (index_t i = 1; i < n; ++i) {
      const T* row = a_.col(i);
      for (int c = 0; c < W; ++c) s[c] = x[c][i];
      for (index_t l = 0; l < i; ++l)
        for (int c = 0; c < W; ++c) s[c] -= mul(row[l], x[c][l]);
      for (int c = 0; c < W; ++c) x[c][i] = s[c];
    }
    for (index_t i = n - 1; i >= 0; --i) {
      const T* row = a_.col(i);
      for (int c = 0; c < W; ++c) s[c] = x[c][i];
      for (index_t l = i + 1; l < n; ++l)
        for (int c = 0; c < W; ++c) s[c] -= mul(row[l], x[c][l]);
      for (int c = 0; c < W; ++c) x[c][i] = s[c] / row[i];
    }
  }

  void eliminate() {
    const index_t n = a_.rows();
    BKR_REQUIRE(a_.cols() == n, "a.rows", n, "a.cols", a_.cols());
    singular_ = false;
    for (index_t j = 0; j < n; ++j) {
      index_t piv = j;
      real_t<T> best = abs_val(a_(j, j));
      for (index_t i = j + 1; i < n; ++i)
        if (abs_val(a_(i, j)) > best) {
          best = abs_val(a_(i, j));
          piv = i;
        }
      piv_[size_t(j)] = piv;
      if (best == real_t<T>(0)) {
        singular_ = true;
        continue;
      }
      if (piv != j)
        for (index_t c = 0; c < n; ++c) std::swap(a_(j, c), a_(piv, c));
      const T inv = T(1) / a_(j, j);
      for (index_t i = j + 1; i < n; ++i) {
        const T lij = mul(a_(i, j), inv);
        a_(i, j) = lij;
        if (lij == T(0)) continue;
        for (index_t c = j + 1; c < n; ++c) a_(i, c) -= mul(lij, a_(j, c));
      }
    }
    // Store the factors transposed: column i becomes row i of L and U.
    for (index_t j = 0; j < n; ++j)
      for (index_t i = j + 1; i < n; ++i) std::swap(a_(i, j), a_(j, i));
  }

  DenseMatrix<T> a_;  // after eliminate(): a_(l, i) = L(i, l) for l < i, U(i, l) for l >= i
  std::vector<index_t> piv_;
  bool singular_ = false;
};

}  // namespace bkr
