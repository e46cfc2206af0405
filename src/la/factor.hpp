// Dense factorizations: Cholesky (plain and pivoted) and LU with partial
// pivoting. Cholesky backs CholQR; pivoted Cholesky is the rank-revealing
// variant used to detect block breakdowns at GCRO-DR restarts; LU backs the
// generalized deflation eigenproblem (reduction of T z = theta W z to
// standard form) and the AMG coarsest-grid solve.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
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

// Diagonally pivoted (rank-revealing) Cholesky: P^T A P = R^H R.
// On return `perm[j]` is the original index of pivot column j and the
// numerical rank (columns with pivot > tol * max_pivot) is returned.
template <class T>
index_t pivoted_cholesky(MatrixView<T> a, std::vector<index_t>& perm, real_t<T> tol) {
  const index_t n = a.rows();
  BKR_REQUIRE(a.cols() == n, "a.rows", n, "a.cols", a.cols());
  BKR_REQUIRE(tol >= real_t<T>(0), "tol", tol);
  perm.resize(size_t(n));
  std::iota(perm.begin(), perm.end(), index_t(0));
  std::vector<real_t<T>> d(static_cast<size_t>(n));
  for (index_t i = 0; i < n; ++i) d[size_t(i)] = real_part(a(i, i));
  const real_t<T> dmax0 = *std::max_element(d.begin(), d.end());
  index_t rank = 0;
  for (index_t j = 0; j < n; ++j) {
    // Select the largest remaining diagonal entry.
    index_t piv = j;
    for (index_t i = j + 1; i < n; ++i)
      if (d[size_t(i)] > d[size_t(piv)]) piv = i;
    if (!(d[size_t(piv)] > tol * std::max(dmax0, real_t<T>(1e-300)))) break;
    if (piv != j) {
      std::swap(perm[size_t(piv)], perm[size_t(j)]);
      std::swap(d[size_t(piv)], d[size_t(j)]);
      for (index_t i = 0; i < n; ++i) std::swap(a(i, piv), a(i, j));
      for (index_t i = 0; i < n; ++i) std::swap(a(piv, i), a(j, i));
    }
    real_t<T> djj = real_part(a(j, j));
    for (index_t l = 0; l < j; ++l) {
      const auto v = abs_val(a(l, j));
      djj -= v * v;
    }
    if (!(djj > real_t<T>(0))) break;
    const real_t<T> rjj = std::sqrt(djj);
    a(j, j) = scalar_traits<T>::from_real(rjj);
    for (index_t i = j + 1; i < n; ++i) {
      T s = a(j, i);
      for (index_t l = 0; l < j; ++l) s -= mul(conj(a(l, j)), a(l, i));
      a(j, i) = s / rjj;
      d[size_t(i)] -= abs_val(a(j, i)) * abs_val(a(j, i));
    }
    ++rank;
  }
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j + 1; i < n; ++i) a(i, j) = T(0);
  return rank;
}

// Dense LU with partial pivoting, stored packed in `a` (unit lower /
// upper). `piv[i]` records the row swapped into position i.
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

  // Solve A X = B in place.
  BKR_HOT void solve(MatrixView<T> b) const {
    const index_t n = a_.rows();
    BKR_REQUIRE(b.rows() == n, "b.rows", b.rows(), "lu.n", n);
    for (index_t j = 0; j < b.cols(); ++j) {
      T* x = b.col(j);
      for (index_t i = 0; i < n; ++i)
        if (piv_[size_t(i)] != i) std::swap(x[i], x[piv_[size_t(i)]]);
      for (index_t i = 1; i < n; ++i) {
        T s = x[i];
        for (index_t l = 0; l < i; ++l) s -= mul(a_(i, l), x[l]);
        x[i] = s;
      }
      for (index_t i = n - 1; i >= 0; --i) {
        T s = x[i];
        for (index_t l = i + 1; l < n; ++l) s -= mul(a_(i, l), x[l]);
        x[i] = s / a_(i, i);
      }
    }
  }

 private:
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
  }

  DenseMatrix<T> a_;
  std::vector<index_t> piv_;
  bool singular_ = false;
};

}  // namespace bkr
