// QR factorizations.
//
// Three flavours are needed by the solvers:
//  * HouseholderQR — dense QR of small matrices (e.g. H_m P_k at GCRO-DR
//    restarts, fig. 1 lines 18/35 of the paper).
//  * IncrementalQR — column-by-column QR of the (block) Hessenberg matrix,
//    updated once per Arnoldi iteration; this is what makes the paper's
//    eq. (2) form of the deflation eigenproblem cheap (Q and R are already
//    available when the cycle ends).
//  * CholQR — tall-skinny QR via the Gram matrix, the single-reduction
//    orthogonalization the paper selects (section III-A), with a
//    rank-revealing pivoted variant used for breakdown detection.
#pragma once

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "la/blas.hpp"
#include "la/dense.hpp"
#include "la/factor.hpp"

namespace bkr {

namespace detail {

// LAPACK-style ?larfg: generate an elementary reflector H = I - tau v v^H
// with v(0) = 1 such that H^H x = beta e_1, beta real. `x` has n entries;
// on return x(0) = beta and x(1:) holds the reflector tail.
template <class T>
T make_reflector(index_t n, T* x) {
  using R = real_t<T>;
  if (n <= 0) return T(0);
  const T alpha = x[0];
  R xnorm(0);
  for (index_t i = 1; i < n; ++i) {
    const R a = abs_val(x[i]);
    xnorm += a * a;
  }
  const R alpha_im2 = [&] {
    if constexpr (is_complex_v<T>) {
      const R im = scalar_traits<T>::imag(alpha);
      return im * im;
    } else {
      return R(0);
    }
  }();
  if (xnorm == R(0) && alpha_im2 == R(0)) {
    return T(0);  // already in the right form
  }
  const R ar = real_part(alpha);
  R beta = -std::copysign(std::sqrt(ar * ar + alpha_im2 + xnorm), ar);
  const T tau = (scalar_traits<T>::from_real(beta) - alpha) / scalar_traits<T>::from_real(beta);
  const T scale = T(1) / (alpha - scalar_traits<T>::from_real(beta));
  for (index_t i = 1; i < n; ++i) x[i] = mul(x[i], scale);
  x[0] = scalar_traits<T>::from_real(beta);
  return tau;
}

// Apply H^H = I - conj(tau) v v^H (conj = true) or H (conj = false) to a
// block of columns, where v = [1; tail] lives at `v_tail` with n-1 entries.
template <class T>
void apply_reflector(index_t n, const T* v_tail, T tau, bool conj_tau, MatrixView<T> c) {
  if (tau == T(0)) return;
  const T t = conj_tau ? conj(tau) : tau;
  for (index_t j = 0; j < c.cols(); ++j) {
    T* cj = c.col(j);
    T s = cj[0];
    for (index_t i = 1; i < n; ++i) s += mul(conj(v_tail[i - 1]), cj[i]);
    s = mul(s, t);
    cj[0] -= s;
    for (index_t i = 1; i < n; ++i) cj[i] -= mul(v_tail[i - 1], s);
  }
}

}  // namespace detail

// Dense Householder QR of an m x n matrix (m >= n).
template <class T>
class HouseholderQR {
 public:
  explicit HouseholderQR(DenseMatrix<T> a) : a_(std::move(a)), tau_(size_t(a_.cols())) {
    const index_t m = a_.rows(), n = a_.cols();
    BKR_REQUIRE(m >= n, "a.rows", m, "a.cols", n);
    for (index_t j = 0; j < n && j < m; ++j) {
      tau_[size_t(j)] = detail::make_reflector(m - j, &a_(j, j));
      if (j + 1 < n)
        detail::apply_reflector(m - j, &a_(j + 1, j), tau_[size_t(j)], true,
                                a_.block(j, j + 1, m - j, n - j - 1));
    }
  }

  [[nodiscard]] index_t rows() const { return a_.rows(); }
  [[nodiscard]] index_t cols() const { return a_.cols(); }

  // B := Q^H B (B has `rows()` rows).
  void apply_qt(MatrixView<T> b) const {
    const index_t m = a_.rows(), n = a_.cols();
    for (index_t j = 0; j < n && j < m; ++j)
      detail::apply_reflector(m - j, tail_ptr(j), tau_[size_t(j)], true,
                              b.block(j, 0, m - j, b.cols()));
  }

  // B := Q B.
  void apply_q(MatrixView<T> b) const {
    const index_t m = a_.rows(), n = a_.cols();
    for (index_t j = std::min(n, m) - 1; j >= 0; --j)
      detail::apply_reflector(m - j, tail_ptr(j), tau_[size_t(j)], false,
                              b.block(j, 0, m - j, b.cols()));
  }

  // The upper-triangular factor (n x n).
  [[nodiscard]] DenseMatrix<T> r() const {
    const index_t n = a_.cols();
    DenseMatrix<T> out(n, n);
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i <= j && i < a_.rows(); ++i) out(i, j) = a_(i, j);
    return out;
  }

  // Thin Q (m x n), formed by applying the reflectors to the identity.
  [[nodiscard]] DenseMatrix<T> q_thin() const {
    const index_t m = a_.rows(), n = a_.cols();
    DenseMatrix<T> q(m, n);
    for (index_t j = 0; j < n; ++j) q(j, j) = T(1);
    apply_q(q.view());
    return q;
  }

 private:
  // Pointer to the reflector tail of column j (never dereferenced when the
  // tail is empty); raw arithmetic avoids the bounds-checked accessor.
  [[nodiscard]] const T* tail_ptr(index_t j) const {
    return a_.data() + (j + 1) + j * a_.ld();
  }

  DenseMatrix<T> a_;
  std::vector<T> tau_;
};

// Incremental QR of a matrix whose columns arrive one at a time with
// growing row support (the Hessenberg pattern: column j is nonzero in its
// first `height` rows only). Maintains reflectors so that R, Q^H b and the
// thin Q are all available at any point of the Arnoldi process.
template <class T>
class IncrementalQR {
 public:
  IncrementalQR() = default;  // empty; reshape() before use
  IncrementalQR(index_t max_rows, index_t max_cols)
      : fact_(max_rows, max_cols), heights_(size_t(max_cols)), tau_(size_t(max_cols)) {}

  [[nodiscard]] index_t cols() const { return ncols_; }
  [[nodiscard]] index_t max_rows() const { return fact_.rows(); }
  [[nodiscard]] index_t max_cols() const { return fact_.cols(); }

  void reset() {
    ncols_ = 0;
    fact_.set_zero();
  }

  // Restore the state of a freshly constructed IncrementalQR(max_rows,
  // max_cols) while reusing the existing storage (capacity only grows).
  // This is what lets a restart cycle rebuild its Hessenberg QR without
  // touching the allocator once the workspace has warmed up.
  void reshape(index_t max_rows, index_t max_cols) {
    fact_.resize(max_rows, max_cols);
    heights_.assign(size_t(max_cols), 0);
    tau_.assign(size_t(max_cols), T(0));
    ncols_ = 0;
  }

  // Append one column whose first `height` entries are in `col`.
  BKR_HOT void add_column(const T* col, index_t height) {
    const index_t j = ncols_;
    BKR_REQUIRE(height <= fact_.rows() && j < fact_.cols(), "height", height, "max_rows",
                fact_.rows(), "ncols", j, "max_cols", fact_.cols());
    for (index_t i = 0; i < height; ++i) fact_(i, j) = col[i];
    for (index_t i = height; i < fact_.rows(); ++i) fact_(i, j) = T(0);
    // Apply previous reflectors.
    auto cj = fact_.block(0, j, fact_.rows(), 1);
    for (index_t l = 0; l < j; ++l) {
      const index_t ext = heights_[size_t(l)];
      detail::apply_reflector(ext - l, tail_ptr(l), tau_[size_t(l)], true,
                              cj.block(l, 0, ext - l, 1));
    }
    // New reflector annihilating rows (j+1 .. height).
    heights_[size_t(j)] = std::max(height, j + 1);
    tau_[size_t(j)] = detail::make_reflector(heights_[size_t(j)] - j, &fact_(j, j));
    ++ncols_;
  }

  // R entry (i <= j < cols()).
  [[nodiscard]] T r(index_t i, index_t j) const {
    assert(i <= j && j < ncols_);
    return fact_(i, j);
  }

  // The leading n x n block of the factor storage (n <= cols()): R in its
  // upper triangle, reflector tails below it. For kernels that read only
  // the upper triangle, such as trsm_left_upper; r_matrix() is the
  // zero-padded copy.
  [[nodiscard]] MatrixView<const T> r_upper(index_t n) const {
    assert(n <= ncols_);
    return MatrixView<const T>(fact_.data(), n, n, fact_.ld());
  }

  [[nodiscard]] DenseMatrix<T> r_matrix() const {
    DenseMatrix<T> out(ncols_, ncols_);
    for (index_t j = 0; j < ncols_; ++j)
      for (index_t i = 0; i <= j; ++i) out(i, j) = fact_(i, j);
    return out;
  }

  // b := Q^H b over the first `nrows` rows (nrows >= tallest reflector).
  void apply_qt(MatrixView<T> b) const {
    for (index_t l = 0; l < ncols_; ++l) {
      const index_t ext = heights_[size_t(l)];
      assert(ext <= b.rows());
      detail::apply_reflector(ext - l, tail_ptr(l), tau_[size_t(l)], true,
                              b.block(l, 0, ext - l, b.cols()));
    }
  }

  // b := (product of reflectors `from` .. cols()-1)^H b — the incremental
  // update applied to the least-squares right-hand side after new columns
  // are appended.
  void apply_qt_range(MatrixView<T> b, index_t from) const {
    for (index_t l = from; l < ncols_; ++l) {
      const index_t ext = heights_[size_t(l)];
      assert(ext <= b.rows());
      detail::apply_reflector(ext - l, tail_ptr(l), tau_[size_t(l)], true,
                              b.block(l, 0, ext - l, b.cols()));
    }
  }

  // b := Q b.
  void apply_q(MatrixView<T> b) const {
    for (index_t l = ncols_ - 1; l >= 0; --l) {
      const index_t ext = heights_[size_t(l)];
      assert(ext <= b.rows());
      detail::apply_reflector(ext - l, tail_ptr(l), tau_[size_t(l)], false,
                              b.block(l, 0, ext - l, b.cols()));
    }
  }

  // Thin Q: nrows x cols().
  [[nodiscard]] DenseMatrix<T> q_thin(index_t nrows) const {
    DenseMatrix<T> q(nrows, ncols_);
    for (index_t j = 0; j < ncols_; ++j) q(j, j) = T(1);
    apply_q(q.view());
    return q;
  }

 private:
  [[nodiscard]] const T* tail_ptr(index_t l) const {
    return fact_.data() + (l + 1) + l * fact_.ld();
  }

  DenseMatrix<T> fact_;
  std::vector<index_t> heights_;
  std::vector<T> tau_;
  index_t ncols_ = 0;
};

// CholQR: factor V = Q R with R upper triangular via the Gram matrix.
// On success V is overwritten with Q and `r` (p x p) with R. Returns false
// if the Gram matrix is numerically indefinite (block breakdown); callers
// fall back to Householder in that case.
template <class T>
BKR_HOT bool cholqr(MatrixView<T> v, MatrixView<T> r, const KernelExecutor* ex = nullptr) {
  const index_t p = v.cols();
  BKR_REQUIRE(v.rows() >= p, "v.rows", v.rows(), "v.cols", p);
  BKR_ASSERT_SHAPE(r, p, p);
  // Fused block reduction: the Gram matrix is one herk pass (pair-parallel
  // with an executor); the small p x p Cholesky stays serial.
  gram<T>(MatrixView<const T>(v.data(), v.rows(), v.cols(), v.ld()), r, ex);
  if (!cholesky_upper(r)) return false;
  trsm_right_upper<T>(MatrixView<const T>(r.data(), p, p, r.ld()), v, ex);
  return true;
}

// Rank-revealing diagnostic: numerical rank of the column space of V via
// pivoted Cholesky of its Gram matrix (V is not modified). Used at
// (B)GCRO-DR restarts to detect nearly-colinear residual columns.
template <class T>
index_t cholqr_rank(MatrixView<const T> v, real_t<T> tol = real_t<T>(1e-12)) {
  const index_t p = v.cols();
  DenseMatrix<T> g(p, p);
  gram<T>(v, g.view());
  std::vector<index_t> perm;
  return pivoted_cholesky(g.view(), perm, tol);
}

// Householder-based tall-skinny QR fallback (always succeeds for full-rank
// V): V := Q (thin), r := R. Only reached on a CholQR breakdown, so it is
// a cold recovery rung despite its hot caller.
template <class T>
BKR_COLD void householder_tsqr(MatrixView<T> v, MatrixView<T> r) {
  BKR_REQUIRE(v.rows() >= v.cols(), "v.rows", v.rows(), "v.cols", v.cols());
  BKR_ASSERT_SHAPE(r, v.cols(), v.cols());
  HouseholderQR<T> qr(copy_of(MatrixView<const T>(v.data(), v.rows(), v.cols(), v.ld())));
  DenseMatrix<T> rr = qr.r();
  copy_into<T>(rr.view(), r);
  DenseMatrix<T> q = qr.q_thin();
  copy_into<T>(q.view(), v);
}

}  // namespace bkr
