// Shared helpers for the test suite.
#pragma once

#include <gtest/gtest.h>

#include <complex>
#include <cstdint>
#include <cstring>

#include "common/rng.hpp"
#include "core/solver.hpp"
#include "la/blas.hpp"
#include "la/dense.hpp"
#include "sparse/csr.hpp"

namespace bkr::testing {

template <class T>
DenseMatrix<T> random_matrix(index_t rows, index_t cols, unsigned seed = 1) {
  Rng rng(seed);
  DenseMatrix<T> a(rows, cols);
  for (index_t j = 0; j < cols; ++j)
    for (index_t i = 0; i < rows; ++i) a(i, j) = rng.scalar<T>();
  return a;
}

// Bitwise equality (distinguishes -0.0 from +0.0, unlike operator==).
template <class T>
void expect_same_bits(const DenseMatrix<T>& got, const DenseMatrix<T>& want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (index_t j = 0; j < want.cols(); ++j)
    for (index_t i = 0; i < want.rows(); ++i)
      ASSERT_EQ(std::memcmp(&got(i, j), &want(i, j), sizeof(T)), 0)
          << what << " at (" << i << "," << j << "): " << got(i, j) << " vs " << want(i, j);
}

// 64-bit FNV-1a over raw bits: the cross-commit fingerprint of the golden
// and pin suites. Any flipped bit (a -0.0 included) changes the value.
class Fingerprint {
 public:
  void bytes(const void* p, size_t n) {
    const auto* c = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= c[i];
      h_ *= 1099511628211ULL;
    }
  }
  void integer(std::int64_t v) { bytes(&v, sizeof(v)); }
  template <class T>
  void matrix(MatrixView<const T> a) {
    integer(a.rows());
    integer(a.cols());
    for (index_t j = 0; j < a.cols(); ++j) bytes(a.col(j), size_t(a.rows()) * sizeof(T));
  }
  // Status, residual history and per-RHS iteration counts of one solve.
  void solve(const SolveStats& st) {
    integer(static_cast<std::int64_t>(st.status));
    integer(std::int64_t(st.history.size()));
    for (const auto& h : st.history) {
      integer(std::int64_t(h.size()));
      bytes(h.data(), h.size() * sizeof(h[0]));
    }
    integer(std::int64_t(st.per_rhs_iterations.size()));
    for (const auto it : st.per_rhs_iterations) integer(it);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// || A - B ||_F
template <class T>
double diff_fro(MatrixView<const T> a, MatrixView<const T> b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double s = 0;
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      const auto d = abs_val(a(i, j) - b(i, j));
      s += d * d;
    }
  return std::sqrt(s);
}

// || V^H V - I ||_F: orthonormality defect.
template <class T>
double ortho_defect(MatrixView<const T> v) {
  DenseMatrix<T> g(v.cols(), v.cols());
  gram<T>(v, g.view());
  for (index_t i = 0; i < v.cols(); ++i) g(i, i) -= T(1);
  return norm_fro<T>(g.view());
}

// Relative residual ||b - A x|| / ||b|| for a CSR system.
template <class T>
double relative_residual(const CsrMatrix<T>& a, const std::vector<T>& x, const std::vector<T>& b) {
  std::vector<T> r(b.size());
  a.spmv(x.data(), r.data());
  double num = 0, den = 0;
  for (size_t i = 0; i < b.size(); ++i) {
    num += std::norm(std::complex<double>(abs_val(b[i] - r[i]), 0));
    den += std::norm(std::complex<double>(abs_val(b[i]), 0));
  }
  return std::sqrt(num) / std::sqrt(den);
}

}  // namespace bkr::testing
