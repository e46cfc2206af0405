// fp32-storage mirror of a CsrMatrix — the mixed-precision pilot kernel
// (DESIGN.md §14, ROADMAP item 3).
//
// The narrow mirror shares the fp64 matrix's structure (rowptr/colind are
// referenced, never copied); only the values array is narrowed to fp32
// storage, halving the value-stream bandwidth of SpMV/SpMM — the memory
// traffic that dominates the paper's strong-scaling regime. Every apply
// promotes each value back to fp64 at load and accumulates in fp64 (the
// component's BKR_PRECISION_BOUNDARY), so the only rounding the mirror
// introduces is the one-time value narrowing: a componentwise relative
// perturbation of A bounded by fp32 machine epsilon. Solvers consume the
// mirror through MixedPrecisionOperator (core/operator.hpp), whose
// residual-replacement discipline recovers fp64 solution accuracy.
//
// Precision-flow discipline (tools/bkr_lint --fpflow): the narrowing
// below is confined to precision_convert and annotated
// BKR_ALLOW_NARROWING; the tolerance oracle naming these components
// lives in tests/test_mixed.cpp.
//
// bkr-lint: allow-file(float-literal) — this header IS the library's fp32
// storage scope; the fp64-only discipline the rule enforces everywhere
// else is exactly what confines `float` to this file.
#pragma once

#include <complex>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "la/dense.hpp"
#include "common/exec.hpp"
#include "sparse/csr.hpp"

namespace bkr {

// double -> float and complex<double> -> complex<float>; the identity on
// types that are already narrow.
template <class T>
struct narrow_traits {
  using type = float;
};
template <class R>
struct narrow_traits<std::complex<R>> {
  using type = std::complex<float>;
};
template <class T>
using narrow_t = typename narrow_traits<T>::type;

// The two deliberate conversion directions of the pilot, in one place so
// every narrowing site in the library is annotated and auditable.
template <class T>
struct precision_convert {
  BKR_ALLOW_NARROWING static narrow_t<T> narrow(T v) noexcept {
    return static_cast<narrow_t<T>>(v);
  }
  static T widen(narrow_t<T> v) noexcept { return static_cast<T>(v); }
};
template <class R>
struct precision_convert<std::complex<R>> {
  BKR_ALLOW_NARROWING static narrow_t<std::complex<R>> narrow(std::complex<R> v) noexcept {
    return {static_cast<float>(v.real()), static_cast<float>(v.imag())};
  }
  static std::complex<R> widen(narrow_t<std::complex<R>> v) noexcept {
    return {static_cast<R>(v.real()), static_cast<R>(v.imag())};
  }
};

// Narrow-value view of a CsrMatrix<T>. Holds the full-precision matrix by
// pointer for its structure arrays (the mirror must not outlive it) plus
// one narrowed values array; spmv/spmm follow CsrMatrix's row-partitioned
// parallel contract exactly, so mirror applies are bitwise identical at
// every thread count.
template <class T>
class MixedCsr {
 public:
  using narrow_type = narrow_t<T>;

  MixedCsr() = default;
  explicit MixedCsr(const CsrMatrix<T>& a) : a_(&a) {
    values_.resize(size_t(a.nnz()));
    for (index_t l = 0; l < a.nnz(); ++l)
      values_[size_t(l)] = precision_convert<T>::narrow(a.values()[size_t(l)]);
  }

  [[nodiscard]] index_t rows() const { return a_->rows(); }
  [[nodiscard]] index_t cols() const { return a_->cols(); }
  [[nodiscard]] index_t nnz() const { return index_t(values_.size()); }
  [[nodiscard]] const std::vector<narrow_type>& values() const { return values_; }
  [[nodiscard]] const CsrMatrix<T>& full() const { return *a_; }

  // y = A32 x: fp32 value stream, fp64 promotion at load, fp64
  // accumulation. Same executor engagement and row splits as the fp64
  // kernel.
  BKR_HOT void spmv(const T* x, T* y, const KernelExecutor* ex = nullptr) const {
    const index_t rows = a_->rows();
    if (ex == nullptr || rows <= 1 || !ex->engage(Kernel::Spmv, nnz())) {
      spmv_rows(0, rows, x, y);
      return;
    }
    const index_t parts = std::min(rows, ex->lanes() * 4);
    const std::vector<index_t> splits = balanced_row_splits(a_->rowptr(), rows, parts);
    ex->run(Kernel::Spmv, parts, [&](index_t t) {
      spmv_rows(splits[size_t(t)], splits[size_t(t) + 1], x, y);
    });
  }

  // Y = A32 X over a block of p columns (the fused SpMM sweep).
  BKR_HOT void spmm(MatrixView<const T> x, MatrixView<T> y,
                    const KernelExecutor* ex = nullptr) const {
    const index_t rows = a_->rows(), p = x.cols();
    BKR_REQUIRE(x.rows() == a_->cols(), "x.rows", x.rows(), "a.cols", a_->cols());
    BKR_ASSERT_SHAPE(y, rows, p);
    if (p == 1) {
      spmv(x.col(0), y.col(0), ex);
      return;
    }
    if (ex == nullptr || rows <= 1 || !ex->engage(Kernel::Spmm, nnz() * p)) {
      spmm_rows(0, rows, x, y);
      return;
    }
    const index_t parts = std::min(rows, ex->lanes() * 4);
    const std::vector<index_t> splits = balanced_row_splits(a_->rowptr(), rows, parts);
    ex->run(Kernel::Spmm, parts, [&](index_t t) {
      spmm_rows(splits[size_t(t)], splits[size_t(t) + 1], x, y);
    });
  }

 private:
  void spmv_rows(index_t i0, index_t i1, const T* x, T* y) const {
    const std::vector<index_t>& rowptr = a_->rowptr();
    const std::vector<index_t>& colind = a_->colind();
    for (index_t i = i0; i < i1; ++i) {
      T s(0);
      BKR_PRECISION_BOUNDARY for (index_t l = rowptr[size_t(i)]; l < rowptr[size_t(i) + 1]; ++l)
        s += mul(precision_convert<T>::widen(values_[size_t(l)]), x[colind[size_t(l)]]);
      y[i] = s;
    }
  }

  void spmm_rows(index_t i0, index_t i1, MatrixView<const T>& x, MatrixView<T>& y) const {
    const std::vector<index_t>& rowptr = a_->rowptr();
    const std::vector<index_t>& colind = a_->colind();
    const index_t p = x.cols();
    for (index_t i = i0; i < i1; ++i) {
      for (index_t j = 0; j < p; ++j) y(i, j) = T(0);
      BKR_PRECISION_BOUNDARY for (index_t l = rowptr[size_t(i)]; l < rowptr[size_t(i) + 1]; ++l) {
        const T a = precision_convert<T>::widen(values_[size_t(l)]);
        const index_t c = colind[size_t(l)];
        for (index_t j = 0; j < p; ++j) y(i, j) += mul(a, x(c, j));
      }
    }
  }

  const CsrMatrix<T>* a_ = nullptr;  // structure (not owned)
  std::vector<narrow_type> values_;  // narrowed value stream
};

}  // namespace bkr
