// Compressed sparse row matrices.
//
// CSR is the assembled-operator format used throughout: problem
// generators emit CSR, Krylov methods consume it through SpMV/SpMM, AMG
// builds Galerkin products on it and the Schwarz preconditioner extracts
// overlapping submatrices from it. SpMM (sparse matrix times a block of p
// contiguous columns) is the kernel that gives (pseudo-)block methods
// their arithmetic-intensity advantage (paper section V-B2).
#pragma once

#include <algorithm>
#include <cassert>
#include <tuple>
#include <vector>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "la/dense.hpp"
#include "common/exec.hpp"

namespace bkr {

// Partition [0, rows) into `parts` contiguous ranges with approximately
// equal nonzero counts (binary search on the rowptr prefix sums). Returns
// parts+1 monotone boundaries; used to load-balance row-parallel sparse
// kernels on matrices with irregular row lengths.
inline std::vector<index_t> balanced_row_splits(const std::vector<index_t>& rowptr, index_t rows,
                                                index_t parts) {
  BKR_REQUIRE(parts > 0 && index_t(rowptr.size()) >= rows + 1, "parts", parts, "rowptr.size",
              index_t(rowptr.size()), "rows", rows);
  std::vector<index_t> splits(size_t(parts) + 1, 0);
  splits[size_t(parts)] = rows;
  const index_t total = rowptr[size_t(rows)];
  for (index_t t = 1; t < parts; ++t) {
    const index_t target = (total / parts) * t + (total % parts) * t / parts;
    const auto it = std::lower_bound(rowptr.begin(), rowptr.begin() + rows + 1, target);
    const index_t cut = index_t(it - rowptr.begin());
    splits[size_t(t)] = std::min(rows, std::max(cut, splits[size_t(t) - 1]));
  }
  return splits;
}

template <class T>
class CsrMatrix {
 public:
  CsrMatrix() = default;
  CsrMatrix(index_t rows, index_t cols, std::vector<index_t> rowptr, std::vector<index_t> colind,
            std::vector<T> values)
      : rows_(rows),
        cols_(cols),
        rowptr_(std::move(rowptr)),
        colind_(std::move(colind)),
        values_(std::move(values)) {
    BKR_REQUIRE(index_t(rowptr_.size()) == rows_ + 1, "rowptr.size", index_t(rowptr_.size()),
                "rows+1", rows_ + 1);
    BKR_REQUIRE(colind_.size() == values_.size(), "colind.size", colind_.size(), "values.size",
                values_.size());
  }

  [[nodiscard]] index_t rows() const { return rows_; }
  [[nodiscard]] index_t cols() const { return cols_; }
  [[nodiscard]] index_t nnz() const { return index_t(values_.size()); }
  [[nodiscard]] const std::vector<index_t>& rowptr() const { return rowptr_; }
  [[nodiscard]] const std::vector<index_t>& colind() const { return colind_; }
  [[nodiscard]] const std::vector<T>& values() const { return values_; }
  [[nodiscard]] std::vector<T>& values() { return values_; }

  // y = A x. Rows write disjoint outputs in an unchanged per-row order, so
  // the executor's row-partitioned schedule is bitwise identical to the
  // serial sweep at every thread count.
  BKR_HOT void spmv(const T* x, T* y, const KernelExecutor* ex = nullptr) const {
    if (ex == nullptr || rows_ <= 1 || !ex->engage(Kernel::Spmv, nnz())) {
      spmv_rows(0, rows_, x, y);
      return;
    }
    const index_t parts = std::min(rows_, ex->lanes() * 4);
    const std::vector<index_t> splits = balanced_row_splits(rowptr_, rows_, parts);
    ex->run(Kernel::Spmv, parts, [&](index_t t) {
      spmv_rows(splits[size_t(t)], splits[size_t(t) + 1], x, y);
    });
  }

  // Y = A X for a block of p columns: one sweep over the matrix, all p
  // accumulations per nonzero (the BLAS-3-like fused kernel). Same
  // row-partitioned parallel contract as spmv.
  BKR_HOT void spmm(MatrixView<const T> x, MatrixView<T> y,
                    const KernelExecutor* ex = nullptr) const {
    const index_t p = x.cols();
    BKR_REQUIRE(x.rows() == cols_, "x.rows", x.rows(), "a.cols", cols_);
    BKR_ASSERT_SHAPE(y, rows_, p);
    if (p == 1) {
      spmv(x.col(0), y.col(0), ex);
      return;
    }
    if (ex == nullptr || rows_ <= 1 || !ex->engage(Kernel::Spmm, nnz() * p)) {
      spmm_rows(0, rows_, x, y);
      return;
    }
    const index_t parts = std::min(rows_, ex->lanes() * 4);
    const std::vector<index_t> splits = balanced_row_splits(rowptr_, rows_, parts);
    ex->run(Kernel::Spmm, parts, [&](index_t t) {
      spmm_rows(splits[size_t(t)], splits[size_t(t) + 1], x, y);
    });
  }

  [[nodiscard]] std::vector<T> diagonal() const {
    std::vector<T> d(size_t(rows_), T(0));
    for (index_t i = 0; i < rows_; ++i)
      for (index_t l = rowptr_[size_t(i)]; l < rowptr_[size_t(i) + 1]; ++l)
        if (colind_[size_t(l)] == i) d[size_t(i)] = values_[size_t(l)];
    return d;
  }

  [[nodiscard]] T at(index_t i, index_t j) const {
    for (index_t l = rowptr_[size_t(i)]; l < rowptr_[size_t(i) + 1]; ++l)
      if (colind_[size_t(l)] == j) return values_[size_t(l)];
    return T(0);
  }

  [[nodiscard]] DenseMatrix<T> to_dense() const {
    DenseMatrix<T> d(rows_, cols_);
    for (index_t i = 0; i < rows_; ++i)
      for (index_t l = rowptr_[size_t(i)]; l < rowptr_[size_t(i) + 1]; ++l)
        d(i, colind_[size_t(l)]) += values_[size_t(l)];
    return d;
  }

 private:
  // Shared row-range workers: the single compiled body behind both the
  // serial and the pooled schedules.
  void spmv_rows(index_t i0, index_t i1, const T* x, T* y) const {
    for (index_t i = i0; i < i1; ++i) {
      T s(0);
      for (index_t l = rowptr_[size_t(i)]; l < rowptr_[size_t(i) + 1]; ++l)
        s += mul(values_[size_t(l)], x[colind_[size_t(l)]]);
      y[i] = s;
    }
  }

  void spmm_rows(index_t i0, index_t i1, MatrixView<const T>& x, MatrixView<T>& y) const {
    const index_t p = x.cols();
    for (index_t i = i0; i < i1; ++i) {
      // Accumulate the row against every column of X.
      for (index_t j = 0; j < p; ++j) y(i, j) = T(0);
      for (index_t l = rowptr_[size_t(i)]; l < rowptr_[size_t(i) + 1]; ++l) {
        const T a = values_[size_t(l)];
        const index_t c = colind_[size_t(l)];
        for (index_t j = 0; j < p; ++j) y(i, j) += mul(a, x(c, j));
      }
    }
  }

  index_t rows_ = 0, cols_ = 0;
  std::vector<index_t> rowptr_;
  std::vector<index_t> colind_;
  std::vector<T> values_;
};

// Incremental COO assembly; duplicate entries are summed on conversion
// (the finite element convention).
template <class T>
class CooBuilder {
 public:
  CooBuilder(index_t rows, index_t cols) : rows_(rows), cols_(cols) {}

  void add(index_t i, index_t j, T v) {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    if (v == T(0)) return;
    entries_.emplace_back(i, j, v);
  }
  void reserve(size_t n) { entries_.reserve(n); }

  [[nodiscard]] CsrMatrix<T> build() const {
    std::vector<index_t> rowptr(size_t(rows_) + 1, 0);
    for (const auto& [i, j, v] : entries_) ++rowptr[size_t(i) + 1];
    for (size_t i = 0; i < size_t(rows_); ++i) rowptr[i + 1] += rowptr[i];
    std::vector<index_t> colind(entries_.size());
    std::vector<T> values(entries_.size());
    std::vector<index_t> next(rowptr.begin(), rowptr.end() - 1);
    for (const auto& [i, j, v] : entries_) {
      const index_t slot = next[size_t(i)]++;
      colind[size_t(slot)] = j;
      values[size_t(slot)] = v;
    }
    // Sort each row and merge duplicates.
    std::vector<index_t> out_rowptr(size_t(rows_) + 1, 0);
    std::vector<index_t> out_colind;
    std::vector<T> out_values;
    out_colind.reserve(entries_.size());
    out_values.reserve(entries_.size());
    std::vector<std::pair<index_t, T>> row;
    for (index_t i = 0; i < rows_; ++i) {
      row.clear();
      for (index_t l = rowptr[size_t(i)]; l < rowptr[size_t(i) + 1]; ++l)
        row.emplace_back(colind[size_t(l)], values[size_t(l)]);
      std::sort(row.begin(), row.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (size_t l = 0; l < row.size(); ++l) {
        if (!out_colind.empty() && index_t(out_colind.size()) > out_rowptr[size_t(i)] &&
            out_colind.back() == row[l].first) {
          out_values.back() += row[l].second;
        } else {
          out_colind.push_back(row[l].first);
          out_values.push_back(row[l].second);
        }
      }
      out_rowptr[size_t(i) + 1] = index_t(out_colind.size());
    }
    return CsrMatrix<T>(rows_, cols_, std::move(out_rowptr), std::move(out_colind),
                        std::move(out_values));
  }

 private:
  index_t rows_, cols_;
  std::vector<std::tuple<index_t, index_t, T>> entries_;
};

// B = A^T (no conjugation; the structural transpose).
template <class T>
CsrMatrix<T> transpose(const CsrMatrix<T>& a) {
  const index_t rows = a.rows(), cols = a.cols();
  std::vector<index_t> rowptr(size_t(cols) + 1, 0);
  for (index_t l = 0; l < a.nnz(); ++l) ++rowptr[size_t(a.colind()[size_t(l)]) + 1];
  for (size_t i = 0; i < size_t(cols); ++i) rowptr[i + 1] += rowptr[i];
  std::vector<index_t> colind(size_t(a.nnz()));
  std::vector<T> values(size_t(a.nnz()));
  std::vector<index_t> next(rowptr.begin(), rowptr.end() - 1);
  for (index_t i = 0; i < rows; ++i)
    for (index_t l = a.rowptr()[size_t(i)]; l < a.rowptr()[size_t(i) + 1]; ++l) {
      const index_t j = a.colind()[size_t(l)];
      const index_t slot = next[size_t(j)]++;
      colind[size_t(slot)] = i;
      values[size_t(slot)] = a.values()[size_t(l)];
    }
  return CsrMatrix<T>(cols, rows, std::move(rowptr), std::move(colind), std::move(values));
}

// C = A * B (row-merge sparse product with a dense workspace).
template <class T>
CsrMatrix<T> multiply(const CsrMatrix<T>& a, const CsrMatrix<T>& b) {
  BKR_REQUIRE(a.cols() == b.rows(), "a.cols", a.cols(), "b.rows", b.rows());
  const index_t rows = a.rows(), cols = b.cols();
  std::vector<index_t> rowptr(size_t(rows) + 1, 0);
  std::vector<index_t> colind;
  std::vector<T> values;
  std::vector<T> work(size_t(cols), T(0));
  std::vector<index_t> marker(size_t(cols), -1);
  std::vector<index_t> pattern;
  for (index_t i = 0; i < rows; ++i) {
    pattern.clear();
    for (index_t la = a.rowptr()[size_t(i)]; la < a.rowptr()[size_t(i) + 1]; ++la) {
      const index_t k = a.colind()[size_t(la)];
      const T av = a.values()[size_t(la)];
      for (index_t lb = b.rowptr()[size_t(k)]; lb < b.rowptr()[size_t(k) + 1]; ++lb) {
        const index_t j = b.colind()[size_t(lb)];
        if (marker[size_t(j)] != i) {
          marker[size_t(j)] = i;
          work[size_t(j)] = T(0);
          pattern.push_back(j);
        }
        work[size_t(j)] += av * b.values()[size_t(lb)];
      }
    }
    std::sort(pattern.begin(), pattern.end());
    for (const index_t j : pattern) {
      colind.push_back(j);
      values.push_back(work[size_t(j)]);
    }
    rowptr[size_t(i) + 1] = index_t(colind.size());
  }
  return CsrMatrix<T>(rows, cols, std::move(rowptr), std::move(colind), std::move(values));
}

// Galerkin triple product P^T A P (AMG coarse operator).
template <class T>
CsrMatrix<T> triple_product(const CsrMatrix<T>& p, const CsrMatrix<T>& a) {
  return multiply(transpose(p), multiply(a, p));
}

// Extract the square submatrix on `rows` (global-to-local renumbering;
// entries whose column is outside the set are dropped — the Dirichlet
// truncation used by ASM subdomain matrices).
template <class T>
CsrMatrix<T> extract_submatrix(const CsrMatrix<T>& a, const std::vector<index_t>& rows) {
  BKR_REQUIRE(a.rows() == a.cols(), "a.rows", a.rows(), "a.cols", a.cols());
  std::vector<index_t> g2l(size_t(a.cols()), -1);
  for (size_t l = 0; l < rows.size(); ++l) g2l[size_t(rows[l])] = index_t(l);
  const index_t n = index_t(rows.size());
  std::vector<index_t> rowptr(size_t(n) + 1, 0);
  std::vector<index_t> colind;
  std::vector<T> values;
  for (index_t li = 0; li < n; ++li) {
    const index_t gi = rows[size_t(li)];
    for (index_t l = a.rowptr()[size_t(gi)]; l < a.rowptr()[size_t(gi) + 1]; ++l) {
      const index_t lj = g2l[size_t(a.colind()[size_t(l)])];
      if (lj < 0) continue;
      colind.push_back(lj);
      values.push_back(a.values()[size_t(l)]);
    }
    rowptr[size_t(li) + 1] = index_t(colind.size());
  }
  return CsrMatrix<T>(n, n, std::move(rowptr), std::move(colind), std::move(values));
}

}  // namespace bkr
