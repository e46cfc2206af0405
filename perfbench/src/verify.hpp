// Independent correctness check: the true relative residual of one
// solution column, computed with the benchmark's own CSR loop so that a
// defect in the library's apply cannot hide a wrong answer.
#pragma once

#include <cmath>
#include <complex>

#include "sparse/csr.hpp"

namespace perfbench {

// A true residual above this multiple of the solver tolerance is a wrong
// answer. The solvers stop on a recursive residual estimate; the true
// residual may sit slightly above it after rounding.
inline constexpr double kResidualSlack = 10.0;

template <class T>
double true_relative_residual(const bkr::CsrMatrix<T>& a, const T* b, const T* x) {
  const auto& rowptr = a.rowptr();
  const auto& colind = a.colind();
  const auto& values = a.values();
  double rr = 0, bb = 0;
  for (bkr::index_t i = 0; i < a.rows(); ++i) {
    T ax(0);
    for (bkr::index_t l = rowptr[size_t(i)]; l < rowptr[size_t(i) + 1]; ++l)
      ax += values[size_t(l)] * x[colind[size_t(l)]];
    rr += std::norm(b[i] - ax);
    bb += std::norm(b[i]);
  }
  return bb > 0 ? std::sqrt(rr / bb) : std::sqrt(rr);
}

}  // namespace perfbench
