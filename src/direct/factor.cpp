#include "direct/factor.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <type_traits>

#include "common/contracts.hpp"
#include "common/types.hpp"
#include "la/blas.hpp"
#include "parallel/thread_pool.hpp"
#include "sparse/graph.hpp"

namespace bkr {

template <class T>
SparseLDLT<T>::SparseLDLT(const CsrMatrix<T>& a, FactorOrdering ordering) : n_(a.rows()) {
  if (a.rows() != a.cols()) throw std::invalid_argument("SparseLDLT: matrix must be square");
  const Graph g = adjacency_of(a);
  switch (ordering) {
    case FactorOrdering::NestedDissection:
      perm_ = nested_dissection(g);
      break;
    case FactorOrdering::Rcm:
      perm_ = rcm_ordering(g);
      break;
    case FactorOrdering::Natural:
      perm_.resize(size_t(n_));
      std::iota(perm_.begin(), perm_.end(), index_t(0));
      break;
  }
  const CsrMatrix<T> pa = permute_symmetric(a, perm_);

  // --- symbolic: elimination tree and column counts (upper triangle) ---
  const index_t n = n_;
  std::vector<index_t> parent(size_t(n), -1);
  std::vector<index_t> flag(size_t(n), -1);
  std::vector<index_t> lnz(size_t(n), 0);
  for (index_t k = 0; k < n; ++k) {
    parent[size_t(k)] = -1;
    flag[size_t(k)] = k;
    for (index_t p = pa.rowptr()[size_t(k)]; p < pa.rowptr()[size_t(k) + 1]; ++p) {
      index_t i = pa.colind()[size_t(p)];
      if (i >= k) continue;
      for (; flag[size_t(i)] != k; i = parent[size_t(i)]) {
        if (parent[size_t(i)] == -1) parent[size_t(i)] = k;
        ++lnz[size_t(i)];
        flag[size_t(i)] = k;
      }
    }
  }
  lp_.resize(size_t(n) + 1);
  lp_[0] = 0;
  for (index_t k = 0; k < n; ++k) lp_[size_t(k) + 1] = lp_[size_t(k)] + lnz[size_t(k)];
  li_.resize(size_t(lp_[size_t(n)]));
  lx_.resize(size_t(lp_[size_t(n)]));
  d_.resize(size_t(n));

  // --- numeric: up-looking LDL^T (Davis's LDL, unconjugated) -----------
  std::vector<T> y(size_t(n), T(0));
  std::vector<index_t> pattern(static_cast<size_t>(n));
  std::vector<index_t> lfill(size_t(n), 0);  // current fill of each column
  std::fill(flag.begin(), flag.end(), index_t(-1));
  real_t<T> dmax(0);
  for (index_t k = 0; k < n; ++k) {
    index_t top = n;
    flag[size_t(k)] = k;
    y[size_t(k)] = T(0);
    for (index_t p = pa.rowptr()[size_t(k)]; p < pa.rowptr()[size_t(k) + 1]; ++p) {
      index_t i = pa.colind()[size_t(p)];
      if (i > k) continue;
      y[size_t(i)] += pa.values()[size_t(p)];
      index_t len = 0;
      for (; flag[size_t(i)] != k; i = parent[size_t(i)]) {
        pattern[size_t(len++)] = i;
        flag[size_t(i)] = k;
      }
      while (len > 0) pattern[size_t(--top)] = pattern[size_t(--len)];
    }
    d_[size_t(k)] = y[size_t(k)];
    y[size_t(k)] = T(0);
    for (; top < n; ++top) {
      const index_t i = pattern[size_t(top)];
      const T yi = y[size_t(i)];
      y[size_t(i)] = T(0);
      const index_t p2 = lp_[size_t(i)] + lfill[size_t(i)];
      for (index_t p = lp_[size_t(i)]; p < p2; ++p)
        y[size_t(li_[size_t(p)])] -= mul(lx_[size_t(p)], yi);
      const T lki = yi / d_[size_t(i)];
      d_[size_t(k)] -= mul(lki, yi);
      li_[size_t(p2)] = k;
      lx_[size_t(p2)] = lki;
      ++lfill[size_t(i)];
    }
    const auto mag = abs_val(d_[size_t(k)]);
    dmax = std::max(dmax, mag);
    if (mag <= real_t<T>(1e-14) * std::max(dmax, real_t<T>(1)))
      throw std::runtime_error("SparseLDLT: zero pivot at column " + std::to_string(k));
  }
  // The solve multiplies by the inverse pivots; each is formed once here.
  for (T& dk : d_) dk = T(1) / dk;
}

namespace {

// The three sweeps of the solve on the interleaved block x (w x n), with
// the row updates in register form R (T itself for a real T; la/blas.hpp).
template <class R, class T>
BKR_ALWAYS_INLINE void ldlt_sweeps(const index_t* lp, const index_t* li, const T* lx,
                                   const T* d, MatrixView<T> x) {
  const index_t n = x.cols(), w = x.rows(), ld = x.ld();
  T* const base = x.data();
  // L Y = B (forward); the factor is traversed once for all w columns.
  for (index_t j = 0; j < n; ++j)
    detail::scatter_sub_mul<R>(w, lp[j + 1] - lp[j], lx + lp[j], li + lp[j], base, ld,
                               x.col(j));
  // D Z = Y, by the inverse pivots.
  for (index_t j = 0; j < n; ++j) detail::scale_by<R>(w, d[j], x.col(j));
  // L^T X = Z (backward).
  for (index_t j = n - 1; j >= 0; --j)
    detail::gather_sub_mul<R>(w, lp[j + 1] - lp[j], lx + lp[j], li + lp[j], base, ld,
                              x.col(j));
}

using cplx = std::complex<double>;

BKR_TARGET_AVX2 void ldlt_sweeps_w32(const index_t* lp, const index_t* li, const cplx* lx,
                                     const cplx* d, MatrixView<cplx> x) {
  ldlt_sweeps<creg::W32>(lp, li, lx, d, x);
}

}  // namespace

template <class T>
BKR_HOT void SparseLDLT<T>::solve_interleaved(MatrixView<T> x) const {
  assert(x.cols() == n_);
  const index_t* lp = lp_.data();
  const index_t* li = li_.data();
  if constexpr (std::is_same_v<T, cplx>) {
    if (creg::host_width() == creg::Width::Bytes32) {
      ldlt_sweeps_w32(lp, li, lx_.data(), d_.data(), x);
    } else {
      ldlt_sweeps<creg::W16>(lp, li, lx_.data(), d_.data(), x);
    }
  } else {
    ldlt_sweeps<T>(lp, li, lx_.data(), d_.data(), x);
  }
}

template <class T>
void SparseLDLT<T>::solve(MatrixView<T> b, DenseMatrix<T>& scratch, index_t threads) const {
  const index_t n = n_;
  const index_t p = b.cols();
  assert(b.rows() == n);
  // Gather rows into factor order, interleaved (column i of the scratch is
  // factor row i); every entry is overwritten, so a scratch of the right
  // shape is reused as it is.
  if (scratch.rows() != p || scratch.cols() != n) scratch.resize(p, n);
  for (index_t i = 0; i < n; ++i) {
    const T* src = b.data() + perm_[size_t(i)];
    T* dst = scratch.col(i);
    for (index_t r = 0; r < p; ++r) dst[r] = src[r * b.ld()];
  }
  if (threads <= 1 || p == 1) {
    solve_interleaved(scratch.view());
  } else {
    // A panel is a range of right-hand sides: rows j0 .. j0+w-1 of the
    // interleaved block.
    const index_t panels = std::min(threads, p);
    const index_t width = (p + panels - 1) / panels;
    ThreadPool::global().parallel_for(panels, [&](index_t t) {
      const index_t j0 = t * width;
      const index_t w = std::min(width, p - j0);
      if (w > 0) solve_interleaved(scratch.block(j0, 0, w, n));
    });
  }
  for (index_t i = 0; i < n; ++i) {
    const T* src = scratch.col(i);
    T* dst = b.data() + perm_[size_t(i)];
    for (index_t r = 0; r < p; ++r) dst[r * b.ld()] = src[r];
  }
}

template class SparseLDLT<double>;
template class SparseLDLT<std::complex<double>>;

}  // namespace bkr
