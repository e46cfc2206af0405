// Hand-written BLAS-like kernels on column-major views.
//
// The library does not depend on an external BLAS (the paper uses MKL);
// these loops are written for correctness first and for reasonable cache
// behaviour on the small-to-medium dense blocks that appear in Krylov
// methods (Hessenberg matrices of order p*(m+1) <= ~2000, Gram matrices of
// order p*k <= ~320). The naming follows BLAS so readers can map calls
// back to the paper's cost analysis.
//
// gemm's two hot branches are register-blocked four wide without changing
// a single rounding. Trans::C/N computes four output rows per pass over
// b(:,j), with one accumulator per row, and each accumulator sums over l
// in exactly chunk_dot's order. Trans::N/N applies four columns of A per
// pass over c(:,j) as (((c + a0*b0) + a1*b1) + a2*b2) + a3*b3, the same
// per-element sequence as four single-column updates. The legacy loop
// skips a zero coefficient b(l,j), and adding the +/-0 product instead
// could flip a -0.0 in C (or turn an inf in A into NaN), so a group of
// four holding a zero coefficient falls back to single columns. The
// blocking only regroups independent work: each output element sees the
// same operations on the same operands in the same order, hence the same
// bits. No flag is involved (no FMA contraction, no -ffast-math).
//
// Every product inside a kernel loop is written mul(a, b) (common/
// types.hpp). For real scalars that is a * b. For complex scalars it is
// the two expressions GCC's own complex product computes, without the
// NaN test and __muldc3 call that follow them; that branch kept each
// complex loop scalar. A finite result has the same bits as operator*,
// so the complex kernels keep their results and only run faster; the
// bits can differ only where operator* itself would be non-finite. See
// mul's comment for the exact condition. Division is left alone.
// The complex<double> overloads of the gemm N/N and C/N kernels and of
// the LDL^T row updates go one step further and hold one complex value
// per 16-byte register (la/complex_reg.hpp): cmul there is mul with its
// commuting products and sums reordered, so these kernels have mul's bits
// for every non-NaN result; only a NaN's payload or sign may differ.
//
// Every kernel that appears on a solver hot path takes an optional
// KernelExecutor. With a null executor (the default) the serial loops
// run on the calling thread. With an executor, the kernel fans out over the
// thread pool under the determinism contract of common/exec.hpp:
//  * partition-type kernels (gemm panels, trsm blocks) keep the exact
//    per-output-element operation order of the serial code, so they are
//    bitwise identical to it at every thread count;
//  * reduction-type kernels (dot, norm2, column_norms) switch to a
//    fixed-order chunked summation (kReduceChunk elements per partial,
//    partials combined in chunk-index order) whose result is bitwise
//    identical at every thread count but differs from the legacy straight
//    sum in rounding. The switch is decided by problem size only.
#pragma once

#include <cmath>
#include <vector>

#include "common/contracts.hpp"
#include "common/exec.hpp"
#include "la/complex_reg.hpp"
#include "la/dense.hpp"

namespace bkr {

enum class Trans { N, C };  // no-transpose / conjugate-transpose

// Elements per partial sum of the deterministic chunked reductions. Fixed
// (never derived from the thread count) so the summation tree depends on
// the problem size only.
inline constexpr index_t kReduceChunk = 2048;

namespace detail {

// The complex<double> overloads below hold one value per 16-byte
// register (see the header comment).
using creg::Bcast;
using creg::bcast;
using creg::bcast_cdot;
using creg::cload;
using creg::cmul;
using creg::cplx;
using creg::cstore;
using creg::v2d;

// Straight conjugated dot over a contiguous range; the single compiled
// body shared by the serial and pooled schedules of every reduction.
template <class T>
T chunk_dot(index_t n, const T* x, const T* y) {
  T s(0);
  for (index_t i = 0; i < n; ++i) s += mul(conj(x[i]), y[i]);
  return s;
}

template <class T>
real_t<T> chunk_sumsq(index_t n, const T* x) {
  real_t<T> s(0);
  for (index_t i = 0; i < n; ++i) {
    const auto a = abs_val(x[i]);
    s += a * a;
  }
  return s;
}

// Four conjugated dots of a0..a3 against one y, each summed in
// chunk_dot's order. The four chains are independent, so their add
// latencies overlap, and y is streamed once for all four.
template <class T>
void chunk_dot4(index_t n, const T* a0, const T* a1, const T* a2, const T* a3, const T* y,
                T* out) {
  T s0(0), s1(0), s2(0), s3(0);
  for (index_t i = 0; i < n; ++i) {
    const T yi = y[i];
    s0 += mul(conj(a0[i]), yi);
    s1 += mul(conj(a1[i]), yi);
    s2 += mul(conj(a2[i]), yi);
    s3 += mul(conj(a3[i]), yi);
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

// The complex form, one value per register (la/complex_reg.hpp): y's
// broadcast pair is built once per i and serves all four products.
inline void chunk_dot4(index_t n, const cplx* a0, const cplx* a1, const cplx* a2,
                       const cplx* a3, const cplx* y, cplx* out) {
  v2d s0{0.0, 0.0}, s1{0.0, 0.0}, s2{0.0, 0.0}, s3{0.0, 0.0};
  for (index_t i = 0; i < n; ++i) {
    const Bcast yi = bcast_cdot(y[i]);
    s0 += cmul(yi, cload(a0 + i));
    s1 += cmul(yi, cload(a1 + i));
    s2 += cmul(yi, cload(a2 + i));
    s3 += cmul(yi, cload(a3 + i));
  }
  cstore(out, s0);
  cstore(out + 1, s1);
  cstore(out + 2, s2);
  cstore(out + 3, s3);
}

// c += a * s over m entries, skipping a zero coefficient (the legacy
// single-column update of gemm's N/N panel).
template <class T>
void update1(index_t m, const T* a, T s, T* c) {
  if (s == T(0)) return;
  for (index_t i = 0; i < m; ++i) c[i] += mul(a[i], s);
}
inline void update1(index_t m, const cplx* a, cplx s, cplx* c) {
  if (s == cplx(0)) return;
  const Bcast b = bcast(s);
  for (index_t i = 0; i < m; ++i) cstore(c + i, cload(c + i) + cmul(b, cload(a + i)));
}

// Four single-column updates fused into one pass over c; every element
// sees them in the order a0, a1, a2, a3. The coefficients must be nonzero.
template <class T>
void update4(index_t m, const T* a0, const T* a1, const T* a2, const T* a3, T s0, T s1, T s2,
             T s3, T* c) {
  for (index_t i = 0; i < m; ++i)
    c[i] = (((c[i] + mul(a0[i], s0)) + mul(a1[i], s1)) + mul(a2[i], s2)) + mul(a3[i], s3);
}
inline void update4(index_t m, const cplx* a0, const cplx* a1, const cplx* a2, const cplx* a3,
                    cplx s0, cplx s1, cplx s2, cplx s3, cplx* c) {
  const Bcast b0 = bcast(s0), b1 = bcast(s1), b2 = bcast(s2), b3 = bcast(s3);
  for (index_t i = 0; i < m; ++i) {
    const v2d t = ((cload(c + i) + cmul(b0, cload(a0 + i))) + cmul(b1, cload(a1 + i))) +
                  cmul(b2, cload(a2 + i));
    cstore(c + i, t + cmul(b3, cload(a3 + i)));
  }
}

// The forward and backward updates of the LDL^T solve (direct/factor.cpp)
// on its interleaved panel, where row i of w values starts at x + i * ld.
// For one factor column, a[l] and idx[l] (l = 0 .. count-1) are its
// entries and their rows.
//
// Forward: row idx[l] -= a[l] * src, for each l; src is the column's own
// row and no other row of the column.
template <class T>
void scatter_sub_mul(index_t w, index_t count, const T* a, const index_t* idx, T* x, index_t ld,
                     const T* src) {
  for (index_t l = 0; l < count; ++l) {
    T* y = x + idx[l] * ld;
    for (index_t r = 0; r < w; ++r) y[r] -= mul(a[l], src[r]);
  }
}

// Backward: dst -= a[l] * row idx[l], for l in ascending order; dst is
// the column's own row and no other row of the column.
template <class T>
void gather_sub_mul(index_t w, index_t count, const T* a, const index_t* idx, const T* x,
                    index_t ld, T* dst) {
  for (index_t l = 0; l < count; ++l) {
    const T* y = x + idx[l] * ld;
    for (index_t r = 0; r < w; ++r) dst[r] -= mul(a[l], y[r]);
  }
}

// The complex forms take C values of the row at a time (C = 4, then 2
// and 1 for the rest) and keep them in registers across the column's
// entries: src and its swapped pairs in the forward update, the running
// dst in the backward one. Every value still sees its updates in the
// order of the scalar loops, so only the grouping of independent work
// changes.
template <int C>
void scatter_sub_mul_chunk(index_t count, const cplx* a, const index_t* idx, cplx* x, index_t ld,
                           const cplx* src) {
  v2d s[C], t[C];
  for (int k = 0; k < C; ++k) {
    s[k] = cload(src + k);
    t[k] = creg::swap(s[k]);
  }
  for (index_t l = 0; l < count; ++l) {
    const Bcast b = bcast(a[l]);
    cplx* y = x + idx[l] * ld;
    for (int k = 0; k < C; ++k) cstore(y + k, cload(y + k) - cmul(b, s[k], t[k]));
  }
}

template <int C>
void gather_sub_mul_chunk(index_t count, const cplx* a, const index_t* idx, const cplx* x,
                          index_t ld, cplx* dst) {
  v2d d[C];
  for (int k = 0; k < C; ++k) d[k] = cload(dst + k);
  for (index_t l = 0; l < count; ++l) {
    const Bcast b = bcast(a[l]);
    const cplx* y = x + idx[l] * ld;
    for (int k = 0; k < C; ++k) d[k] = d[k] - cmul(b, cload(y + k));
  }
  for (int k = 0; k < C; ++k) cstore(dst + k, d[k]);
}

inline void scatter_sub_mul(index_t w, index_t count, const cplx* a, const index_t* idx,
                            cplx* x, index_t ld, const cplx* src) {
  index_t r = 0;
  for (; r + 4 <= w; r += 4) scatter_sub_mul_chunk<4>(count, a, idx, x + r, ld, src + r);
  if (r + 2 <= w) {
    scatter_sub_mul_chunk<2>(count, a, idx, x + r, ld, src + r);
    r += 2;
  }
  if (r < w) scatter_sub_mul_chunk<1>(count, a, idx, x + r, ld, src + r);
}

inline void gather_sub_mul(index_t w, index_t count, const cplx* a, const index_t* idx,
                           const cplx* x, index_t ld, cplx* dst) {
  index_t r = 0;
  for (; r + 4 <= w; r += 4) gather_sub_mul_chunk<4>(count, a, idx, x + r, ld, dst + r);
  if (r + 2 <= w) {
    gather_sub_mul_chunk<2>(count, a, idx, x + r, ld, dst + r);
    r += 2;
  }
  if (r < w) gather_sub_mul_chunk<1>(count, a, idx, x + r, ld, dst + r);
}

// y := y * a over w entries: the diagonal step of the LDL^T solve, a the
// stored inverse pivot. mul(y, a) and cmul(bcast(a), y) differ only in
// the order of commuting products and sums.
template <class T>
void scale_by(index_t w, T a, T* y) {
  for (index_t r = 0; r < w; ++r) y[r] = mul(y[r], a);
}
inline void scale_by(index_t w, cplx a, cplx* y) {
  const Bcast b = bcast(a);
  for (index_t r = 0; r < w; ++r) cstore(y + r, cmul(b, cload(y + r)));
}

inline index_t reduce_chunks(index_t n) { return (n + kReduceChunk - 1) / kReduceChunk; }

// Pairwise binary-tree fold of the chunk partials, level by level:
// p[i] = p[2i] + p[2i+1], an odd tail carried up unchanged. The tree shape
// depends only on the partial count — never on lanes() and never on the
// shard count that produced the leaves — so the executed reduction tree of
// the sharded SPMD layer returns a bitwise shard-count-invariant result:
// every shard contributes leaf partials over the same fixed kReduceChunk
// grid, and the merge order is a pure function of the problem size.
template <class V>
V tree_fold(V* p, index_t m) {
  if (m <= 0) return V(0);
  while (m > 1) {
    const index_t half = m / 2;
    for (index_t i = 0; i < half; ++i) p[i] = p[2 * i] + p[2 * i + 1];
    if (m % 2 != 0) {
      p[half] = p[m - 1];
      m = half + 1;
    } else {
      m = half;
    }
  }
  return p[0];
}

// Evenly split [0, n) into `parts` contiguous ranges; boundary i of the
// split depends on (n, parts) only.
inline index_t even_split(index_t n, index_t parts, index_t i) {
  return (n / parts) * i + std::min(i, n % parts);
}

// Tasks per pooled dispatch: a small multiple of the lane count so the
// static chunking of ThreadPool::parallel_for stays load-balanced.
inline index_t fanout_tasks(const KernelExecutor* ex, index_t n) {
  const index_t want = ex->lanes() * 4;
  return n < want ? (n > 0 ? n : 1) : want;
}

}  // namespace detail

// C = alpha * op(A) * op(B) + beta * C.
template <class T>
BKR_HOT void gemm(Trans ta, Trans tb, T alpha, MatrixView<const T> a, MatrixView<const T> b, T beta,
          MatrixView<T> c, const KernelExecutor* ex = nullptr) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::N) ? a.cols() : a.rows();
  BKR_REQUIRE(((ta == Trans::N) ? a.rows() : a.cols()) == m, "op(a).rows",
              (ta == Trans::N) ? a.rows() : a.cols(), "c.rows", m);
  BKR_REQUIRE(((tb == Trans::N) ? b.rows() : b.cols()) == k, "op(b).rows",
              (tb == Trans::N) ? b.rows() : b.cols(), "op(a).cols", k);
  BKR_REQUIRE(((tb == Trans::N) ? b.cols() : b.rows()) == n, "op(b).cols",
              (tb == Trans::N) ? b.cols() : b.rows(), "c.cols", n);

  if (beta == T(0)) {
    c.set_zero();
  } else if (beta != T(1)) {
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i) c(i, j) = mul(c(i, j), beta);
  }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;

  const bool fan = ex != nullptr && ex->engage(Kernel::Gemm, m * n * k);

  if (ta == Trans::N && tb == Trans::N) {
    // C(:,j) += alpha * A * B(:,j) — column updates, unit-stride in A,
    // four columns of A per pass over C(:,j) (see the header). Parallel
    // over output column panels; the per-element accumulation order over
    // l is unchanged, so panels are bitwise independent of the partition.
    auto panel = [&](index_t j0, index_t j1) {
      for (index_t j = j0; j < j1; ++j) {
        T* cj = c.col(j);
        index_t l = 0;
        for (; l + 4 <= k; l += 4) {
          const T s0 = mul(alpha, b(l, j)), s1 = mul(alpha, b(l + 1, j));
          const T s2 = mul(alpha, b(l + 2, j)), s3 = mul(alpha, b(l + 3, j));
          if (s0 == T(0) || s1 == T(0) || s2 == T(0) || s3 == T(0)) {
            detail::update1(m, a.col(l), s0, cj);
            detail::update1(m, a.col(l + 1), s1, cj);
            detail::update1(m, a.col(l + 2), s2, cj);
            detail::update1(m, a.col(l + 3), s3, cj);
          } else {
            detail::update4(m, a.col(l), a.col(l + 1), a.col(l + 2), a.col(l + 3), s0, s1, s2,
                            s3, cj);
          }
        }
        for (; l < k; ++l) detail::update1(m, a.col(l), mul(alpha, b(l, j)), cj);
      }
    };
    if (!fan || n == 1) {
      panel(0, n);
    } else {
      const index_t parts = detail::fanout_tasks(ex, n);
      ex->run(Kernel::Gemm, parts, [&](index_t t) {
        panel(detail::even_split(n, parts, t), detail::even_split(n, parts, t + 1));
      });
    }
  } else if (ta == Trans::C && tb == Trans::N) {
    // C(i,j) += alpha * A(:,i)^H B(:,j) — dot products, unit stride in
    // both, four rows of C per pass over B(:,j) (see the header). Parallel
    // over (row group, column) pairs; each entry is one independent dot,
    // computed in the same l order either way.
    const index_t groups = (m + 3) / 4;
    auto rows = [&](index_t g, index_t j) {
      const T* bj = b.col(j);
      const index_t i0 = 4 * g;
      if (i0 + 4 <= m) {
        T s[4];
        detail::chunk_dot4(k, a.col(i0), a.col(i0 + 1), a.col(i0 + 2), a.col(i0 + 3), bj, s);
        for (index_t q = 0; q < 4; ++q) c(i0 + q, j) += mul(alpha, s[q]);
      } else {
        for (index_t i = i0; i < m; ++i) c(i, j) += mul(alpha, detail::chunk_dot(k, a.col(i), bj));
      }
    };
    if (!fan || groups * n == 1) {
      for (index_t j = 0; j < n; ++j)
        for (index_t g = 0; g < groups; ++g) rows(g, j);
    } else {
      ex->run(Kernel::Gemm, groups * n, [&](index_t t) { rows(t % groups, t / groups); });
    }
  } else if (ta == Trans::N && tb == Trans::C) {
    auto panel = [&](index_t j0, index_t j1) {
      for (index_t l = 0; l < k; ++l) {
        const T* al = a.col(l);
        for (index_t j = j0; j < j1; ++j) {
          const T blj = mul(alpha, conj(b(j, l)));
          if (blj == T(0)) continue;
          T* cj = c.col(j);
          for (index_t i = 0; i < m; ++i) cj[i] += mul(al[i], blj);
        }
      }
    };
    if (!fan || n == 1) {
      panel(0, n);
    } else {
      const index_t parts = detail::fanout_tasks(ex, n);
      ex->run(Kernel::Gemm, parts, [&](index_t t) {
        panel(detail::even_split(n, parts, t), detail::even_split(n, parts, t + 1));
      });
    }
  } else {  // C^H * B^H
    auto entry = [&](index_t i, index_t j) {
      T s(0);
      for (index_t l = 0; l < k; ++l) s += mul(conj(a(l, i)), conj(b(j, l)));
      c(i, j) += mul(alpha, s);
    };
    if (!fan || m * n == 1) {
      for (index_t j = 0; j < n; ++j)
        for (index_t i = 0; i < m; ++i) entry(i, j);
    } else {
      ex->run(Kernel::Gemm, m * n, [&](index_t t) { entry(t % m, t / m); });
    }
  }
}

// y = alpha * op(A) * x + beta * y.
template <class T>
BKR_HOT void gemv(Trans ta, T alpha, MatrixView<const T> a, const T* x, T beta, T* y) {
  const index_t m = (ta == Trans::N) ? a.rows() : a.cols();
  const index_t k = (ta == Trans::N) ? a.cols() : a.rows();
  if (beta == T(0)) {
    for (index_t i = 0; i < m; ++i) y[i] = T(0);
  } else if (beta != T(1)) {
    for (index_t i = 0; i < m; ++i) y[i] = mul(y[i], beta);
  }
  if (ta == Trans::N) {
    for (index_t l = 0; l < k; ++l) {
      const T xl = mul(alpha, x[l]);
      const T* al = a.col(l);
      for (index_t i = 0; i < m; ++i) y[i] += mul(al[i], xl);
    }
  } else {
    for (index_t i = 0; i < m; ++i) {
      const T* ai = a.col(i);
      T s(0);
      for (index_t l = 0; l < k; ++l) s += mul(conj(ai[l]), x[l]);
      y[i] += mul(alpha, s);
    }
  }
}

// Conjugated dot product x^H y over n entries (legacy straight sum).
template <class T>
BKR_HOT T dot(index_t n, const T* x, const T* y) {
  return detail::chunk_dot(n, x, y);
}

// Deterministic chunked dot: fixed kReduceChunk partials combined in chunk
// order. The result is independent of the executor's lane count.
template <class T>
BKR_HOT T dot(index_t n, const T* x, const T* y, const KernelExecutor* ex) {
  if (ex == nullptr || !ex->engage(Kernel::Dot, n)) return detail::chunk_dot(n, x, y);
  const index_t nchunks = detail::reduce_chunks(n);
  std::vector<T> partial(static_cast<size_t>(nchunks));
  ex->run(Kernel::Dot, nchunks, [&](index_t cidx) {
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(cidx)] =
        detail::chunk_dot(std::min(kReduceChunk, n - begin), x + begin, y + begin);
  });
  T s(0);
  for (index_t cidx = 0; cidx < nchunks; ++cidx) s += partial[size_t(cidx)];
  return s;
}

template <class T>
BKR_HOT real_t<T> norm2(index_t n, const T* x) {
  return std::sqrt(detail::chunk_sumsq(n, x));
}

// Deterministic chunked 2-norm (same contract as the 4-argument dot).
template <class T>
BKR_HOT real_t<T> norm2(index_t n, const T* x, const KernelExecutor* ex) {
  if (ex == nullptr || !ex->engage(Kernel::Norms, n))
    return std::sqrt(detail::chunk_sumsq(n, x));
  const index_t nchunks = detail::reduce_chunks(n);
  std::vector<real_t<T>> partial(static_cast<size_t>(nchunks));
  ex->run(Kernel::Norms, nchunks, [&](index_t cidx) {
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(cidx)] = detail::chunk_sumsq(std::min(kReduceChunk, n - begin), x + begin);
  });
  real_t<T> s(0);
  for (index_t cidx = 0; cidx < nchunks; ++cidx) s += partial[size_t(cidx)];
  return std::sqrt(s);
}

// Per-column 2-norms of an n x p block: the batched reduction that pseudo-
// block methods fuse into a single global synchronization. With an
// executor, all p columns' chunk partials form one task grid (the fused
// multi-lane reduction); each column combines its own partials in order.
template <class T>
BKR_HOT void column_norms(MatrixView<const T> x, real_t<T>* out, const KernelExecutor* ex = nullptr) {
  const index_t n = x.rows(), p = x.cols();
  if (ex == nullptr || p == 0 || !ex->engage(Kernel::Norms, n * p)) {
    for (index_t j = 0; j < p; ++j) out[j] = norm2(n, x.col(j));
    return;
  }
  const index_t nchunks = detail::reduce_chunks(n);
  if (nchunks == 0) {
    for (index_t j = 0; j < p; ++j) out[j] = real_t<T>(0);
    return;
  }
  std::vector<real_t<T>> partial(static_cast<size_t>(nchunks * p));
  ex->run(Kernel::Norms, nchunks * p, [&](index_t t) {
    const index_t j = t / nchunks, cidx = t % nchunks;
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(t)] =
        detail::chunk_sumsq(std::min(kReduceChunk, n - begin), x.col(j) + begin);
  });
  for (index_t j = 0; j < p; ++j) {
    real_t<T> s(0);
    for (index_t cidx = 0; cidx < nchunks; ++cidx) s += partial[size_t(j * nchunks + cidx)];
    out[j] = std::sqrt(s);
  }
}

// Executed binary-tree reductions (sharded SPMD layer, DESIGN.md §13).
//
// The legacy chunked reductions above combine partials linearly in chunk
// order; these variants combine them through detail::tree_fold — the
// merge structure a distributed binary-tree all-reduce performs. Leaves
// live on the fixed kReduceChunk grid, so the tree shape (and therefore
// the floating-point result) depends on the vector length only: sharded
// solves are bitwise identical at 1 and N shards, at every thread count.
// An executor parallelizes leaf computation; the fold itself is serial
// (the partial count is tiny next to n).

template <class T>
BKR_HOT T tree_dot(index_t n, const T* x, const T* y, const KernelExecutor* ex = nullptr) {
  const index_t nchunks = detail::reduce_chunks(n);
  if (nchunks <= 1) return detail::chunk_dot(n, x, y);
  std::vector<T> partial(static_cast<size_t>(nchunks));
  auto leaf = [&](index_t cidx) {
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(cidx)] =
        detail::chunk_dot(std::min(kReduceChunk, n - begin), x + begin, y + begin);
  };
  if (ex != nullptr && ex->engage(Kernel::Dot, n)) {
    ex->run(Kernel::Dot, nchunks, leaf);
  } else {
    for (index_t cidx = 0; cidx < nchunks; ++cidx) leaf(cidx);
  }
  return detail::tree_fold(partial.data(), nchunks);
}

// Fused per-column tree norms: all p columns' leaves form one task grid
// (one global synchronization, as in column_norms); each column folds its
// own partials through the same length-determined tree.
template <class T>
BKR_HOT void tree_column_norms(MatrixView<const T> x, real_t<T>* out,
                               const KernelExecutor* ex = nullptr) {
  const index_t n = x.rows(), p = x.cols();
  const index_t nchunks = detail::reduce_chunks(n);
  if (p == 0) return;
  if (nchunks <= 1) {
    for (index_t j = 0; j < p; ++j) out[j] = std::sqrt(detail::chunk_sumsq(n, x.col(j)));
    return;
  }
  std::vector<real_t<T>> partial(static_cast<size_t>(nchunks * p));
  auto leaf = [&](index_t t) {
    const index_t j = t / nchunks, cidx = t % nchunks;
    const index_t begin = cidx * kReduceChunk;
    partial[size_t(t)] = detail::chunk_sumsq(std::min(kReduceChunk, n - begin), x.col(j) + begin);
  };
  if (ex != nullptr && ex->engage(Kernel::Norms, n * p)) {
    ex->run(Kernel::Norms, nchunks * p, leaf);
  } else {
    for (index_t t = 0; t < nchunks * p; ++t) leaf(t);
  }
  for (index_t j = 0; j < p; ++j)
    out[j] = std::sqrt(detail::tree_fold(partial.data() + j * nchunks, nchunks));
}

template <class T>
BKR_HOT void axpy(index_t n, T alpha, const T* x, T* y) {
  for (index_t i = 0; i < n; ++i) y[i] += mul(alpha, x[i]);
}

template <class T>
BKR_HOT void scal(index_t n, T alpha, T* x) {
  for (index_t i = 0; i < n; ++i) x[i] = mul(x[i], alpha);
}

// Frobenius norm of a view.
template <class T>
BKR_HOT real_t<T> norm_fro(MatrixView<const T> a) {
  real_t<T> s(0);
  for (index_t j = 0; j < a.cols(); ++j)
    for (index_t i = 0; i < a.rows(); ++i) {
      const auto v = abs_val(a(i, j));
      s += v * v;
    }
  return std::sqrt(s);
}

// Triangular solves with an upper-triangular matrix R (as produced by the
// QR and Cholesky factorizations).

// X := R^{-1} X (left solve, back substitution). Columns are independent;
// with an executor they fan out, each solved in the serial order.
template <class T>
BKR_HOT void trsm_left_upper(MatrixView<const T> r, MatrixView<T> x,
                             const KernelExecutor* ex = nullptr) {
  const index_t n = r.rows();
  BKR_REQUIRE(r.cols() == n && x.rows() == n, "r.rows", n, "r.cols", r.cols(), "x.rows", x.rows());
  auto solve_col = [&](index_t j) {
    T* xj = x.col(j);
    for (index_t i = n - 1; i >= 0; --i) {
      T s = xj[i];
      for (index_t l = i + 1; l < n; ++l) s -= mul(r(i, l), xj[l]);
      xj[i] = s / r(i, i);
    }
  };
  if (ex != nullptr && x.cols() > 1 && ex->engage(Kernel::Trsm, n * n * x.cols())) {
    ex->run(Kernel::Trsm, x.cols(), solve_col);
  } else {
    for (index_t j = 0; j < x.cols(); ++j) solve_col(j);
  }
}

// X := X R^{-1} (right solve; used by CholQR to form Q = V R^{-1}). Every
// row of X transforms independently through the same (j, l) elimination
// order, so the parallel row blocks are bitwise identical to the serial
// sweep.
template <class T>
BKR_HOT void trsm_right_upper(MatrixView<const T> r, MatrixView<T> x,
                              const KernelExecutor* ex = nullptr) {
  const index_t p = r.rows();
  BKR_REQUIRE(r.cols() == p && x.cols() == p, "r.rows", p, "r.cols", r.cols(), "x.cols", x.cols());
  const index_t n = x.rows();
  auto rows = [&](index_t i0, index_t i1) {
    for (index_t j = 0; j < p; ++j) {
      T* xj = x.col(j);
      for (index_t l = 0; l < j; ++l) {
        const T rlj = r(l, j);
        if (rlj == T(0)) continue;
        const T* xl = x.col(l);
        for (index_t i = i0; i < i1; ++i) xj[i] -= mul(xl[i], rlj);
      }
      const T inv = T(1) / r(j, j);
      for (index_t i = i0; i < i1; ++i) xj[i] = mul(xj[i], inv);
    }
  };
  if (ex != nullptr && n > 1 && ex->engage(Kernel::Trsm, n * p * p)) {
    const index_t parts = detail::fanout_tasks(ex, n);
    ex->run(Kernel::Trsm, parts, [&](index_t t) {
      rows(detail::even_split(n, parts, t), detail::even_split(n, parts, t + 1));
    });
  } else {
    rows(0, n);
  }
}

// Hermitian rank-k update C := alpha * A^H A + beta * C (only the
// conjugate-transpose form the CholQR Gram matrix needs). Each (i, j)
// pair is one independent column dot, so the pair-parallel schedule is
// bitwise identical to the serial sweep at any thread count.
template <class T>
BKR_HOT void herk(Trans trans, T alpha, MatrixView<const T> a, T beta, MatrixView<T> c,
          const KernelExecutor* ex = nullptr) {
  BKR_REQUIRE(trans == Trans::C, "trans==C", index_t(trans == Trans::C ? 1 : 0));
  const index_t p = a.cols(), n = a.rows();
  BKR_ASSERT_SHAPE(c, p, p);
  auto pair = [&](index_t i, index_t j) {  // i <= j
    const T d = detail::chunk_dot(n, a.col(i), a.col(j));
    const T s = (alpha == T(1)) ? d : alpha * d;
    const T upper = (beta == T(0)) ? s : s + beta * c(i, j);
    const T lower = (beta == T(0)) ? conj(s) : conj(s) + beta * c(j, i);
    c(i, j) = upper;
    c(j, i) = lower;  // on the diagonal this leaves conj(s), matching gram()
  };
  const index_t npairs = p * (p + 1) / 2;
  if (ex != nullptr && npairs > 1 && ex->engage(Kernel::Herk, n * npairs)) {
    ex->run(Kernel::Herk, npairs, [&](index_t t) {
      // Unrank t over the upper triangle, column-major: pairs of column j
      // occupy [j(j+1)/2, (j+1)(j+2)/2).
      index_t j = 0;
      while ((j + 1) * (j + 2) / 2 <= t) ++j;
      pair(t - j * (j + 1) / 2, j);
    });
  } else {
    for (index_t j = 0; j < p; ++j)
      for (index_t i = 0; i <= j; ++i) pair(i, j);
  }
}

// Gram matrix G = V^H V (Hermitian, order p). One pass; in a distributed
// run this is the single-reduction kernel of CholQR.
template <class T>
BKR_HOT void gram(MatrixView<const T> v, MatrixView<T> g, const KernelExecutor* ex = nullptr) {
  herk<T>(Trans::C, T(1), v, T(0), g, ex);
}

}  // namespace bkr
