// Serial-oracle equivalence suite for the parallel hot-path kernels.
//
// The determinism contract (src/parallel/kernel_executor.hpp) makes two
// distinct promises, and this suite checks both against executors with
// 1, 2, 7 and hardware_concurrency lanes, for double and complex<double>,
// including empty / 1-row / tall-skinny / non-divisible-by-chunk shapes:
//  * partition-type kernels (spmv, spmm, gemm, herk, trsm) are bitwise
//    identical to the serial code at every thread count; gemm, whose
//    serial loops are register-blocked, is held to a literal per-element
//    triple loop written here, serial and pooled alike, and the fused
//    CSR residual / spmm_add to SpMM followed by the element-wise loop;
//  * reduction-type kernels (dot, norm2, column_norms) are bitwise
//    identical across thread counts (fixed chunk tree), and agree with
//    the legacy straight sum to rounding.
// Cutoffs are set to 1 so even tiny shapes take the executor path. The
// complex product helper mul() that every kernel loop uses is held to the
// compiler's operator* bit for bit, and the complex kernels in register
// form to literal mul loops at both register widths (the 32-byte half
// only where the CPU runs AVX2).
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/dense.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "parallel/kernel_executor.hpp"
#include "sparse/csr.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

constexpr KernelCutoffs kForceParallel{1, 1, 1};

// Executors under test: the contract must hold at every lane count,
// including the degenerate 1-lane executor (which must equal the pooled
// schedules bitwise, not just the legacy serial code).
std::vector<std::unique_ptr<KernelExecutor>> test_executors() {
  std::vector<std::unique_ptr<KernelExecutor>> out;
  out.push_back(std::make_unique<KernelExecutor>(index_t(1), kForceParallel));
  out.push_back(std::make_unique<KernelExecutor>(index_t(2), kForceParallel));
  out.push_back(std::make_unique<KernelExecutor>(index_t(7), kForceParallel));
  const index_t hw = index_t(std::thread::hardware_concurrency());
  if (hw > 0 && hw != 1 && hw != 2 && hw != 7)
    out.push_back(std::make_unique<KernelExecutor>(hw, kForceParallel));
  return out;
}

template <class T>
void expect_identical(MatrixView<const T> got, MatrixView<const T> want, const char* what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (index_t j = 0; j < want.cols(); ++j)
    for (index_t i = 0; i < want.rows(); ++i)
      EXPECT_EQ(got(i, j), want(i, j)) << what << " at (" << i << "," << j << ")";
}

// Random sparse matrix with deliberately skewed row lengths so the
// nnz-balanced splits place boundaries unevenly.
template <class T>
CsrMatrix<T> skewed_sparse(index_t rows, index_t cols, unsigned seed) {
  Rng rng(seed);
  CooBuilder<T> coo(rows, cols);
  for (index_t i = 0; i < rows; ++i) {
    const index_t len = (i < 2) ? std::min<index_t>(cols, 32) : 1 + (i % 5);
    for (index_t l = 0; l < len; ++l) coo.add(i, rng.index(0, cols - 1), rng.scalar<T>());
  }
  return coo.build();
}

// ---------------------------------------------------------------------------
// Partition-type kernels: bitwise equal to the legacy serial reference.
// ---------------------------------------------------------------------------

template <class T>
void check_spmv_spmm(index_t rows, index_t cols, index_t p, unsigned seed) {
  const CsrMatrix<T> a = skewed_sparse<T>(rows, cols, seed);
  const DenseMatrix<T> x = testing::random_matrix<T>(cols, p, seed + 1);
  DenseMatrix<T> want(rows, p);
  a.spmm(MatrixView<const T>(x.data(), cols, p, x.ld()), want.view());  // legacy serial
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> got(rows, p);
    got.set_zero();
    a.spmm(MatrixView<const T>(x.data(), cols, p, x.ld()), got.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(got.data(), rows, p, got.ld()),
                        MatrixView<const T>(want.data(), rows, p, want.ld()), "spmm");
    if (p == 1 && rows > 0) {
      std::vector<T> yv(size_t(rows), T(42));
      a.spmv(x.col(0), yv.data(), ex.get());
      for (index_t i = 0; i < rows; ++i) EXPECT_EQ(yv[size_t(i)], want(i, 0)) << "spmv row " << i;
    }
  }
}

TEST(KernelOracle, SpmvSpmmMatchSerialBitwise) {
  for (index_t p : {index_t(1), index_t(4), index_t(7)}) {
    check_spmv_spmm<double>(200, 150, p, 11);
    check_spmv_spmm<std::complex<double>>(200, 150, p, 12);
  }
  // Edge shapes: empty, single row, tall-skinny input block.
  check_spmv_spmm<double>(0, 5, 3, 13);
  check_spmv_spmm<double>(1, 9, 1, 14);
  check_spmv_spmm<std::complex<double>>(1, 1, 2, 15);
  check_spmv_spmm<double>(513, 4, 2, 16);
}

// residual and spmm_add against spmm followed by the literal element-wise
// loop, serial and pooled, compared bit for bit (memcmp: a flipped -0.0
// fails). Planted: -0.0 in B and Y on rows whose sum is +0.0 (empty rows
// of the skewed matrix and a zeroed X column), and an inf in X and in B.
template <class T>
void check_fused_epilogues(index_t rows, index_t cols, index_t p, unsigned seed) {
  CooBuilder<T> coo(rows, cols);
  {
    const CsrMatrix<T> skew = skewed_sparse<T>(rows, cols, seed);
    for (index_t i = 0; i < rows; ++i) {
      if (i % 7 == 3) continue;  // empty rows: their sum is exactly +0.0
      for (index_t l = skew.rowptr()[size_t(i)]; l < skew.rowptr()[size_t(i) + 1]; ++l)
        coo.add(i, skew.colind()[size_t(l)], skew.values()[size_t(l)]);
    }
  }
  const CsrMatrix<T> a = coo.build();
  DenseMatrix<T> x = testing::random_matrix<T>(cols, p, seed + 1);
  DenseMatrix<T> b = testing::random_matrix<T>(rows, p, seed + 2);
  DenseMatrix<T> y0 = testing::random_matrix<T>(rows, p, seed + 3);
  const T neg_zero = T(-0.0);
  for (index_t i = 0; i < cols; ++i) x(i, p - 1) = T(0);
  x(cols / 2, 0) = T(std::numeric_limits<double>::infinity());
  for (index_t i = 3; i < rows; i += 7)
    for (index_t j = 0; j < p; ++j) b(i, j) = y0(i, j) = neg_zero;
  for (index_t i = 0; i < rows; ++i) b(i, p - 1) = y0(i, p - 1) = neg_zero;
  if (rows > 1) b(1, 0) = T(std::numeric_limits<double>::infinity());

  const auto xv = MatrixView<const T>(x.data(), cols, p, x.ld());
  DenseMatrix<T> ax(rows, p);
  a.spmm(xv, ax.view());
  DenseMatrix<T> want_r(rows, p), want_y = copy_of(y0);
  for (index_t j = 0; j < p; ++j)
    for (index_t i = 0; i < rows; ++i) {
      want_r(i, j) = b(i, j) - ax(i, j);
      want_y(i, j) += ax(i, j);
    }
  std::vector<std::unique_ptr<KernelExecutor>> exs = test_executors();
  exs.insert(exs.begin(), nullptr);  // the serial schedule
  for (const auto& ex : exs) {
    SCOPED_TRACE(::testing::Message() << "p=" << p << " lanes=" << (ex ? ex->lanes() : 0));
    DenseMatrix<T> r = testing::random_matrix<T>(rows, p, seed + 4);
    a.residual(MatrixView<const T>(b.data(), rows, p, b.ld()), xv, r.view(), ex.get());
    testing::expect_same_bits<T>(r, want_r, "residual");
    DenseMatrix<T> y = copy_of(y0);
    a.spmm_add(xv, y.view(), ex.get());
    testing::expect_same_bits<T>(y, want_y, "spmm_add");
  }
}

TEST(KernelOracle, FusedResidualAndSpmmAddMatchSpmmThenLoopBitwise) {
  for (index_t p : {index_t(1), index_t(3), index_t(8), index_t(11)}) {
    check_fused_epilogues<double>(200, 150, p, 21);
    check_fused_epilogues<std::complex<double>>(200, 150, p, 22);
  }
  check_fused_epilogues<double>(1, 9, 1, 23);
  check_fused_epilogues<double>(513, 4, 2, 24);
}

TEST(KernelOracle, BalancedRowSplitsPartitionAllRows) {
  const CsrMatrix<double> a = skewed_sparse<double>(101, 60, 3);
  for (index_t parts : {index_t(1), index_t(2), index_t(7), index_t(101)}) {
    const auto splits = balanced_row_splits(a.rowptr(), a.rows(), parts);
    ASSERT_EQ(index_t(splits.size()), parts + 1);
    EXPECT_EQ(splits.front(), 0);
    EXPECT_EQ(splits.back(), a.rows());
    for (size_t i = 1; i < splits.size(); ++i) EXPECT_LE(splits[i - 1], splits[i]);
  }
  // Degenerate: empty matrix.
  const auto empty = balanced_row_splits(std::vector<index_t>{0}, 0, 4);
  EXPECT_EQ(empty.front(), 0);
  EXPECT_EQ(empty.back(), 0);
}

// Literal per-element reference of gemm's contract, independent of the
// library's blocked loops: beta scaling first, then for every (i, j) the
// terms over l in increasing order. The column-update forms (op(A) = A)
// skip a zero coefficient alpha * op(B)(l, j); the dot forms sum
// conj(A(l, i)) * op(B)(l, j) from zero and add alpha times the sum.
template <class T>
void reference_gemm(Trans ta, Trans tb, T alpha, const DenseMatrix<T>& a, const DenseMatrix<T>& b,
                    T beta, DenseMatrix<T>& c) {
  const index_t m = c.rows(), n = c.cols();
  const index_t k = (ta == Trans::N) ? a.cols() : a.rows();
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      if (beta == T(0))
        c(i, j) = T(0);
      else if (beta != T(1))
        c(i, j) *= beta;
    }
  if (alpha == T(0) || k == 0 || m == 0 || n == 0) return;
  auto opb = [&](index_t l, index_t j) { return tb == Trans::N ? b(l, j) : conj(b(j, l)); };
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < m; ++i) {
      if (ta == Trans::N) {
        for (index_t l = 0; l < k; ++l) {
          const T blj = alpha * opb(l, j);
          if (blj == T(0)) continue;
          c(i, j) += a(i, l) * blj;
        }
      } else {
        T s(0);
        for (index_t l = 0; l < k; ++l) s += conj(a(l, i)) * opb(l, j);
        c(i, j) += alpha * s;
      }
    }
}

// With `planted`, the inputs carry the values the blocked loops must not
// disturb: op(B) column 0 all zero, exact zeros at l = 1 and l = 6 of
// column 1 (inside a group of four), a zero row 1 of op(A), and -0.0 in
// every third entry of C.
template <class T>
void check_gemm(Trans ta, Trans tb, index_t m, index_t n, index_t k, unsigned seed,
                bool planted = false) {
  DenseMatrix<T> a = testing::random_matrix<T>(ta == Trans::N ? m : k, ta == Trans::N ? k : m,
                                               seed);
  DenseMatrix<T> b = testing::random_matrix<T>(tb == Trans::N ? k : n, tb == Trans::N ? n : k,
                                               seed + 1);
  DenseMatrix<T> c0 = testing::random_matrix<T>(m, n, seed + 2);
  if (planted) {
    auto opb = [&](index_t l, index_t j) -> T& { return tb == Trans::N ? b(l, j) : b(j, l); };
    for (index_t l = 0; l < k; ++l) {
      if (n > 0) opb(l, 0) = T(0);
      if (n > 1 && (l == 1 || l == 6)) opb(l, 1) = T(0);
      if (m > 1) (ta == Trans::N ? a(1, l) : a(l, 1)) = T(0);
    }
    for (index_t j = 0; j < n; ++j)
      for (index_t i = 0; i < m; ++i)
        if ((i + j) % 3 == 0) c0(i, j) = T(-0.0);
  }
  const T alpha = T(2) / T(3), beta = T(1) / T(7);
  DenseMatrix<T> want = copy_of(c0);
  reference_gemm<T>(ta, tb, alpha, a, b, beta, want);
  DenseMatrix<T> serial = copy_of(c0);
  gemm<T>(ta, tb, alpha, a.view(), b.view(), beta, serial.view());
  testing::expect_same_bits<T>(serial, want, "gemm serial");
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> got = copy_of(c0);
    gemm<T>(ta, tb, alpha, a.view(), b.view(), beta, got.view(), ex.get());
    testing::expect_same_bits<T>(got, want, "gemm");
  }
}

TEST(KernelOracle, GemmAllTransCasesMatchSerialBitwise) {
  unsigned seed = 100;
  for (Trans ta : {Trans::N, Trans::C})
    for (Trans tb : {Trans::N, Trans::C}) {
      check_gemm<double>(ta, tb, 33, 7, 5, seed += 10);       // non-divisible panels
      check_gemm<double>(ta, tb, 257, 3, 4, seed += 10);      // tall-skinny
      check_gemm<double>(ta, tb, 1, 1, 64, seed += 10);       // single entry
      check_gemm<double>(ta, tb, 4, 0, 3, seed += 10);        // empty output
      check_gemm<double>(ta, tb, 5, 6, 0, seed += 10);        // empty inner dim
      check_gemm<std::complex<double>>(ta, tb, 33, 7, 5, seed += 10);
      check_gemm<std::complex<double>>(ta, tb, 257, 3, 4, seed += 10);
      // Every remainder of the four-wide blocking in m and k, with planted
      // zero coefficients and signed zeros; for complex, also of the column
      // pairs of the 32-byte C/N tile in n.
      for (index_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 33})
        for (index_t k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 33}) {
          check_gemm<double>(ta, tb, m, 3, k, seed += 10, true);
          for (index_t n : {1, 2, 3, 5, 8})
            check_gemm<std::complex<double>>(ta, tb, m, n, k, seed += 10, true);
        }
    }
}

template <class T>
void check_herk_gram(index_t n, index_t p, unsigned seed) {
  const DenseMatrix<T> v = testing::random_matrix<T>(n, p, seed);
  const auto vc = MatrixView<const T>(v.data(), n, p, v.ld());
  DenseMatrix<T> want(p, p);
  gram<T>(vc, want.view());  // legacy path (null executor)
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> got(p, p);
    gram<T>(vc, got.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(got.data(), p, p, got.ld()),
                        MatrixView<const T>(want.data(), p, p, want.ld()), "gram/herk");
    // herk with nonzero alpha/beta stays lane-invariant too.
    DenseMatrix<T> c1 = testing::random_matrix<T>(p, p, seed + 1);
    DenseMatrix<T> c2 = copy_of(c1);
    herk<T>(Trans::C, T(3), vc, T(2), c1.view());
    herk<T>(Trans::C, T(3), vc, T(2), c2.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(c2.data(), p, p, c2.ld()),
                        MatrixView<const T>(c1.data(), p, p, c1.ld()), "herk");
  }
}

TEST(KernelOracle, HerkGramMatchSerialBitwise) {
  check_herk_gram<double>(300, 6, 21);
  check_herk_gram<std::complex<double>>(300, 6, 22);
  check_herk_gram<double>(5000, 3, 23);  // tall-skinny, spans many chunks
  check_herk_gram<double>(1, 4, 24);
  check_herk_gram<std::complex<double>>(0, 3, 25);  // empty rows
  check_herk_gram<double>(64, 1, 26);               // single pair
}

template <class T>
void check_trsm(index_t n, index_t p, unsigned seed) {
  // Well-conditioned upper triangular factor.
  DenseMatrix<T> r = testing::random_matrix<T>(p, p, seed);
  for (index_t j = 0; j < p; ++j) {
    r(j, j) = T(4) + r(j, j);
    for (index_t i = j + 1; i < p; ++i) r(i, j) = T(0);
  }
  const auto rc = MatrixView<const T>(r.data(), p, p, r.ld());
  const DenseMatrix<T> x0 = testing::random_matrix<T>(n, p, seed + 1);
  DenseMatrix<T> want = copy_of(x0);
  trsm_right_upper<T>(rc, want.view());  // legacy serial
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> got = copy_of(x0);
    trsm_right_upper<T>(rc, got.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(got.data(), n, p, got.ld()),
                        MatrixView<const T>(want.data(), n, p, want.ld()), "trsm_right");
  }
  // Left solves fan out over columns; square system, p right-hand sides.
  const DenseMatrix<T> y0 = testing::random_matrix<T>(p, std::max<index_t>(n % 9, 1), seed + 2);
  DenseMatrix<T> wl = copy_of(y0);
  trsm_left_upper<T>(rc, wl.view());
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> gl = copy_of(y0);
    trsm_left_upper<T>(rc, gl.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(gl.data(), gl.rows(), gl.cols(), gl.ld()),
                        MatrixView<const T>(wl.data(), wl.rows(), wl.cols(), wl.ld()),
                        "trsm_left");
  }
}

TEST(KernelOracle, TrsmMatchesSerialBitwise) {
  check_trsm<double>(400, 5, 31);
  check_trsm<std::complex<double>>(400, 5, 32);
  check_trsm<double>(1, 3, 33);
  check_trsm<double>(4097, 2, 34);  // non-divisible row blocks
}

// CholQR composes gram + cholesky + trsm; the full factorization must be
// lane-invariant (it is the qr_block inside every solver).
template <class T>
void check_cholqr(index_t n, index_t p, unsigned seed) {
  const DenseMatrix<T> v0 = testing::random_matrix<T>(n, p, seed);
  DenseMatrix<T> vwant = copy_of(v0), rwant(p, p);
  ASSERT_TRUE(cholqr<T>(vwant.view(), rwant.view()));
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> v = copy_of(v0), r(p, p);
    ASSERT_TRUE(cholqr<T>(v.view(), r.view(), ex.get()));
    expect_identical<T>(MatrixView<const T>(v.data(), n, p, v.ld()),
                        MatrixView<const T>(vwant.data(), n, p, vwant.ld()), "cholqr Q");
    expect_identical<T>(MatrixView<const T>(r.data(), p, p, r.ld()),
                        MatrixView<const T>(rwant.data(), p, p, rwant.ld()), "cholqr R");
  }
}

TEST(KernelOracle, CholQrMatchesSerialBitwise) {
  check_cholqr<double>(500, 4, 41);
  check_cholqr<std::complex<double>>(500, 4, 42);
  check_cholqr<double>(6151, 3, 43);  // tall-skinny across chunk boundaries
}

// ---------------------------------------------------------------------------
// Reduction-type kernels: bitwise invariant across thread counts, and
// within rounding of the legacy straight sum.
// ---------------------------------------------------------------------------

template <class T>
void check_reductions(index_t n, unsigned seed) {
  using Real = real_t<T>;
  Rng rng(seed);
  std::vector<T> x(static_cast<size_t>(n)), y(static_cast<size_t>(n));
  for (auto& v : x) v = rng.scalar<T>();
  for (auto& v : y) v = rng.scalar<T>();

  const auto exs = test_executors();
  // Reference: the 1-lane executor result (deterministic chunked order).
  const T d_ref = dot<T>(n, x.data(), y.data(), exs[0].get());
  const Real n_ref = norm2<T>(n, x.data(), exs[0].get());
  for (const auto& ex : exs) {
    EXPECT_EQ(dot<T>(n, x.data(), y.data(), ex.get()), d_ref) << "dot n=" << n;
    EXPECT_EQ(norm2<T>(n, x.data(), ex.get()), n_ref) << "norm2 n=" << n;
  }
  // Legacy straight sum agrees to rounding (not necessarily bitwise).
  const T d_legacy = dot<T>(n, x.data(), y.data());
  const Real scale = std::max<Real>(abs_val(d_legacy), Real(1));
  EXPECT_LE(abs_val(d_ref - d_legacy), Real(1e-12) * Real(double(n) + 1.0) * scale);
  const Real nl = norm2<T>(n, x.data());
  EXPECT_LE(std::abs(n_ref - nl), Real(1e-12) * (nl + Real(1)));
}

TEST(KernelOracle, DotNormThreadCountInvariant) {
  for (index_t n : {index_t(0), index_t(1), index_t(5), kReduceChunk - 1, kReduceChunk,
                    kReduceChunk + 1, 2 * kReduceChunk + 17, index_t(10000)}) {
    check_reductions<double>(n, 51);
    check_reductions<std::complex<double>>(n, 52);
  }
}

template <class T>
void check_column_norms(index_t n, index_t p, unsigned seed) {
  using Real = real_t<T>;
  const DenseMatrix<T> x = testing::random_matrix<T>(n, p, seed);
  const auto xc = MatrixView<const T>(x.data(), n, p, x.ld());
  const auto exs = test_executors();
  std::vector<Real> ref(size_t(p), Real(-1));
  column_norms<T>(xc, ref.data(), exs[0].get());
  for (const auto& ex : exs) {
    std::vector<Real> got(size_t(p), Real(-1));
    column_norms<T>(xc, got.data(), ex.get());
    for (index_t j = 0; j < p; ++j) EXPECT_EQ(got[size_t(j)], ref[size_t(j)]) << "col " << j;
  }
  std::vector<Real> legacy(size_t(p), Real(-1));
  column_norms<T>(xc, legacy.data());
  for (index_t j = 0; j < p; ++j)
    EXPECT_LE(std::abs(ref[size_t(j)] - legacy[size_t(j)]),
              Real(1e-12) * (legacy[size_t(j)] + Real(1)));
}

TEST(KernelOracle, ColumnNormsThreadCountInvariant) {
  check_column_norms<double>(4099, 7, 61);  // chunk-straddling, odd p
  check_column_norms<std::complex<double>>(4099, 7, 62);
  check_column_norms<double>(0, 3, 63);  // empty columns -> all zeros
  check_column_norms<double>(1, 1, 64);
  check_column_norms<double>(kReduceChunk * 2, 4, 65);
}

// The executor path must also be selected lane-independently: below the
// cutoff every executor (and the null executor) takes the identical
// legacy path, so results are bitwise equal to serial even for reductions.
TEST(KernelOracle, CutoffSelectionIsLaneIndependent) {
  const KernelCutoffs big{1 << 30, 1 << 30, 1 << 30};
  KernelExecutor ex2(index_t(2), big);
  KernelExecutor ex7(index_t(7), big);
  Rng rng(71);
  std::vector<double> x(3000), y(3000);
  for (auto& v : x) v = rng.scalar<double>();
  for (auto& v : y) v = rng.scalar<double>();
  const double want = dot<double>(3000, x.data(), y.data());
  EXPECT_EQ(dot<double>(3000, x.data(), y.data(), &ex2), want);
  EXPECT_EQ(dot<double>(3000, x.data(), y.data(), &ex7), want);
}

// mul (common/types.hpp) against the compiler's complex product. The
// operands pass through volatile loads so no product is folded at
// compile time; the comparison is bitwise (memcmp), so a flipped -0.0
// fails.
using cplx = std::complex<double>;

cplx opaque(double re, double im) {
  volatile double r = re, i = im;
  return {r, i};
}

void expect_mul_matches(cplx a, cplx b) {
  const cplx want = a * b;
  const cplx got = mul(a, b);
  ASSERT_EQ(std::memcmp(&got, &want, sizeof(cplx)), 0)
      << "mul(" << a << ", " << b << ") = " << got << ", operator* = " << want;
  const cplx want_c = std::conj(a) * b;
  const cplx got_c = mul(conj(a), b);
  ASSERT_EQ(std::memcmp(&got_c, &want_c, sizeof(cplx)), 0)
      << "mul(conj(" << a << "), " << b << ") = " << got_c << ", operator* = " << want_c;
}

TEST(KernelOracle, ComplexMulMatchesOperatorBitwiseOnRandomPairs) {
  // Random signs and mantissas in [1, 2), binary exponents in [-150, 150]:
  // every partial product stays normal and finite.
  Rng rng(0xc0ffee);
  auto draw = [&] {
    const double v = std::ldexp(rng.uniform(1.0, 2.0), int(rng.index(-150, 150)));
    return rng.index(0, 1) == 1 ? -v : v;
  };
  for (int t = 0; t < 100000; ++t) {
    const double ar = draw(), ai = draw(), br = draw(), bi = draw();
    expect_mul_matches(opaque(ar, ai), opaque(br, bi));
  }
  EXPECT_EQ(mul(2.5, -3.0), -7.5);  // the real overload is a * b
}

TEST(KernelOracle, ComplexMulMatchesOperatorBitwiseOnSignedZerosAndSubnormals) {
  // Every combination of four components from signed zeros, subnormals,
  // the smallest normal and mixed-sign ordinary values: covers -0.0 in
  // each position (where ac - bd and ad + bc pick the zero's sign) and
  // products that round into or out of the subnormal range.
  const double dmin = std::numeric_limits<double>::denorm_min();
  const double nmin = std::numeric_limits<double>::min();
  const std::vector<double> v{0.0,  -0.0,         dmin, -dmin,  3.0 * dmin, 1e-310, -2.5e-315,
                              nmin, -1.5 * nmin,  1.0,  -1.5,   0.75,       3e150,  -2.5e-150};
  for (const double ar : v)
    for (const double ai : v)
      for (const double br : v)
        for (const double bi : v) expect_mul_matches(opaque(ar, ai), opaque(br, bi));
}

TEST(KernelOracle, ComplexMulDiffersOnlyInNonFiniteResults) {
  // The documented difference: with an infinite operand, ac - bd and
  // ad + bc can both be NaN; operator* then recovers an infinity through
  // __muldc3 and mul keeps NaN + NaN i. Neither result is finite.
  const double inf = std::numeric_limits<double>::infinity();
  const cplx a = opaque(inf, inf), b = opaque(0.0, 1.0);
  const cplx want = a * b;
  const cplx got = mul(a, b);
  EXPECT_FALSE(std::isfinite(want.real()) && std::isfinite(want.imag())) << want;
  EXPECT_FALSE(std::isfinite(got.real()) && std::isfinite(got.imag())) << got;
  EXPECT_TRUE(std::isnan(got.real()) && std::isnan(got.imag())) << got;
}

// The Schur-sweep rotation kernels (la/eig.hpp, detail::) against the
// literal complex-product loops they replaced, which held c as a complex
// number with a zero imaginary part. The documented difference is the
// sign of an exactly-zero output and outputs with a non-finite operand.
struct LiteralRotation {
  cplx c, s;
};

LiteralRotation literal_make_rotation(cplx a, cplx b) {
  const double na = std::abs(a), nb = std::abs(b);
  if (nb == 0.0) return {1.0, 0.0};
  const double r = std::hypot(na, nb);
  if (na == 0.0) return {0.0, b / r};
  const cplx c = na / r;
  const cplx s = (a / na) * std::conj(b) / r;
  return {c, std::conj(s)};
}

void literal_rotate_rows(cplx* x, cplx* y, index_t len, index_t ld, const LiteralRotation& g) {
  for (index_t i = 0; i < len; ++i) {
    const cplx t1 = x[i * ld], t2 = y[i * ld];
    x[i * ld] = mul(std::conj(g.c), t1) + mul(std::conj(g.s), t2);
    y[i * ld] = mul(-g.s, t1) + mul(g.c, t2);
  }
}

void literal_rotate_cols(cplx* x, cplx* y, index_t len, const LiteralRotation& g) {
  for (index_t i = 0; i < len; ++i) {
    const cplx t1 = x[i], t2 = y[i];
    x[i] = mul(t1, g.c) + mul(t2, g.s);
    y[i] = mul(-t1, std::conj(g.s)) + mul(t2, std::conj(g.c));
  }
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

// Bitwise equal, or (exact_zero_sign) both zero with any signs.
void expect_rotation_outputs_match(const std::vector<cplx>& got, const std::vector<cplx>& want,
                                   bool exact_zero_sign, const char* what) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const double g[2] = {got[i].real(), got[i].imag()};
    const double w[2] = {want[i].real(), want[i].imag()};
    for (int part = 0; part < 2; ++part) {
      if (same_bits(g[part], w[part])) continue;
      ASSERT_TRUE(exact_zero_sign && g[part] == 0.0 && w[part] == 0.0)
          << what << " entry " << i << " part " << part << ": kernel " << g[part]
          << ", literal " << w[part];
    }
  }
}

// Applies the left, right and Q-shaped rotations of one Givens step to
// x, y (len entries, the left one ld apart) through both forms.
void check_rotation_step(cplx a, cplx b, const std::vector<cplx>& x0,
                         const std::vector<cplx>& y0, bool exact_zero_sign) {
  const detail::Rotation g = detail::make_rotation(a, b);
  const LiteralRotation lg = literal_make_rotation(a, b);
  const cplx gc(g.c, 0.0);
  ASSERT_EQ(std::memcmp(&gc, &lg.c, sizeof(cplx)), 0) << "c of (" << a << ", " << b << ")";
  ASSERT_EQ(std::memcmp(&g.s, &lg.s, sizeof(cplx)), 0) << "s of (" << a << ", " << b << ")";
  const index_t len = index_t(x0.size());
  // Left: x and y are rows k, k+1 of a matrix with leading dimension 3.
  const index_t ld = 3;
  std::vector<cplx> m(size_t(len * ld)), lm(size_t(len * ld));
  for (index_t i = 0; i < len; ++i) {
    m[size_t(i * ld)] = lm[size_t(i * ld)] = x0[size_t(i)];
    m[size_t(i * ld + 1)] = lm[size_t(i * ld + 1)] = y0[size_t(i)];
  }
  detail::rotate_rows(&m[0], &m[1], len, ld, g);
  literal_rotate_rows(&lm[0], &lm[1], len, ld, lg);
  expect_rotation_outputs_match(m, lm, exact_zero_sign, "rotate_rows");
  // Right, on H's or Q's column pair.
  std::vector<cplx> x = x0, y = y0, lx = x0, ly = y0;
  detail::rotate_cols(x.data(), y.data(), len, g);
  literal_rotate_cols(lx.data(), ly.data(), len, lg);
  expect_rotation_outputs_match(x, lx, exact_zero_sign, "rotate_cols x");
  expect_rotation_outputs_match(y, ly, exact_zero_sign, "rotate_cols y");
}

TEST(KernelOracle, RealCosineRotationMatchesComplexProductBitwise) {
  // Random signs and mantissas in [1, 2), binary exponents in [-150, 150]:
  // rotations from random (a, b), applied to random pairs; 1e5 operands.
  Rng rng(0x5eed5);
  auto draw = [&] {
    const double v = std::ldexp(rng.uniform(1.0, 2.0), int(rng.index(-150, 150)));
    return rng.index(0, 1) == 1 ? -v : v;
  };
  auto draw_c = [&] { return opaque(draw(), draw()); };
  const index_t len = 5;
  for (int t = 0; t < 10000; ++t) {
    const cplx a = draw_c(), b = draw_c();
    std::vector<cplx> x(static_cast<size_t>(len)), y(static_cast<size_t>(len));
    for (index_t i = 0; i < len; ++i) {
      x[size_t(i)] = draw_c();
      y[size_t(i)] = draw_c();
    }
    check_rotation_step(a, b, x, y, /*exact_zero_sign=*/false);
  }
  // The signed-zero / subnormal grid of the ComplexMul cases, for every
  // operand: make_rotation is exact on it; the kernels may differ only in
  // the sign of an exactly-zero output.
  const double dmin = std::numeric_limits<double>::denorm_min();
  const double nmin = std::numeric_limits<double>::min();
  const std::vector<double> v{0.0,  -0.0,        dmin, -dmin, 3.0 * dmin, 1e-310, -2.5e-315,
                              nmin, -1.5 * nmin, 1.0,  -1.5,  0.75,       3e150,  -2.5e-150};
  std::vector<cplx> x, y;
  for (const double xr : v)
    for (const double xi : v)
      for (const double yr : v)
        for (const double yi : v) {
          x.push_back(opaque(xr, xi));
          y.push_back(opaque(yr, yi));
        }
  for (const double ar : v)
    for (const double ai : v)
      for (const double br : {0.0, -0.0, dmin, -1.5, 3e150})
        for (const double bi : {0.0, -0.0, nmin, 0.75}) {
          const cplx a = opaque(ar, ai), b = opaque(br, bi);
          const detail::Rotation g = detail::make_rotation(a, b);
          const LiteralRotation lg = literal_make_rotation(a, b);
          const cplx gc(g.c, 0.0);
          ASSERT_EQ(std::memcmp(&gc, &lg.c, sizeof(cplx)), 0) << a << ", " << b;
          ASSERT_EQ(std::memcmp(&g.s, &lg.s, sizeof(cplx)), 0) << a << ", " << b;
        }
  // Every grid pair through the kernels, under rotations from grid points.
  for (const auto& [a, b] : {std::pair<cplx, cplx>{cplx(1.0, 0.0), cplx(0.0, 0.0)},
                             {cplx(0.0, 0.0), cplx(0.75, -1.5)},
                             {cplx(-1.5, 0.75), cplx(1.0, -0.0)},
                             {cplx(3e150, -2.5e-150), cplx(nmin, dmin)},
                             {cplx(dmin, -0.0), cplx(-1.5, 3e150)}})
    check_rotation_step(a, b, x, y, /*exact_zero_sign=*/true);
}

TEST(KernelOracle, RealCosineRotationDiffersOnlyInZeroSignAndNonFinite) {
  // Exact zero: with c = 1 and s = 0, the literal left rotation adds
  // 0 = -(-0 * 1) to c*(-0) = -0 and gets +0, then +0 + (-0) = +0; the
  // kernel adds -0 + (-0) = -0.
  const detail::Rotation g = detail::make_rotation(cplx(1.0, 0.0), cplx(0.0, 0.0));
  const LiteralRotation lg = literal_make_rotation(cplx(1.0, 0.0), cplx(0.0, 0.0));
  cplx x = opaque(-0.0, 1.0), y = opaque(-1.0, -1.0), lx = x, ly = y;
  detail::rotate_rows(&x, &y, 1, 1, g);
  literal_rotate_rows(&lx, &ly, 1, 1, lg);
  EXPECT_TRUE(same_bits(x.real(), -0.0)) << x;
  EXPECT_TRUE(same_bits(lx.real(), 0.0)) << lx;
  EXPECT_TRUE(same_bits(x.imag(), lx.imag()) && same_bits(y.real(), ly.real()) &&
              same_bits(y.imag(), ly.imag()));
  // Non-finite operand: 0 * inf makes the literal imaginary part NaN; the
  // kernel keeps c * 0 = 0 there. Either complex result is non-finite.
  const double inf = std::numeric_limits<double>::infinity();
  const detail::Rotation r = detail::make_rotation(cplx(0.6, 0.0), cplx(0.8, 0.0));
  const LiteralRotation lr = literal_make_rotation(cplx(0.6, 0.0), cplx(0.8, 0.0));
  cplx u = opaque(inf, 0.0), w = opaque(1.0, 0.0), lu = u, lw = w;
  detail::rotate_cols(&u, &w, 1, r);
  literal_rotate_cols(&lu, &lw, 1, lr);
  EXPECT_TRUE(std::isnan(lu.imag())) << lu;
  EXPECT_FALSE(std::isnan(u.imag())) << u;
  EXPECT_FALSE(std::isfinite(u.real()) && std::isfinite(u.imag())) << u;
  EXPECT_FALSE(std::isfinite(lu.real()) && std::isfinite(lu.imag())) << lu;
}

// The complex<double> kernels in register form (la/complex_reg.hpp)
// against the literal mul loops they stand for: gemm's N/N updates and
// C/N dots (chunk_dot4 at 16 bytes, the 4 x 2 tile chunk_dot4x2 at 32),
// and the forward, diagonal and backward updates of the LDL^T solve. Each
// kernel runs at both register widths: the 32-byte form inside a function
// compiled for AVX2, as the library's entry points run it, and only where
// the CPU runs AVX2. Bitwise on finite data; with an infinite or NaN
// operand an output may differ only as one NaN from another.
struct RegisterKernelCase {
  std::vector<cplx> a0, a1, a2, a3, y, c;  // m entries each
  cplx s0, s1, s2, s3;
};

// The case cut to its first m entries.
RegisterKernelCase first(RegisterKernelCase k, index_t m) {
  for (auto* v : {&k.a0, &k.a1, &k.a2, &k.a3, &k.y, &k.c}) v->resize(size_t(m));
  return k;
}

// What every kernel makes of one case.
struct RegisterKernelOut {
  std::vector<cplx> update1, update4;
  std::vector<cplx> dots;  // a0..a3 against y, then a0..a3 against c
  std::vector<std::vector<cplx>> forward, backward, diagonal;  // one per panel width
};

// Widths of the LDL^T panel: every mix of four-value chunks, two-value
// chunks and a last single value. The panel has rows of w values, ld =
// w + 1 apart (a panel of a wider block), filled from c cyclically. Row 0
// is the column's own row; rows 1 .. 4 are its entries' rows.
const index_t kPanelWidths[] = {1, 2, 3, 7, 8, 32};
const index_t kPanelRows[4] = {3, 1, 4, 2};

std::vector<cplx> make_panel(const std::vector<cplx>& c, index_t w) {
  const index_t ld = w + 1;
  std::vector<cplx> x(size_t(5 * ld));
  for (index_t r = 0; r < 5; ++r)
    for (index_t q = 0; q < w; ++q) x[size_t(r * ld + q)] = c[size_t(r * w + q) % c.size()];
  return x;
}

template <class R>
BKR_ALWAYS_INLINE void run_register_kernels(const RegisterKernelCase& k, RegisterKernelOut& out) {
  const index_t m = index_t(k.c.size());
  const cplx* a[4] = {k.a0.data(), k.a1.data(), k.a2.data(), k.a3.data()};
  const cplx s[4] = {k.s0, k.s1, k.s2, k.s3};
  out.update1 = k.c;
  detail::update1<R>(m, a[0], s[0], out.update1.data());
  out.update4 = k.c;
  detail::update4<R>(m, a[0], a[1], a[2], a[3], s[0], s[1], s[2], s[3], out.update4.data());
  out.dots.assign(8, cplx(0));
  if constexpr (R::lanes == 2) {
    detail::chunk_dot4x2(m, a[0], a[1], a[2], a[3], k.y.data(), k.c.data(), out.dots.data());
  } else {
    detail::chunk_dot4(m, a[0], a[1], a[2], a[3], k.y.data(), out.dots.data());
    detail::chunk_dot4(m, a[0], a[1], a[2], a[3], k.c.data(), out.dots.data() + 4);
  }
  out.forward.clear();
  out.backward.clear();
  out.diagonal.clear();
  for (const index_t w : kPanelWidths) {
    const index_t ld = w + 1;
    std::vector<cplx> x = make_panel(k.c, w);
    detail::scatter_sub_mul<R>(w, 4, s, kPanelRows, x.data(), ld, x.data());
    out.forward.push_back(x);
    x = make_panel(k.c, w);
    detail::gather_sub_mul<R>(w, 4, s, kPanelRows, x.data(), ld, x.data());
    out.backward.push_back(x);
    x = make_panel(k.c, w);
    detail::scale_by<R>(w, s[1], x.data());
    out.diagonal.push_back(x);
  }
}

void run_register_kernels_16(const RegisterKernelCase& k, RegisterKernelOut& out) {
  run_register_kernels<creg::W16>(k, out);
}
BKR_TARGET_AVX2 void run_register_kernels_32(const RegisterKernelCase& k, RegisterKernelOut& out) {
  run_register_kernels<creg::W32>(k, out);
}

// The literal loops, in the order the kernels promise.
RegisterKernelOut literal_register_kernels(const RegisterKernelCase& k) {
  const index_t m = index_t(k.c.size());
  const cplx* a[4] = {k.a0.data(), k.a1.data(), k.a2.data(), k.a3.data()};
  const cplx s[4] = {k.s0, k.s1, k.s2, k.s3};
  RegisterKernelOut out;
  // update1: c += a0 * s0 (a zero s0 leaves c as it is).
  out.update1 = k.c;
  if (!(s[0] == cplx(0)))
    for (index_t i = 0; i < m; ++i) out.update1[size_t(i)] += mul(a[0][i], s[0]);
  // update4: (((c + a0 s0) + a1 s1) + a2 s2) + a3 s3.
  out.update4 = k.c;
  for (index_t i = 0; i < m; ++i) {
    cplx v = out.update4[size_t(i)];
    for (int q = 0; q < 4; ++q) v = v + mul(a[q][i], s[q]);
    out.update4[size_t(i)] = v;
  }
  // Conjugated dots, summed in i order.
  out.dots.assign(8, cplx(0));
  for (int q = 0; q < 4; ++q)
    for (index_t i = 0; i < m; ++i) {
      out.dots[size_t(q)] += mul(conj(a[q][i]), k.y[size_t(i)]);
      out.dots[size_t(4 + q)] += mul(conj(a[q][i]), k.c[size_t(i)]);
    }
  for (const index_t w : kPanelWidths) {
    const index_t ld = w + 1;
    // Forward: row idx[l] -= s[l] * row 0.
    std::vector<cplx> x = make_panel(k.c, w);
    for (int l = 0; l < 4; ++l)
      for (index_t q = 0; q < w; ++q) x[size_t(kPanelRows[l] * ld + q)] -= mul(s[l], x[size_t(q)]);
    out.forward.push_back(x);
    // Backward: row 0 -= s[l] * row idx[l], l ascending.
    x = make_panel(k.c, w);
    for (int l = 0; l < 4; ++l)
      for (index_t q = 0; q < w; ++q) x[size_t(q)] -= mul(s[l], x[size_t(kPanelRows[l] * ld + q)]);
    out.backward.push_back(x);
    // Diagonal: row 0 := row 0 * inverse pivot.
    x = make_panel(k.c, w);
    for (index_t q = 0; q < w; ++q) x[size_t(q)] = mul(x[size_t(q)], s[1]);
    out.diagonal.push_back(x);
  }
  return out;
}

// Same bits, or (nan_payload) both NaN.
bool same_or_both_nan(double g, double w, bool nan_payload) {
  return same_bits(g, w) || (nan_payload && std::isnan(g) && std::isnan(w));
}

void expect_same_values(const std::vector<cplx>& got, const std::vector<cplx>& want,
                        bool nan_payload, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i)
    ASSERT_TRUE(same_or_both_nan(got[i].real(), want[i].real(), nan_payload) &&
                same_or_both_nan(got[i].imag(), want[i].imag(), nan_payload))
        << what << " entry " << i << ": kernel " << got[i] << ", literal " << want[i];
}

void check_register_kernels(const RegisterKernelCase& k, bool nan_payload, creg::Width width) {
  RegisterKernelOut got;
  if (width == creg::Width::Bytes32) {
    run_register_kernels_32(k, got);
  } else {
    run_register_kernels_16(k, got);
  }
  const RegisterKernelOut want = literal_register_kernels(k);
  const std::string at = " at " + std::to_string(int(width)) + " bytes, m = " +
                         std::to_string(k.c.size());
  expect_same_values(got.update1, want.update1, nan_payload, "update1" + at);
  expect_same_values(got.update4, want.update4, nan_payload, "update4" + at);
  expect_same_values(got.dots, want.dots, nan_payload, "C/N dots" + at);
  for (size_t p = 0; p < std::size(kPanelWidths); ++p) {
    const std::string w = ", w = " + std::to_string(kPanelWidths[p]);
    expect_same_values(got.forward[p], want.forward[p], nan_payload, "LDL^T forward" + at + w);
    expect_same_values(got.backward[p], want.backward[p], nan_payload, "LDL^T backward" + at + w);
    expect_same_values(got.diagonal[p], want.diagonal[p], nan_payload, "LDL^T diagonal" + at + w);
  }
}

// The grid as a case per coefficient c: every grid value meets every grid
// coefficient, in every operand position. shift holds the rotations of
// a1, a2, a3 and c against a0 = grid and y = grid rotated by c, and the
// offsets of s2 and s3 from s0 = grid[c] (s1 = grid[c + 1]). The grids
// have an even length; odd c also runs the case cut to its first g - 1
// entries, so both widths meet an odd row count as well.
template <class F>
void for_each_grid_case(const std::vector<cplx>& grid, const size_t (&shift)[6], F&& check) {
  const size_t g = grid.size();
  auto rotated = [&](size_t by) {
    std::vector<cplx> out(g);
    for (size_t i = 0; i < g; ++i) out[i] = grid[(i + by) % g];
    return out;
  };
  for (size_t c = 0; c < g; ++c) {
    const RegisterKernelCase k{grid,
                               rotated(shift[0]),
                               rotated(shift[1]),
                               rotated(shift[2]),
                               rotated(c),
                               rotated(c + shift[3]),
                               grid[c],
                               grid[(c + 1) % g],
                               grid[(c + shift[4]) % g],
                               grid[(c + shift[5]) % g]};
    check(k);
    if (c % 2 == 1) check(first(k, index_t(g - 1)));
  }
}

void check_register_kernels_finite(creg::Width width) {
  // Random signs and mantissas in [1, 2), binary exponents in [-150, 150].
  Rng rng(0x2e91);
  auto draw = [&] {
    const double v = std::ldexp(rng.uniform(1.0, 2.0), int(rng.index(-150, 150)));
    return rng.index(0, 1) == 1 ? -v : v;
  };
  auto draw_c = [&] { return opaque(draw(), draw()); };
  auto draw_vec = [&](index_t m) {
    std::vector<cplx> v(static_cast<size_t>(m));
    for (auto& e : v) e = draw_c();
    return v;
  };
  for (int t = 0; t < 2000; ++t) {
    const index_t m = 40 + t % 7;
    RegisterKernelCase k{draw_vec(m), draw_vec(m), draw_vec(m), draw_vec(m), draw_vec(m),
                         draw_vec(m), draw_c(),    draw_c(),    draw_c(),    draw_c()};
    check_register_kernels(k, /*nan_payload=*/false, width);
  }
  // The signed-zero / subnormal grid of the ComplexMul cases.
  const double dmin = std::numeric_limits<double>::denorm_min();
  const double nmin = std::numeric_limits<double>::min();
  const std::vector<double> v{0.0,  -0.0,        dmin, -dmin, 3.0 * dmin, 1e-310, -2.5e-315,
                              nmin, -1.5 * nmin, 1.0,  -1.5,  0.75,       3e150,  -2.5e-150};
  std::vector<cplx> grid;
  for (const double re : v)
    for (const double im : v) grid.push_back(opaque(re, im));
  for_each_grid_case(grid, {7, 31, 101, 53, 17, 90}, [&](const RegisterKernelCase& k) {
    check_register_kernels(k, /*nan_payload=*/false, width);
  });
}

void check_register_kernels_non_finite(creg::Width width) {
  // With infinities and NaNs among the operands, each output part is
  // bit-equal to the literal loop's or both are NaN: x + (-y) and x - y
  // (and two commuted sums) can pick a different NaN, never a number.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> v{0.0, -0.0, 1.0, -1.5, inf, -inf, nan, 3e150};
  std::vector<cplx> grid;
  for (const double re : v)
    for (const double im : v) grid.push_back(opaque(re, im));
  for_each_grid_case(grid, {5, 11, 23, 3, 9, 40}, [&](const RegisterKernelCase& k) {
    check_register_kernels(k, /*nan_payload=*/true, width);
  });
}

// GTEST_SKIP ends only the function it is written in, so each 32-byte
// test checks the CPU in its own body, before any AVX2 code runs.
bool host_runs_avx2() { return creg::host_width() == creg::Width::Bytes32; }
const char kNoAvx2[] = "the CPU does not run AVX2; the 32-byte kernels are never taken";

TEST(KernelOracle, RegisterFormKernelsMatchMulLoopsBitwise) {
  check_register_kernels_finite(creg::Width::Bytes16);
}

TEST(KernelOracle, RegisterFormKernelsMatchMulLoopsBitwiseAt32Bytes) {
  if (!host_runs_avx2()) GTEST_SKIP() << kNoAvx2;
  check_register_kernels_finite(creg::Width::Bytes32);
}

TEST(KernelOracle, RegisterFormKernelsDifferOnlyInNaNs) {
  check_register_kernels_non_finite(creg::Width::Bytes16);
}

TEST(KernelOracle, RegisterFormKernelsDifferOnlyInNaNsAt32Bytes) {
  if (!host_runs_avx2()) GTEST_SKIP() << kNoAvx2;
  check_register_kernels_non_finite(creg::Width::Bytes32);
}

// gemm's complex N/N and C/N loops held at 16 bytes (the library's entry
// points, serial) against the literal reference, over every remainder of
// the four-row groups, with the planted zero coefficients and signed
// zeros of check_gemm. On a CPU that runs AVX2, gemm itself takes the
// 32-byte loops, which GemmAllTransCasesMatchSerialBitwise checks.
TEST(KernelOracle, ComplexGemmBranchesMatchLiteral) {
  const creg::Width width = creg::Width::Bytes16;
  unsigned seed = 900;
  for (const Trans ta : {Trans::N, Trans::C})
    for (index_t m : {1, 2, 3, 4, 5, 7, 8, 9, 33})
      for (index_t n : {1, 2, 3, 5, 8})
        for (index_t k : {1, 3, 4, 5, 9}) {
          DenseMatrix<cplx> a = testing::random_matrix<cplx>(ta == Trans::N ? m : k,
                                                             ta == Trans::N ? k : m, seed++);
          DenseMatrix<cplx> b = testing::random_matrix<cplx>(k, n, seed++);
          DenseMatrix<cplx> c = testing::random_matrix<cplx>(m, n, seed++);
          for (index_t l = 0; l < k; ++l) {
            b(l, 0) = cplx(0);
            if (n > 1 && (l == 1 || l == 6)) b(l, 1) = cplx(0);
            if (m > 1) (ta == Trans::N ? a(1, l) : a(l, 1)) = cplx(0);
          }
          for (index_t j = 0; j < n; ++j)
            for (index_t i = 0; i < m; ++i)
              if ((i + j) % 3 == 0) c(i, j) = cplx(-0.0);
          const cplx alpha = cplx(2) / cplx(3);
          DenseMatrix<cplx> want = copy_of(c);
          reference_gemm<cplx>(ta, Trans::N, alpha, a, b, cplx(1), want);
          const MatrixView<const cplx> av(a.data(), a.rows(), a.cols(), a.ld());
          const MatrixView<const cplx> bv(b.data(), k, n, b.ld());
          if (ta == Trans::N) {
            detail::nn_panel(width, alpha, av, bv, c.view(), 0, n);
          } else {
            const index_t groups = (m + 3) / 4, step = detail::cn_unit_cols(width);
            for (index_t u = 0; u < (n + step - 1) / step; ++u)
              for (index_t g = 0; g < groups; ++g)
                detail::cn_unit(width, alpha, av, bv, c.view(), g, u);
          }
          testing::expect_same_bits<cplx>(c, want, ta == Trans::N ? "N/N" : "C/N");
        }
}

// Kernel stats: enabled executors attribute calls and seconds per kernel.
TEST(KernelOracle, KernelStatsRecordCalls) {
  KernelExecutor ex(index_t(2), kForceParallel);
  ex.stats().enable(true);
  const CsrMatrix<double> a = skewed_sparse<double>(64, 64, 81);
  std::vector<double> x(64, 1.0), y(64, 0.0);
  a.spmv(x.data(), y.data(), &ex);
  const auto t = ex.stats().totals(obs::Kernel::Spmv);
  EXPECT_EQ(t.calls, 1);
  EXPECT_GE(t.seconds, 0.0);
  ex.stats().reset();
  EXPECT_EQ(ex.stats().totals(obs::Kernel::Spmv).calls, 0);
}

}  // namespace
}  // namespace bkr
