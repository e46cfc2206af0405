// Serial-oracle equivalence suite for the parallel hot-path kernels.
//
// The determinism contract (src/parallel/kernel_executor.hpp) makes two
// distinct promises, and this suite checks both against executors with
// 1, 2, 7 and hardware_concurrency lanes, for double and complex<double>,
// including empty / 1-row / tall-skinny / non-divisible-by-chunk shapes:
//  * partition-type kernels (spmv, spmm, gemm, herk, trsm) are bitwise
//    identical to the serial code at every thread count; gemm, whose
//    serial loops are register-blocked, is held to a literal per-element
//    triple loop written here, serial and pooled alike;
//  * reduction-type kernels (dot, norm2, column_norms) are bitwise
//    identical across thread counts (fixed chunk tree), and agree with
//    the legacy straight sum to rounding.
// Cutoffs are set to 1 so even tiny shapes take the executor path. The
// complex product helper mul() that every kernel loop uses is held to the
// compiler's operator* bit for bit.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "la/blas.hpp"
#include "la/dense.hpp"
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
      // zero coefficients and signed zeros.
      for (index_t m : {1, 2, 3, 4, 5, 6, 7, 8, 9, 33})
        for (index_t k : {1, 2, 3, 4, 5, 6, 7, 8, 9, 33}) {
          check_gemm<double>(ta, tb, m, 3, k, seed += 10, true);
          check_gemm<std::complex<double>>(ta, tb, m, 3, k, seed += 10, true);
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
  DenseMatrix<T> wl = copy_of(y0), wlc = copy_of(y0);
  trsm_left_upper<T>(rc, wl.view());
  trsm_left_upper_conj<T>(rc, wlc.view());
  for (const auto& ex : test_executors()) {
    DenseMatrix<T> gl = copy_of(y0), glc = copy_of(y0);
    trsm_left_upper<T>(rc, gl.view(), ex.get());
    trsm_left_upper_conj<T>(rc, glc.view(), ex.get());
    expect_identical<T>(MatrixView<const T>(gl.data(), gl.rows(), gl.cols(), gl.ld()),
                        MatrixView<const T>(wl.data(), wl.rows(), wl.cols(), wl.ld()),
                        "trsm_left");
    expect_identical<T>(MatrixView<const T>(glc.data(), glc.rows(), glc.cols(), glc.ld()),
                        MatrixView<const T>(wlc.data(), wlc.rows(), wlc.cols(), wlc.ld()),
                        "trsm_left_conj");
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
