// Unit tests: Householder QR, incremental QR and CholQR.
#include <gtest/gtest.h>

#include <complex>

#include "la/qr.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using testing::diff_fro;
using testing::ortho_defect;
using testing::random_matrix;
using cplx = std::complex<double>;

template <class T>
class QrSuite : public ::testing::Test {};
using Scalars = ::testing::Types<double, cplx>;
TYPED_TEST_SUITE(QrSuite, Scalars);

TYPED_TEST(QrSuite, HouseholderReconstructs) {
  using T = TypeParam;
  const auto a = random_matrix<T>(10, 6, 21);
  HouseholderQR<T> qr(copy_of(a));
  const DenseMatrix<T> q = qr.q_thin();
  const DenseMatrix<T> r = qr.r();
  EXPECT_LT(ortho_defect<T>(q.view()), 1e-13);
  DenseMatrix<T> back(10, 6);
  gemm<T>(Trans::N, Trans::N, T(1), q.view(), r.view(), T(0), back.view());
  EXPECT_LT(diff_fro<T>(back.view(), a.view()), 1e-12);
}

TYPED_TEST(QrSuite, HouseholderQtQIsIdentity) {
  using T = TypeParam;
  const auto a = random_matrix<T>(8, 4, 22);
  HouseholderQR<T> qr(copy_of(a));
  auto b = random_matrix<T>(8, 3, 23);
  const DenseMatrix<T> orig = copy_of(b);
  qr.apply_qt(b.view());
  qr.apply_q(b.view());
  EXPECT_LT(diff_fro<T>(b.view(), orig.view()), 1e-12);
}

TYPED_TEST(QrSuite, IncrementalMatchesBatch) {
  using T = TypeParam;
  // Hessenberg-like columns: column j nonzero in its first j+2 rows.
  const index_t m = 7;
  auto h = random_matrix<T>(m + 1, m, 24);
  for (index_t j = 0; j < m; ++j)
    for (index_t i = j + 2; i < m + 1; ++i) h(i, j) = T(0);
  IncrementalQR<T> inc(m + 1, m);
  for (index_t j = 0; j < m; ++j) inc.add_column(h.col(j), j + 2);
  HouseholderQR<T> batch(copy_of(h));
  const DenseMatrix<T> rb = batch.r();
  // R is unique up to unit diagonal phases; compare magnitudes.
  for (index_t j = 0; j < m; ++j)
    for (index_t i = 0; i <= j; ++i)
      EXPECT_NEAR(abs_val(inc.r(i, j)), abs_val(rb(i, j)), 1e-11);
  // Q reconstructs the matrix.
  const DenseMatrix<T> q = inc.q_thin(m + 1);
  const DenseMatrix<T> r = inc.r_matrix();
  DenseMatrix<T> back(m + 1, m);
  gemm<T>(Trans::N, Trans::N, T(1), q.view(), r.view(), T(0), back.view());
  EXPECT_LT(diff_fro<T>(back.view(), h.view()), 1e-12);
}

TYPED_TEST(QrSuite, IncrementalApplyQtRangeMatchesFull) {
  using T = TypeParam;
  const index_t m = 6;
  auto h = random_matrix<T>(m + 1, m, 25);
  for (index_t j = 0; j < m; ++j)
    for (index_t i = j + 2; i < m + 1; ++i) h(i, j) = T(0);
  const auto g0 = random_matrix<T>(m + 1, 2, 26);
  // Incrementally updated ghat.
  IncrementalQR<T> inc(m + 1, m);
  DenseMatrix<T> ghat = copy_of(g0);
  for (index_t j = 0; j < m; ++j) {
    const index_t before = inc.cols();
    inc.add_column(h.col(j), j + 2);
    inc.apply_qt_range(ghat.view(), before);
  }
  // One-shot application.
  DenseMatrix<T> ghat2 = copy_of(g0);
  inc.apply_qt(ghat2.view());
  EXPECT_LT(diff_fro<T>(ghat.view(), ghat2.view()), 1e-12);
}

TYPED_TEST(QrSuite, CholQrOrthonormalizes) {
  using T = TypeParam;
  auto v = random_matrix<T>(50, 6, 27);
  DenseMatrix<T> r(6, 6);
  const DenseMatrix<T> orig = copy_of(v);
  ASSERT_TRUE(cholqr<T>(v.view(), r.view()));
  EXPECT_LT(ortho_defect<T>(v.view()), 1e-12);
  DenseMatrix<T> back(50, 6);
  gemm<T>(Trans::N, Trans::N, T(1), v.view(), r.view(), T(0), back.view());
  EXPECT_LT(diff_fro<T>(back.view(), orig.view()), 1e-11);
}

TYPED_TEST(QrSuite, CholQrFailsOnRankDeficiency) {
  using T = TypeParam;
  auto v = random_matrix<T>(30, 3, 28);
  for (index_t i = 0; i < 30; ++i) v(i, 2) = v(i, 0);  // duplicate column
  DenseMatrix<T> r(3, 3);
  EXPECT_FALSE(cholqr<T>(v.view(), r.view()));
}

TYPED_TEST(QrSuite, HouseholderTsqrFallback) {
  using T = TypeParam;
  auto v = random_matrix<T>(25, 5, 31);
  DenseMatrix<T> r(5, 5);
  const DenseMatrix<T> orig = copy_of(v);
  householder_tsqr<T>(v.view(), r.view());
  EXPECT_LT(ortho_defect<T>(v.view()), 1e-13);
  DenseMatrix<T> back(25, 5);
  gemm<T>(Trans::N, Trans::N, T(1), v.view(), r.view(), T(0), back.view());
  EXPECT_LT(diff_fro<T>(back.view(), orig.view()), 1e-12);
}

// CholQR on badly scaled columns still succeeds with well-separated
// magnitudes (property sweep over the scale).
class CholQrScale : public ::testing::TestWithParam<double> {};

TEST_P(CholQrScale, HandlesColumnScaling) {
  auto v = random_matrix<double>(60, 4, 32);
  const double s = GetParam();
  for (index_t i = 0; i < 60; ++i) v(i, 1) *= s;
  DenseMatrix<double> r(4, 4);
  ASSERT_TRUE(cholqr<double>(v.view(), r.view()));
  EXPECT_LT(ortho_defect<double>(v.view()), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Scales, CholQrScale, ::testing::Values(1e-6, 1e-3, 1.0, 1e3, 1e6));

}  // namespace
}  // namespace bkr
