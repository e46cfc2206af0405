// Unit tests: dense matrices, BLAS-like kernels and factorizations.
#include <gtest/gtest.h>

#include <complex>

#include "la/blas.hpp"
#include "la/factor.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using testing::diff_fro;
using testing::random_matrix;
using cplx = std::complex<double>;

template <class T>
class DenseKernels : public ::testing::Test {};
using Scalars = ::testing::Types<double, cplx>;
TYPED_TEST_SUITE(DenseKernels, Scalars);

TYPED_TEST(DenseKernels, GemmMatchesNaive) {
  using T = TypeParam;
  const auto a = random_matrix<T>(7, 5, 1);
  const auto b = random_matrix<T>(5, 4, 2);
  DenseMatrix<T> c(7, 4);
  gemm<T>(Trans::N, Trans::N, T(2), a.view(), b.view(), T(0), c.view());
  for (index_t i = 0; i < 7; ++i)
    for (index_t j = 0; j < 4; ++j) {
      T s(0);
      for (index_t l = 0; l < 5; ++l) s += a(i, l) * b(l, j);
      EXPECT_NEAR(abs_val(c(i, j) - T(2) * s), 0.0, 1e-13);
    }
}

TYPED_TEST(DenseKernels, GemmConjTranspose) {
  using T = TypeParam;
  const auto a = random_matrix<T>(6, 3, 3);
  const auto b = random_matrix<T>(6, 4, 4);
  DenseMatrix<T> c(3, 4);
  gemm<T>(Trans::C, Trans::N, T(1), a.view(), b.view(), T(0), c.view());
  for (index_t i = 0; i < 3; ++i)
    for (index_t j = 0; j < 4; ++j) {
      T s(0);
      for (index_t l = 0; l < 6; ++l) s += conj(a(l, i)) * b(l, j);
      EXPECT_NEAR(abs_val(c(i, j) - s), 0.0, 1e-13);
    }
}

TYPED_TEST(DenseKernels, GemmAccumulatesWithBeta) {
  using T = TypeParam;
  const auto a = random_matrix<T>(4, 4, 5);
  const auto b = random_matrix<T>(4, 2, 6);
  DenseMatrix<T> c = random_matrix<T>(4, 2, 7);
  DenseMatrix<T> expected = copy_of(c);
  gemm<T>(Trans::N, Trans::N, T(1), a.view(), b.view(), T(3), c.view());
  for (index_t i = 0; i < 4; ++i)
    for (index_t j = 0; j < 2; ++j) {
      T s = T(3) * expected(i, j);
      for (index_t l = 0; l < 4; ++l) s += a(i, l) * b(l, j);
      EXPECT_NEAR(abs_val(c(i, j) - s), 0.0, 1e-13);
    }
}

TYPED_TEST(DenseKernels, TrsmLeftUpperInvertsTriangle) {
  using T = TypeParam;
  DenseMatrix<T> r = random_matrix<T>(5, 5, 8);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = j + 1; i < 5; ++i) r(i, j) = T(0);
    r(j, j) += T(4);  // well conditioned
  }
  const auto b = random_matrix<T>(5, 3, 9);
  DenseMatrix<T> x = copy_of(b);
  trsm_left_upper<T>(r.view(), x.view());
  DenseMatrix<T> check(5, 3);
  gemm<T>(Trans::N, Trans::N, T(1), r.view(), x.view(), T(0), check.view());
  EXPECT_LT(diff_fro<T>(check.view(), b.view()), 1e-12);
}

TYPED_TEST(DenseKernels, TrsmRightUpperSolvesXR) {
  using T = TypeParam;
  DenseMatrix<T> r = random_matrix<T>(4, 4, 10);
  for (index_t j = 0; j < 4; ++j) {
    for (index_t i = j + 1; i < 4; ++i) r(i, j) = T(0);
    r(j, j) += T(4);
  }
  const auto b = random_matrix<T>(6, 4, 11);
  DenseMatrix<T> x = copy_of(b);
  trsm_right_upper<T>(r.view(), x.view());
  DenseMatrix<T> check(6, 4);
  gemm<T>(Trans::N, Trans::N, T(1), x.view(), r.view(), T(0), check.view());
  EXPECT_LT(diff_fro<T>(check.view(), b.view()), 1e-12);
}

TYPED_TEST(DenseKernels, TrsmLeftUpperConjSolvesRH) {
  using T = TypeParam;
  DenseMatrix<T> r = random_matrix<T>(5, 5, 12);
  for (index_t j = 0; j < 5; ++j) {
    for (index_t i = j + 1; i < 5; ++i) r(i, j) = T(0);
    r(j, j) += T(4);
  }
  const auto b = random_matrix<T>(5, 2, 13);
  DenseMatrix<T> x = copy_of(b);
  trsm_left_upper_conj<T>(r.view(), x.view());
  // Check R^H x = b.
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < 5; ++i) {
      T s(0);
      for (index_t l = 0; l <= i; ++l) s += conj(r(l, i)) * x(l, j);
      EXPECT_NEAR(abs_val(s - b(i, j)), 0.0, 1e-12);
    }
}

TYPED_TEST(DenseKernels, CholeskyReconstructs) {
  using T = TypeParam;
  const auto m = random_matrix<T>(8, 5, 14);
  DenseMatrix<T> g(5, 5);
  gram<T>(m.view(), g.view());
  for (index_t i = 0; i < 5; ++i) g(i, i) += T(1);  // ensure PD
  DenseMatrix<T> r = copy_of(g);
  ASSERT_TRUE(cholesky_upper<T>(r.view()));
  DenseMatrix<T> back(5, 5);
  gemm<T>(Trans::C, Trans::N, T(1), r.view(), r.view(), T(0), back.view());
  EXPECT_LT(diff_fro<T>(back.view(), g.view()), 1e-12);
}

TYPED_TEST(DenseKernels, CholeskyRejectsIndefinite) {
  using T = TypeParam;
  DenseMatrix<T> a = DenseMatrix<T>::identity(3);
  a(1, 1) = T(-1);
  EXPECT_FALSE(cholesky_upper<T>(a.view()));
}

TYPED_TEST(DenseKernels, DenseLuSolves) {
  using T = TypeParam;
  auto a = random_matrix<T>(9, 9, 16);
  for (index_t i = 0; i < 9; ++i) a(i, i) += T(5);
  const auto b = random_matrix<T>(9, 3, 17);
  DenseMatrix<T> x = copy_of(b);
  DenseLU<T> lu(copy_of(a));
  ASSERT_FALSE(lu.singular());
  lu.solve(x.view());
  DenseMatrix<T> check(9, 3);
  gemm<T>(Trans::N, Trans::N, T(1), a.view(), x.view(), T(0), check.view());
  EXPECT_LT(diff_fro<T>(check.view(), b.view()), 1e-11);
}

TYPED_TEST(DenseKernels, DenseLuFlagsSingular) {
  using T = TypeParam;
  DenseMatrix<T> a(3, 3);  // all zero
  DenseLU<T> lu(std::move(a));
  EXPECT_TRUE(lu.singular());
}

TEST(DenseMatrix, BlockViewsShareStorage) {
  DenseMatrix<double> a(4, 4);
  auto b = a.block(1, 1, 2, 2);
  b(0, 0) = 7.0;
  EXPECT_EQ(a(1, 1), 7.0);
  EXPECT_EQ(b.ld(), 4);
}

TEST(DenseMatrix, NormsAndDots) {
  std::vector<double> x = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(norm2<double>(2, x.data()), 5.0);
  std::vector<cplx> u = {{1, 1}, {0, 2}};
  std::vector<cplx> w = {{1, -1}, {2, 0}};
  const cplx d = dot<cplx>(2, u.data(), w.data());
  // conj(u) . w = (1-i)(1-i) + (-2i)(2) = (1 - 2i + i^2) - 4i = -2i - 4i
  EXPECT_NEAR(std::abs(d - cplx(0, -6)), 0.0, 1e-14);
}

}  // namespace
}  // namespace bkr
