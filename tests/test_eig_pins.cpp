// Cross-commit pins for the deflation eigensolve.
//
// Every GCRO-DR restart calls smallest_gen_eig_vectors on the pencil of
// eq. 3a/3b; the Golden grid only reaches it through whole solves. These
// pins store FNV-1a hashes (testing::Fingerprint) of the exact bits of its
// result on seeded pencils:
//  (a) real pencils of order 20, 30 and 40 with k = 10 (order 30 is the
//      GCRO-DR(30,10) refresh) and the complex order-152 pencil with
//      k = 40 of the `eig deflation complex n=152` bench row;
//  (b) a real pencil whose smallest eigenvalues are conjugate pairs and
//      real values in turn, cut once between pairs and once inside a pair;
//  (c) an upper triangular pencil with a repeated eigenvalue, where the
//      back substitution takes the smin perturbation.
// A mismatch prints the observed hash. The complex pencils also pass the
// eigen-residual oracle ||T z - theta W z|| <= c eps ||T||_F ||z|| with
// c = 30, LAPACK's test threshold (they read about 3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <vector>

#include "la/blas.hpp"
#include "la/eig.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;
using testing::random_matrix;

template <class T>
std::uint64_t hash_of(const DenseMatrix<T>& z) {
  testing::Fingerprint fp;
  fp.matrix<T>(z.view());
  return fp.value();
}

// W = I + 0.1 R: well conditioned, dense, seeded.
template <class T>
DenseMatrix<T> shifted_identity(index_t n, unsigned seed) {
  DenseMatrix<T> w = random_matrix<T>(n, n, seed);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) w(i, j) *= 0.1;
    w(j, j) += 1.0;
  }
  return w;
}

struct RealPin {
  index_t n;
  std::uint64_t hash;
};

const RealPin kRealPins[] = {
    {20, 0x4120057348b20ddcULL},
    {30, 0xe635a27ea605e7a6ULL},
    {40, 0xdac8e20a7497e48bULL},
};

TEST(EigPins, RealPencilsKTen) {
  for (const RealPin& pin : kRealPins) {
    const DenseMatrix<double> t = random_matrix<double>(pin.n, pin.n, 300 + unsigned(pin.n));
    const DenseMatrix<double> w = shifted_identity<double>(pin.n, 400 + unsigned(pin.n));
    const DenseMatrix<double> z = smallest_gen_eig_vectors<double>(t, w, 10);
    ASSERT_EQ(z.rows(), pin.n);
    ASSERT_EQ(z.cols(), 10);
    EXPECT_EQ(hash_of(z), pin.hash) << "n=" << pin.n << "; observed 0x" << std::hex
                                    << hash_of(z) << "ULL";
  }
}

// ||T z - theta W z|| / (eps ||T||_F ||z||) over the columns z of Z, with
// theta the least-squares Rayleigh quotient (Wz)^H (Tz) / ||Wz||^2; the
// thetas are returned in column order.
double scaled_residual(const DenseMatrix<cplx>& t, const DenseMatrix<cplx>& w,
                       const DenseMatrix<cplx>& z, std::vector<cplx>* thetas) {
  const index_t n = t.rows();
  double tnorm = 0;
  for (index_t j = 0; j < n; ++j)
    for (index_t i = 0; i < n; ++i) tnorm += std::norm(t(i, j));
  tnorm = std::sqrt(tnorm);
  double worst = 0;
  for (index_t c = 0; c < z.cols(); ++c) {
    std::vector<cplx> tz(size_t(n), 0.0), wz(size_t(n), 0.0);
    for (index_t l = 0; l < n; ++l)
      for (index_t i = 0; i < n; ++i) {
        tz[size_t(i)] += t(i, l) * z(l, c);
        wz[size_t(i)] += w(i, l) * z(l, c);
      }
    cplx num = 0;
    double den = 0, znorm = 0;
    for (index_t i = 0; i < n; ++i) {
      num += std::conj(wz[size_t(i)]) * tz[size_t(i)];
      den += std::norm(wz[size_t(i)]);
      znorm += std::norm(z(i, c));
    }
    const cplx theta = num / den;
    thetas->push_back(theta);
    double r = 0;
    for (index_t i = 0; i < n; ++i) r += std::norm(tz[size_t(i)] - theta * wz[size_t(i)]);
    worst = std::max(worst, std::sqrt(r) / (std::numeric_limits<double>::epsilon() * tnorm *
                                            std::sqrt(znorm)));
  }
  return worst;
}

// The returned columns are eigenvectors of the pencil, and their
// eigenvalues are the k smallest in magnitude of the full decomposition.
void expect_smallest_eigenpairs(const DenseMatrix<cplx>& t, const DenseMatrix<cplx>& w,
                                const DenseMatrix<cplx>& z, double c) {
  std::vector<cplx> thetas;
  EXPECT_LE(scaled_residual(t, w, z, &thetas), c);
  const EigDecomposition all = eig_generalized(t, w);
  std::vector<double> mags;
  for (const cplx& v : all.values) mags.push_back(std::abs(v));
  std::sort(mags.begin(), mags.end());
  std::vector<double> got;
  for (const cplx& v : thetas) got.push_back(std::abs(v));
  std::sort(got.begin(), got.end());
  for (size_t j = 0; j < got.size(); ++j)
    EXPECT_NEAR(got[j], mags[j], 1e-8 * std::max(1.0, mags[j])) << "j=" << j;
}

constexpr std::uint64_t kComplex152Hash = 0xd2184780c0b697fbULL;

TEST(EigPins, ComplexPencilOrder152KForty) {
  const index_t n = 152;
  const DenseMatrix<cplx> t = random_matrix<cplx>(n, n, 20);
  const DenseMatrix<cplx> w = shifted_identity<cplx>(n, 21);
  const DenseMatrix<cplx> z = smallest_gen_eig_vectors<cplx>(t, w, 40);
  ASSERT_EQ(z.cols(), 40);
  EXPECT_EQ(hash_of(z), kComplex152Hash) << "observed 0x" << std::hex << hash_of(z) << "ULL";
  expect_smallest_eigenpairs(t, w, z, 30.0);
}

TEST(EigPins, ComplexPencilResidualOracleSmallOrders) {
  for (const index_t n : {index_t(20), index_t(45)}) {
    const DenseMatrix<cplx> t = random_matrix<cplx>(n, n, 500 + unsigned(n));
    const DenseMatrix<cplx> w = shifted_identity<cplx>(n, 600 + unsigned(n));
    const DenseMatrix<cplx> z = smallest_gen_eig_vectors<cplx>(t, w, n / 3);
    expect_smallest_eigenpairs(t, w, z, 30.0);
  }
}

// B: block upper triangular, 2x2 blocks r [cos a, sin a; -sin a, cos a]
// (eigenvalues r e^{+-ia}) at r = 1, 3, 5, ... and 1x1 blocks 2, 4, ...
// in between. T = B P and W = P make W^-1 T = P^-1 B P: dense, real, with
// the spectrum of B.
constexpr std::uint64_t kPairsCutBetweenHash = 0x2e9c1eac3accca8eULL;
constexpr std::uint64_t kPairsCutInsideHash = 0x982b7147246cce51ULL;

TEST(EigPins, RealPencilWithConjugatePairs) {
  const index_t n = 16;
  DenseMatrix<double> b = random_matrix<double>(n, n, 700);
  for (index_t j = 0; j < n; ++j)
    for (index_t i = j; i < n; ++i) b(i, j) = 0;
  index_t i = 0;
  for (int step = 0; i < n; ++step) {
    const double r = 1.0 + double(step);
    if (step % 2 == 0 && i + 1 < n) {
      const double a = 0.3 + 0.1 * double(step);
      b(i, i) = r * std::cos(a);
      b(i, i + 1) = r * std::sin(a);
      b(i + 1, i) = -r * std::sin(a);
      b(i + 1, i + 1) = r * std::cos(a);
      i += 2;
    } else {
      b(i, i) = r;
      i += 1;
    }
  }
  const DenseMatrix<double> w = shifted_identity<double>(n, 701);
  DenseMatrix<double> t(n, n);
  gemm<double>(Trans::N, Trans::N, 1.0, b.view(), w.view(), 0.0, t.view());
  // Smallest: pair (r=1), real 2, pair (r=3), real 4, ...
  const DenseMatrix<double> z6 = smallest_gen_eig_vectors<double>(t, w, 6);
  const DenseMatrix<double> z4 = smallest_gen_eig_vectors<double>(t, w, 4);
  EXPECT_EQ(hash_of(z6), kPairsCutBetweenHash) << "observed 0x" << std::hex << hash_of(z6)
                                               << "ULL";
  EXPECT_EQ(hash_of(z4), kPairsCutInsideHash) << "observed 0x" << std::hex << hash_of(z4)
                                              << "ULL";
}

constexpr std::uint64_t kRepeatedEigenvalueHash = 0xc5c5cc98b28dd1a4ULL;

TEST(EigPins, TriangularPencilWithRepeatedEigenvalue) {
  // W^-1 T stays upper triangular with diagonal diag(T) exactly, so the
  // repeated value 0.5 meets t(i,i) - lambda == 0 in the back substitution.
  const index_t n = 10;
  DenseMatrix<double> t = random_matrix<double>(n, n, 800);
  DenseMatrix<double> w = random_matrix<double>(n, n, 801);
  const double diag[] = {0.5, 2.0, 0.5, -3.0, 4.0, 0.75, 0.5, -6.0, 7.0, 8.0};
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = j + 1; i < n; ++i) {
      t(i, j) = 0;
      w(i, j) = 0;
    }
    t(j, j) = diag[j];
    w(j, j) = 1.0;
  }
  const DenseMatrix<double> z = smallest_gen_eig_vectors<double>(t, w, 4);
  EXPECT_EQ(hash_of(z), kRepeatedEigenvalueHash) << "observed 0x" << std::hex << hash_of(z)
                                                 << "ULL";
}

}  // namespace
}  // namespace bkr
