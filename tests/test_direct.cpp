// Unit tests: fill-reducing orderings and the sparse LDL^T direct solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>

#include "direct/factor.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "sparse/partition.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;
using testing::random_matrix;

TEST(Ordering, NestedDissectionIsPermutation) {
  const auto a = poisson2d(13, 11);
  const auto g = adjacency_of(a);
  const auto perm = nested_dissection(g, 8);
  ASSERT_EQ(index_t(perm.size()), g.n);
  std::vector<char> seen(perm.size(), 0);
  for (const auto v : perm) {
    ASSERT_GE(v, 0);
    ASSERT_LT(v, g.n);
    EXPECT_FALSE(seen[size_t(v)]);
    seen[size_t(v)] = 1;
  }
}

TEST(Ordering, NestedDissectionReducesFill) {
  const auto a = poisson2d(24, 24);
  const SparseLDLT<double> nd(a, FactorOrdering::NestedDissection);
  const SparseLDLT<double> nat(a, FactorOrdering::Natural);
  // ND should produce clearly less fill than the natural (banded) order on
  // a square grid.
  EXPECT_LT(nd.factor_nnz(), nat.factor_nnz());
}

TEST(Direct, SolvesPoissonSingleRhs) {
  const auto a = poisson2d(15, 15);
  const SparseLDLT<double> f(a);
  std::vector<double> b = poisson2d_rhs(15, 15, 0.5);
  std::vector<double> x = b;
  f.solve(MatrixView<double>(x.data(), a.rows(), 1, a.rows()));
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-12);
}

TEST(Direct, SolvesPoissonMultiRhs) {
  const auto a = poisson2d(12, 10);
  const index_t n = a.rows();
  const SparseLDLT<double> f(a);
  auto b = random_matrix<double>(n, 7, 61);
  DenseMatrix<double> x = copy_of(b);
  f.solve(x.view());
  DenseMatrix<double> check(n, 7);
  a.spmm(x.view(), check.view());
  EXPECT_LT(testing::diff_fro<double>(check.view(), b.view()), 1e-11);
}

// Every right-hand side of a block is an independent sweep of the factor,
// so a block solve, a one-column solve and a threaded panel solve give the
// same bits for each column.
template <class T>
void expect_columns_independent(const SparseLDLT<T>& f, index_t p, unsigned seed) {
  const index_t n = f.n();
  const auto b = random_matrix<T>(n, p, seed);
  DenseMatrix<T> xblock = copy_of(b);
  f.solve(xblock.view());
  for (index_t c = 0; c < p; ++c) {
    DenseMatrix<T> x(n, 1);
    std::copy(b.col(c), b.col(c) + n, x.col(0));
    f.solve(x.view());
    DenseMatrix<T> want(n, 1);
    std::copy(xblock.col(c), xblock.col(c) + n, want.col(0));
    testing::expect_same_bits(x, want, "single column vs block");
  }
  DenseMatrix<T> xt = copy_of(b);
  f.solve(xt.view(), 4);
  testing::expect_same_bits(xt, xblock, "threads 4 vs 1");
}

TEST(Direct, MultiRhsMatchesRepeatedSingleRhs) {
  const SparseLDLT<double> f(poisson2d(9, 9));
  expect_columns_independent(f, 4, 62);
}

TEST(Direct, ThreadedPanelsMatchSerial) {
  const SparseLDLT<double> f(poisson2d(11, 11));
  expect_columns_independent(f, 8, 63);
}

// The largest Dirichlet subdomain of ORAS(16), overlap 2, on the fig-8
// chamber (the matrix of the `ldlt solve complex oras-sub` bench row). On
// a CPU that runs AVX2 a block solve takes the 32-byte row updates and a
// one-column solve only the 16-byte step, so this also holds the two
// widths to each other; p = 11 makes thread panels of 3, 3, 3 and 2
// values, and p = 32 panels of 8.
TEST(Direct, ComplexOrasSubdomainColumnsAreIndependent) {
  MaxwellConfig cfg;
  cfg.n = 6;
  cfg.wavelengths = 2.0;
  cfg.eps_r = 1.0;
  cfg.loss = 0.15;
  cfg.inclusion_radius = 0.21;
  cfg.inclusion_eps_r = 3.0;
  const auto prob = maxwell3d(cfg);
  const OverlappingDecomposition dec = make_decomposition(adjacency_of(prob.matrix), 16, 2);
  size_t big = 0;
  for (size_t i = 1; i < dec.rows.size(); ++i)
    if (dec.rows[i].size() > dec.rows[big].size()) big = i;
  const SparseLDLT<cplx> f(extract_submatrix(prob.matrix, dec.rows[big]));
  for (const index_t p : {index_t(1), index_t(3), index_t(8), index_t(11), index_t(32)})
    expect_columns_independent(f, p, 70 + unsigned(p));
}

TEST(Direct, ComplexSymmetricMaxwell) {
  MaxwellConfig cfg;
  cfg.n = 6;
  cfg.wavelengths = 1.0;
  cfg.loss = 0.3;
  const auto prob = maxwell3d(cfg);
  ASSERT_GT(prob.nfree, 0);
  const SparseLDLT<cplx> f(prob.matrix);
  const auto b = antenna_rhs(prob, 0, 8);
  std::vector<cplx> x = b;
  f.solve(MatrixView<cplx>(x.data(), prob.nfree, 1, prob.nfree));
  EXPECT_LT(testing::relative_residual(prob.matrix, x, b), 1e-10);
}

TEST(Direct, AllOrderingsAgree) {
  const auto a = poisson2d(8, 9);
  const index_t n = a.rows();
  const auto b = poisson2d_rhs(8, 9, 10.0);
  std::vector<std::vector<double>> solutions;
  for (const auto ord :
       {FactorOrdering::NestedDissection, FactorOrdering::Rcm, FactorOrdering::Natural}) {
    const SparseLDLT<double> f(a, ord);
    std::vector<double> x = b;
    f.solve(MatrixView<double>(x.data(), n, 1, n));
    solutions.push_back(std::move(x));
  }
  for (size_t s = 1; s < solutions.size(); ++s)
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(solutions[s][size_t(i)], solutions[0][size_t(i)], 1e-11);
}

TEST(Direct, ThrowsOnSingularMatrix) {
  CooBuilder<double> b(3, 3);
  b.add(0, 0, 1.0);
  b.add(1, 1, 1.0);
  b.add(2, 2, 0.0);  // dropped: zero entries are not stored
  b.add(2, 1, 0.0);
  // Row 2 is structurally empty -> singular.
  CooBuilder<double> b2(3, 3);
  b2.add(0, 0, 1.0);
  b2.add(1, 1, 1.0);
  b2.add(2, 2, 1e-30);
  EXPECT_THROW(SparseLDLT<double> f(b2.build()), std::runtime_error);
}

TEST(Direct, SolveCopyLeavesInputIntact) {
  const auto a = poisson2d(7, 7);
  const index_t n = a.rows();
  const SparseLDLT<double> f(a);
  const auto b = random_matrix<double>(n, 2, 64);
  DenseMatrix<double> x(n, 2);
  f.solve_copy(b.view(), x.view());
  DenseMatrix<double> check(n, 2);
  a.spmm(x.view(), check.view());
  EXPECT_LT(testing::diff_fro<double>(check.view(), b.view()), 1e-11);
}

// Property sweep: LDL^T solves SPD grid systems of assorted shapes.
class DirectShapes : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(DirectShapes, Solves) {
  const auto [nx, ny] = GetParam();
  const auto a = poisson2d(nx, ny);
  const SparseLDLT<double> f(a);
  const auto b = poisson2d_rhs(nx, ny, 1.0);
  std::vector<double> x = b;
  f.solve(MatrixView<double>(x.data(), a.rows(), 1, a.rows()));
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-11);
}

INSTANTIATE_TEST_SUITE_P(Grids, DirectShapes,
                         ::testing::Values(std::pair<index_t, index_t>{1, 1},
                                           std::pair<index_t, index_t>{2, 3},
                                           std::pair<index_t, index_t>{16, 3},
                                           std::pair<index_t, index_t>{3, 16},
                                           std::pair<index_t, index_t>{17, 17}));

}  // namespace
}  // namespace bkr
