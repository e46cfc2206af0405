// Integration tests: (Block) GCRO-DR — fig. 1 of the paper.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "fem/poisson2d.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;
using testing::random_matrix;

SolverOptions gcro_opts(index_t m, index_t k, double tol = 1e-9) {
  SolverOptions o;
  o.restart = m;
  o.recycle = k;
  o.tol = tol;
  o.max_iterations = 5000;
  return o;
}

TEST(GcroDr, SolvesSingleSystem) {
  const auto a = poisson2d(12, 12);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(12, 12, 0.1);
  std::vector<double> x(b.size(), 0.0);
  GcroDr<double> solver(gcro_opts(30, 10));
  const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), a.rows(), 1, a.rows()),
                               MatrixView<double>(x.data(), a.rows(), 1, a.rows()));
  EXPECT_TRUE(st.converged);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-8);
  EXPECT_TRUE(solver.has_recycled_space());
  EXPECT_EQ(solver.recycle_dim(), 10);
}

TEST(GcroDr, RecyclingInvariantAUEqualsC) {
  // After a solve, A U = C must hold (the structural invariant of GCRO).
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(10, 10, 10.0);
  std::vector<double> x(b.size(), 0.0);
  GcroDr<double> solver(gcro_opts(20, 6));
  const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                               MatrixView<double>(x.data(), n, 1, n));
  ASSERT_TRUE(st.converged);
  const auto& u = solver.recycled_u();
  const auto& c = solver.recycled_c();
  ASSERT_EQ(u.cols(), c.cols());
  DenseMatrix<double> au(n, u.cols());
  a.spmm(u.view(), au.view());
  EXPECT_LT(testing::diff_fro<double>(au.view(), c.view()), 1e-8);
  // And C has orthonormal columns.
  EXPECT_LT(testing::ortho_defect<double>(c.view()), 1e-8);
}

TEST(GcroDr, SecondSolveSameSystemIsCheaper) {
  // The paper's Poisson scenario: one matrix, several RHS.
  const auto a = poisson2d(16, 16);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  auto opts = gcro_opts(25, 8);
  opts.same_system = true;
  GcroDr<double> solver(opts);
  std::vector<index_t> iters;
  for (const double nu : kPoissonNus) {
    const auto b = poisson2d_rhs(16, 16, nu);
    std::vector<double> x(b.size(), 0.0);
    const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                 MatrixView<double>(x.data(), n, 1, n));
    ASSERT_TRUE(st.converged);
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-8);
    iters.push_back(st.iterations);
  }
  // Later solves must benefit from the recycled space.
  EXPECT_LT(iters[1], iters[0]);
  EXPECT_LT(iters[2], iters[0]);
  EXPECT_LT(iters[3], iters[0]);
}

TEST(GcroDr, BeatsRestartedGmresOnHardSequence) {
  const auto a = poisson2d(20, 20);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  SolverOptions gopts;
  gopts.restart = 20;
  gopts.tol = 1e-8;
  gopts.max_iterations = 20000;
  auto copts = gcro_opts(20, 8, 1e-8);
  copts.same_system = true;
  copts.max_iterations = 20000;
  GcroDr<double> recycler(copts);
  index_t gmres_total = 0, gcro_total = 0;
  for (const double nu : kPoissonNus) {
    const auto b = poisson2d_rhs(20, 20, nu);
    std::vector<double> xg(b.size(), 0.0), xc(b.size(), 0.0);
    const auto sg = gmres<double>(op, nullptr, b, xg, gopts);
    ASSERT_TRUE(sg.converged);
    gmres_total += sg.iterations;
    const auto sc = recycler.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                   MatrixView<double>(xc.data(), n, 1, n));
    ASSERT_TRUE(sc.converged);
    gcro_total += sc.iterations;
  }
  // The headline claim of section IV: recycling cuts total iterations.
  EXPECT_LT(gcro_total, gmres_total);
}

TEST(GcroDr, ChangingMatrixSequenceStillConverges) {
  // Slowly varying SPD matrices (the elasticity scenario, scaled down):
  // Poisson plus a varying diagonal shift.
  const auto base = poisson2d(12, 12);
  const index_t n = base.rows();
  GcroDr<double> solver(gcro_opts(20, 6, 1e-8));
  const auto b = poisson2d_rhs(12, 12, 1.0);
  for (const double shift : {0.0, 0.02, 0.04, 0.06}) {
    auto a = base;
    auto vals = a.values();
    // Add shift to the diagonal.
    for (index_t i = 0; i < n; ++i)
      for (index_t l = a.rowptr()[size_t(i)]; l < a.rowptr()[size_t(i) + 1]; ++l)
        if (a.colind()[size_t(l)] == i) a.values()[size_t(l)] = vals[size_t(l)] + shift;
    CsrOperator<double> op(a);
    std::vector<double> x(b.size(), 0.0);
    const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                 MatrixView<double>(x.data(), n, 1, n), nullptr,
                                 /*new_matrix=*/true);
    EXPECT_TRUE(st.converged);
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
  }
}

TEST(GcroDr, StrategyAAndBBothConverge) {
  const auto a = poisson2d(14, 14);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(14, 14, 0.001);
  for (const auto strat : {RecycleStrategy::A, RecycleStrategy::B}) {
    auto opts = gcro_opts(15, 5, 1e-8);
    opts.strategy = strat;
    GcroDr<double> solver(opts);
    std::vector<double> x(b.size(), 0.0);
    const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                 MatrixView<double>(x.data(), n, 1, n));
    EXPECT_TRUE(st.converged) << "strategy " << (strat == RecycleStrategy::A ? "A" : "B");
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
  }
}

TEST(GcroDr, StrategyANeedsOneMoreReductionPerRestart) {
  const auto a = poisson2d(16, 16);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(16, 16, 100.0);
  std::int64_t reductions[2];
  index_t cycles[2];
  int idx = 0;
  for (const auto strat : {RecycleStrategy::B, RecycleStrategy::A}) {
    auto opts = gcro_opts(10, 4, 1e-9);
    opts.strategy = strat;
    GcroDr<double> solver(opts);
    std::vector<double> x(b.size(), 0.0);
    const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                 MatrixView<double>(x.data(), n, 1, n));
    EXPECT_TRUE(st.converged);
    reductions[idx] = st.reductions;
    cycles[idx] = st.cycles;
    ++idx;
  }
  // If iteration paths coincide, A costs exactly one extra reduction per
  // eigenproblem restart; allow paths to differ slightly but A must not
  // be cheaper in reductions per cycle.
  EXPECT_GE(double(reductions[1]) / double(cycles[1]), double(reductions[0]) / double(cycles[0]));
}

TEST(GcroDr, SameSystemSkipsRecycleSetupReductions) {
  const auto a = poisson2d(14, 14);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  auto run = [&](bool same) {
    auto opts = gcro_opts(15, 5, 1e-8);
    opts.same_system = same;
    GcroDr<double> solver(opts);
    std::int64_t total = 0;
    for (const double nu : kPoissonNus) {
      const auto b = poisson2d_rhs(14, 14, nu);
      std::vector<double> x(b.size(), 0.0);
      const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                   MatrixView<double>(x.data(), n, 1, n));
      EXPECT_TRUE(st.converged);
      total += st.reductions;
    }
    return total;
  };
  // The non-variable optimization (section III-B) must reduce the number
  // of global synchronizations over the sequence.
  EXPECT_LT(run(true), run(false));
}

TEST(BlockGcroDr, SolvesMultipleRhs) {
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = random_matrix<double>(n, 4, 81);
  DenseMatrix<double> x(n, 4);
  GcroDr<double> solver(gcro_opts(12, 3, 1e-8));
  const auto st = solver.solve(op, nullptr, b.view(), x.view());
  EXPECT_TRUE(st.converged);
  DenseMatrix<double> check(n, 4);
  a.spmm(x.view(), check.view());
  EXPECT_LT(testing::diff_fro<double>(check.view(), b.view()), 1e-6);
  EXPECT_EQ(solver.recycle_dim(), 3 * 4);  // k blocks of p columns
}

TEST(BlockGcroDr, RecycledBlockInvariant) {
  const auto a = poisson2d(9, 9);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = random_matrix<double>(n, 3, 82);
  DenseMatrix<double> x(n, 3);
  GcroDr<double> solver(gcro_opts(10, 3, 1e-9));
  const auto st = solver.solve(op, nullptr, b.view(), x.view());
  ASSERT_TRUE(st.converged);
  const auto& u = solver.recycled_u();
  const auto& c = solver.recycled_c();
  DenseMatrix<double> au(n, u.cols());
  a.spmm(u.view(), au.view());
  EXPECT_LT(testing::diff_fro<double>(au.view(), c.view()), 1e-7);
}

TEST(PseudoGcroDrPlaceholder, BlockAndSingleAgreeOnSolution) {
  // Block GCRO-DR with p RHS and sequential single-RHS GCRO-DR must both
  // hit the same solutions (up to tolerance).
  const auto a = poisson2d(8, 8);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = random_matrix<double>(n, 2, 83);
  DenseMatrix<double> xb(n, 2);
  GcroDr<double> block(gcro_opts(10, 2, 1e-10));
  ASSERT_TRUE(block.solve(op, nullptr, b.view(), xb.view()).converged);
  for (index_t c = 0; c < 2; ++c) {
    std::vector<double> bc(b.col(c), b.col(c) + n), xc(size_t(n), 0.0);
    GcroDr<double> single(gcro_opts(10, 2, 1e-10));
    ASSERT_TRUE(single
                    .solve(op, nullptr, MatrixView<const double>(bc.data(), n, 1, n),
                           MatrixView<double>(xc.data(), n, 1, n))
                    .converged);
    for (index_t i = 0; i < n; ++i) EXPECT_NEAR(xc[size_t(i)], xb(i, c), 1e-6);
  }
}

TEST(PseudoGcroDr, ReusesRecycledSpaceNarrowerThanK) {
  // Lane 0's right-hand side is an eigenvector of the five-point Poisson
  // matrix, so it converges in one step and seeds a single recycled
  // column; the space persists at that narrowest width. The next solve
  // must unpack one column per lane, not k (the columns past the
  // persisted width do not exist).
  const index_t nx = 10, n = nx * nx;
  const auto a = poisson2d(nx, nx);
  CsrOperator<double> op(a);
  DenseMatrix<double> b = random_matrix<double>(n, 2, 84);
  for (index_t j = 0; j < nx; ++j)
    for (index_t i = 0; i < nx; ++i)
      b(i + j * nx, 0) = std::sin(M_PI * double(i + 1) / double(nx + 1)) *
                         std::sin(M_PI * double(j + 1) / double(nx + 1));
  PseudoGcroDr<double> solver(gcro_opts(12, 4, 1e-9));
  DenseMatrix<double> x1(n, 2);
  const auto st1 = solver.solve(op, nullptr, b.view(), x1.view());
  ASSERT_TRUE(st1.converged);
  ASSERT_EQ(st1.per_rhs_iterations[0], 0);  // lane 0 hit tolerance in its first step
  ASSERT_EQ(solver.recycled_u().cols(), 2);  // one column per lane
  DenseMatrix<double> x2(n, 2);
  const auto st2 = solver.solve(op, nullptr, b.view(), x2.view());
  ASSERT_TRUE(st2.converged);
  for (index_t c = 0; c < 2; ++c) {
    const std::vector<double> bc(b.col(c), b.col(c) + n), xc(x2.col(c), x2.col(c) + n);
    EXPECT_LT(testing::relative_residual(a, xc, bc), 1e-8) << "lane " << c;
  }
}

TEST(GcroDr, ComplexSystem) {
  // Complex shifted Poisson (a damped Helmholtz surrogate).
  const auto ar = poisson2d(12, 12);
  const index_t n = ar.rows();
  CooBuilder<cplx> builder(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t l = ar.rowptr()[size_t(i)]; l < ar.rowptr()[size_t(i) + 1]; ++l)
      builder.add(i, ar.colind()[size_t(l)],
                  cplx(ar.values()[size_t(l)], 0) -
                      (ar.colind()[size_t(l)] == i ? cplx(0.05, -0.05) : cplx(0)));
  const auto a = builder.build();
  CsrOperator<cplx> op(a);
  Rng rng(84);
  std::vector<cplx> b(static_cast<size_t>(n));
  for (auto& v : b) v = rng.scalar<cplx>();
  std::vector<cplx> x(b.size(), cplx(0));
  GcroDr<cplx> solver(gcro_opts(20, 6, 1e-9));
  const auto st = solver.solve(op, nullptr, MatrixView<const cplx>(b.data(), n, 1, n),
                               MatrixView<cplx>(x.data(), n, 1, n));
  EXPECT_TRUE(st.converged);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-8);
}

TEST(GcroDr, HistoryTracksConvergence) {
  const auto a = poisson2d(12, 12);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(12, 12, 10.0);
  std::vector<double> x(b.size(), 0.0);
  GcroDr<double> solver(gcro_opts(15, 5, 1e-9));
  const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                               MatrixView<double>(x.data(), n, 1, n));
  ASSERT_TRUE(st.converged);
  const auto& h = st.history[0];
  ASSERT_GE(h.size(), 2u);
  EXPECT_NEAR(h.front(), 1.0, 1e-9);  // zero initial guess
  EXPECT_LE(h.back(), 1e-8);
}

TEST(GcroDr, RejectsBadRecycleDimension) {
  const auto a = poisson2d(5, 5);
  CsrOperator<double> op(a);
  std::vector<double> b(25, 1.0), x(25, 0.0);
  SolverOptions opts;
  opts.restart = 10;
  opts.recycle = 0;
  GcroDr<double> solver(opts);
  EXPECT_THROW(solver.solve(op, nullptr, MatrixView<const double>(b.data(), 25, 1, 25),
                            MatrixView<double>(x.data(), 25, 1, 25)),
               std::invalid_argument);
}

// Property sweep: recycling never hurts correctness across (m, k) combos.
class GcroDrParams : public ::testing::TestWithParam<std::pair<index_t, index_t>> {};

TEST_P(GcroDrParams, ConvergesForAllRestartRecycleCombos) {
  const auto [m, k] = GetParam();
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  GcroDr<double> solver(gcro_opts(m, k, 1e-8));
  for (const double nu : {0.1, 100.0}) {
    const auto b = poisson2d_rhs(10, 10, nu);
    std::vector<double> x(b.size(), 0.0);
    const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                 MatrixView<double>(x.data(), n, 1, n), nullptr,
                                 /*new_matrix=*/false);
    EXPECT_TRUE(st.converged) << "m=" << m << " k=" << k;
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Combos, GcroDrParams,
                         ::testing::Values(std::pair<index_t, index_t>{8, 1},
                                           std::pair<index_t, index_t>{8, 4},
                                           std::pair<index_t, index_t>{8, 7},
                                           std::pair<index_t, index_t>{30, 10},
                                           std::pair<index_t, index_t>{30, 15},
                                           std::pair<index_t, index_t>{50, 10}));

}  // namespace
}  // namespace bkr
