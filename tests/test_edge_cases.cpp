// Edge cases and failure-injection tests across the solver stack.
#include <gtest/gtest.h>

#include <complex>

#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "direct/factor.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/lgmres.hpp"
#include "fem/poisson2d.hpp"
#include "precond/schwarz.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;
using testing::random_matrix;

TEST(EdgeCases, WarmStartConvergesFaster) {
  const auto a = poisson2d(12, 12);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(12, 12, 1.0);
  SolverOptions opts;
  opts.restart = 100;
  opts.tol = 1e-9;
  std::vector<double> cold(b.size(), 0.0);
  const auto scold = gmres<double>(op, nullptr, b, cold, opts);
  ASSERT_TRUE(scold.converged);
  // Perturb the solution slightly and restart from it.
  std::vector<double> warm = cold;
  for (auto& v : warm) v *= 1.0 + 1e-6;
  const auto swarm = gmres<double>(op, nullptr, b, warm, opts);
  EXPECT_TRUE(swarm.converged);
  EXPECT_LE(swarm.iterations, scold.iterations);
}

TEST(EdgeCases, MaxIterationsCapIsHonored) {
  const auto a = poisson2d(20, 20);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(20, 20, 0.001);
  SolverOptions opts;
  opts.restart = 10;
  opts.tol = 1e-14;  // unreachable
  opts.max_iterations = 37;
  std::vector<double> x(b.size(), 0.0);
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_FALSE(st.converged);
  EXPECT_LE(st.iterations, 37);
  EXPECT_GE(st.iterations, 30);
}

TEST(EdgeCases, HistoryCanBeDisabled) {
  const auto a = poisson2d(8, 8);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(8, 8, 10.0);
  SolverOptions opts;
  opts.record_history = false;
  std::vector<double> x(b.size(), 0.0);
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_TRUE(st.history[0].empty());
}

TEST(EdgeCases, IdentityMatrixConvergesImmediately) {
  CooBuilder<double> builder(10, 10);
  for (index_t i = 0; i < 10; ++i) builder.add(i, i, 1.0);
  const auto a = builder.build();
  CsrOperator<double> op(a);
  std::vector<double> b(10, 2.0), x(10, 0.0);
  SolverOptions opts;
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LE(st.iterations, 1);
  for (const auto v : x) EXPECT_NEAR(v, 2.0, 1e-12);
}

TEST(EdgeCases, TinySystems) {
  // n = 1 and n = 2 must work across solvers.
  for (const index_t nn : {index_t(1), index_t(2)}) {
    CooBuilder<double> builder(nn, nn);
    for (index_t i = 0; i < nn; ++i) {
      builder.add(i, i, 3.0);
      if (i + 1 < nn) {
        builder.add(i, i + 1, -1.0);
        builder.add(i + 1, i, -1.0);
      }
    }
    const auto a = builder.build();
    CsrOperator<double> op(a);
    std::vector<double> b(static_cast<size_t>(nn), 1.0), x(static_cast<size_t>(nn), 0.0);
    SolverOptions opts;
    opts.restart = 4;
    const auto st = gmres<double>(op, nullptr, b, x, opts);
    EXPECT_TRUE(st.converged);
    EXPECT_LT(testing::relative_residual(a, x, b), 1e-9);
    std::fill(x.begin(), x.end(), 0.0);
    const auto sc = cg<double>(op, nullptr, b, x, opts);
    EXPECT_TRUE(sc.converged);
  }
}

TEST(EdgeCases, GcroDrRecycleLargerThanNeededIsClamped) {
  // recycle >= restart is clamped to restart - 1 rather than crashing.
  const auto a = poisson2d(8, 8);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(8, 8, 0.1);
  SolverOptions opts;
  opts.restart = 6;
  opts.recycle = 100;
  GcroDr<double> solver(opts);
  std::vector<double> x(b.size(), 0.0);
  const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), 64, 1, 64),
                               MatrixView<double>(x.data(), 64, 1, 64));
  EXPECT_TRUE(st.converged);
  EXPECT_LE(solver.recycle_dim(), 5);
}

TEST(EdgeCases, GcroDrResetDropsSpace) {
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(10, 10, 0.1);
  SolverOptions opts;
  opts.restart = 12;
  opts.recycle = 4;
  GcroDr<double> solver(opts);
  std::vector<double> x(b.size(), 0.0);
  (void)solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                     MatrixView<double>(x.data(), n, 1, n));
  ASSERT_TRUE(solver.has_recycled_space());
  solver.reset();
  EXPECT_FALSE(solver.has_recycled_space());
  // Still solves after a reset.
  std::fill(x.begin(), x.end(), 0.0);
  const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                               MatrixView<double>(x.data(), n, 1, n));
  EXPECT_TRUE(st.converged);
}

TEST(EdgeCases, BlockGmresWithDuplicateColumns) {
  // Two identical RHS columns: an immediate block rank deficiency the
  // solver must survive (rank-revealing fallback at the residual QR).
  const auto a = poisson2d(9, 9);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  DenseMatrix<double> b(n, 2);
  const auto f = poisson2d_rhs(9, 9, 1.0);
  std::copy(f.begin(), f.end(), b.col(0));
  std::copy(f.begin(), f.end(), b.col(1));
  DenseMatrix<double> x(n, 2);
  SolverOptions opts;
  opts.restart = 50;
  opts.tol = 1e-8;
  opts.max_iterations = 500;
  const auto st = block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  EXPECT_TRUE(st.converged);
  for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x(i, 0), x(i, 1), 1e-6);
}

TEST(EdgeCases, PseudoBlockWithOneConvergedLane) {
  // Lane 1 starts with the exact solution; the other lane must still run.
  const auto a = poisson2d(8, 8);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  DenseMatrix<double> b(n, 2), x(n, 2);
  const auto f = poisson2d_rhs(8, 8, 0.1);
  std::copy(f.begin(), f.end(), b.col(0));
  std::copy(f.begin(), f.end(), b.col(1));
  // Solve lane 1 exactly first.
  SparseLDLT<double> direct(a);
  std::vector<double> exact(f);
  direct.solve(MatrixView<double>(exact.data(), n, 1, n));
  std::copy(exact.begin(), exact.end(), x.col(1));
  SolverOptions opts;
  opts.restart = 40;
  const auto st = pseudo_block_gmres<double>(op, nullptr, b.view(), x.view(), opts);
  EXPECT_TRUE(st.converged);
  EXPECT_EQ(st.per_rhs_iterations[1], 0);
  EXPECT_GT(st.per_rhs_iterations[0], 3);
  EXPECT_LT(testing::relative_residual(a, std::vector<double>(x.col(0), x.col(0) + n), f), 1e-7);
}

TEST(EdgeCases, LgmresZeroAugmentationIsPlainGmres) {
  const auto a = poisson2d(10, 10);
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(10, 10, 10.0);
  SolverOptions opts;
  opts.restart = 12;
  opts.recycle = 0;  // no augmentation
  opts.max_iterations = 3000;
  std::vector<double> xl(b.size(), 0.0), xg(b.size(), 0.0);
  const auto sl = lgmres<double>(op, nullptr, b, xl, opts);
  const auto sg = gmres<double>(op, nullptr, b, xg, opts);
  ASSERT_TRUE(sl.converged);
  ASSERT_TRUE(sg.converged);
  EXPECT_EQ(sl.iterations, sg.iterations);
}

TEST(EdgeCases, SchwarzRejectsNothingAndCountsStats) {
  const auto a = poisson2d(12, 12);
  SchwarzOptions o;
  o.subdomains = 4;
  o.overlap = 1;
  SchwarzPreconditioner<double> m(a, o);
  DenseMatrix<double> r = random_matrix<double>(a.rows(), 2, 7);
  DenseMatrix<double> z(a.rows(), 2);
  m.apply(r.view(), z.view());
  m.apply(r.view(), z.view());
  EXPECT_EQ(m.stats().applications, 2);
  EXPECT_GT(m.stats().factor_nnz_total, 0);
  EXPECT_GE(m.stats().apply_seconds_sum, m.stats().apply_seconds_max);
}

TEST(EdgeCases, ComplexLgmres) {
  // LGMRES on a complex shifted Laplacian.
  const auto ar = poisson2d(10, 10);
  const index_t n = ar.rows();
  CooBuilder<cplx> builder(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t l = ar.rowptr()[size_t(i)]; l < ar.rowptr()[size_t(i) + 1]; ++l)
      builder.add(i, ar.colind()[size_t(l)],
                  cplx(ar.values()[size_t(l)], 0) -
                      (ar.colind()[size_t(l)] == i ? cplx(0.1, -0.1) : cplx(0)));
  const auto a = builder.build();
  CsrOperator<cplx> op(a);
  Rng rng(11);
  std::vector<cplx> b(static_cast<size_t>(n));
  for (auto& v : b) v = rng.scalar<cplx>();
  std::vector<cplx> x(b.size(), cplx(0));
  SolverOptions opts;
  opts.restart = 15;
  opts.recycle = 5;
  opts.max_iterations = 3000;
  const auto st = lgmres<cplx>(op, nullptr, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
}

TEST(EdgeCases, NonZeroInitialGuessGcroDr) {
  const auto a = poisson2d(10, 10);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(10, 10, 0.1);
  SolverOptions opts;
  opts.restart = 15;
  opts.recycle = 5;
  GcroDr<double> solver(opts);
  Rng rng(13);
  std::vector<double> x(b.size());
  for (auto& v : x) v = rng.scalar<double>();
  const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                               MatrixView<double>(x.data(), n, 1, n));
  EXPECT_TRUE(st.converged);
  EXPECT_LT(testing::relative_residual(a, x, b), 1e-7);
}

// ---------------------------------------------------------------------------
// Degenerate inputs: every solver entry point must handle a zero RHS
// column, duplicated RHS columns, and a singular operator by terminating
// with either success or a precise SolveStatus — never a crash or hang.

// One nx2 solve per entry point, sharing the dispatch with the chaos suite.
template <class Fn>
void for_each_block_entry(Fn&& fn) {
  fn("cg", [](const CsrMatrix<double>& a, MatrixView<const double> b, MatrixView<double> x,
              const SolverOptions& o) {
    CsrOperator<double> op(a);
    return cg<double>(op, nullptr, b, x, o);
  });
  fn("block_cg", [](const CsrMatrix<double>& a, MatrixView<const double> b, MatrixView<double> x,
                    const SolverOptions& o) {
    CsrOperator<double> op(a);
    return block_cg<double>(op, nullptr, b, x, o);
  });
  fn("block_gmres", [](const CsrMatrix<double>& a, MatrixView<const double> b,
                       MatrixView<double> x, const SolverOptions& o) {
    CsrOperator<double> op(a);
    return block_gmres<double>(op, nullptr, b, x, o);
  });
  fn("pseudo_block_gmres", [](const CsrMatrix<double>& a, MatrixView<const double> b,
                              MatrixView<double> x, const SolverOptions& o) {
    CsrOperator<double> op(a);
    return pseudo_block_gmres<double>(op, nullptr, b, x, o);
  });
  fn("gcrodr", [](const CsrMatrix<double>& a, MatrixView<const double> b, MatrixView<double> x,
                  const SolverOptions& o) {
    CsrOperator<double> op(a);
    GcroDr<double> solver(o);
    return solver.solve(op, nullptr, b, x);
  });
  fn("pseudo_gcrodr", [](const CsrMatrix<double>& a, MatrixView<const double> b,
                         MatrixView<double> x, const SolverOptions& o) {
    CsrOperator<double> op(a);
    PseudoGcroDr<double> solver(o);
    return solver.solve(op, nullptr, b, x);
  });
}

TEST(EdgeCases, ZeroRhsColumnAcrossSolvers) {
  const auto a = poisson2d(8, 8);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 2);
  const auto f = poisson2d_rhs(8, 8, 0.1);
  std::copy(f.begin(), f.end(), b.col(0));  // column 1 stays exactly zero
  for_each_block_entry([&](const char* name, auto run) {
    SCOPED_TRACE(name);
    SolverOptions opts;
    opts.restart = 20;
    opts.recycle = 4;
    opts.max_iterations = 500;
    DenseMatrix<double> x(n, 2);
    SolveStats st;
    ASSERT_NO_THROW(st = run(a, b.view(), x.view(), opts));
    EXPECT_EQ(st.converged, st.status == SolveStatus::Converged);
    if (st.converged) {
      // The zero column's solution must stay (numerically) zero.
      for (index_t i = 0; i < n; ++i) EXPECT_LT(std::abs(x(i, 1)), 1e-8);
    }
  });
}

TEST(EdgeCases, DuplicatedRhsColumnsAcrossSolvers) {
  const auto a = poisson2d(8, 8);
  const index_t n = a.rows();
  DenseMatrix<double> b(n, 2);
  const auto f = poisson2d_rhs(8, 8, 1.0);
  std::copy(f.begin(), f.end(), b.col(0));
  std::copy(f.begin(), f.end(), b.col(1));
  for_each_block_entry([&](const char* name, auto run) {
    SCOPED_TRACE(name);
    SolverOptions opts;
    opts.restart = 30;
    opts.recycle = 4;
    opts.max_iterations = 500;
    DenseMatrix<double> x(n, 2);
    SolveStats st;
    ASSERT_NO_THROW(st = run(a, b.view(), x.view(), opts));
    EXPECT_EQ(st.converged, st.status == SolveStatus::Converged);
    EXPECT_LE(st.iterations, opts.max_iterations);
    if (st.converged) {
      for (index_t i = 0; i < n; ++i) EXPECT_NEAR(x(i, 0), x(i, 1), 1e-5);
    }
  });
}

TEST(EdgeCases, SingularOperatorInconsistentRhsAcrossSolvers) {
  // diag(1, ..., 1, 0) with b touching the null space: no solution exists.
  // Acceptable outcomes are only the precise failure statuses.
  const index_t n = 16;
  CooBuilder<double> builder(n, n);
  for (index_t i = 0; i < n; ++i) builder.add(i, i, i + 1 < n ? 1.0 : 0.0);
  const auto a = builder.build();
  DenseMatrix<double> b(n, 2);
  for (index_t i = 0; i < n; ++i) b(i, 0) = b(i, 1) = 1.0;  // last row inconsistent
  b(0, 1) = 2.0;  // keep the block full rank
  for_each_block_entry([&](const char* name, auto run) {
    SCOPED_TRACE(name);
    SolverOptions opts;
    opts.restart = 8;
    opts.recycle = 2;
    opts.max_iterations = 60;
    DenseMatrix<double> x(n, 2);
    SolveStats st;
    ASSERT_NO_THROW(st = run(a, b.view(), x.view(), opts));
    EXPECT_FALSE(st.converged);
    EXPECT_TRUE(st.status == SolveStatus::MaxIterations || st.status == SolveStatus::Stagnated ||
                st.status == SolveStatus::Breakdown ||
                st.status == SolveStatus::NonFiniteResidual)
        << "status = " << status_name(st.status);
  });
}

}  // namespace
}  // namespace bkr
