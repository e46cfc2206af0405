// Tests: mixed-precision pilot (DESIGN.md §14) — the fp32-storage mirror,
// MixedPrecisionOperator, the residual-replacement discipline, and the
// regression pins for the findings bkr-fpflow surfaced.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/contracts.hpp"
#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "core/gmres.hpp"
#include "core/operator.hpp"
#include "fem/poisson2d.hpp"
#include "obs/trace.hpp"
#include "parallel/comm_model.hpp"
#include "precond/amg.hpp"
#include "sparse/mixed.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

// This suite is the tolerance-based oracle for the narrowing components
// of the pilot (bkr-fpflow rule oracle-mismatch): every solver-reachable
// BKR_ALLOW_NARROWING / BKR_PRECISION_BOUNDARY component must be named
// here.
BKR_TOLERANCE_ORACLE(MixedPrecisionOperator);
BKR_TOLERANCE_ORACLE(MixedCsr);

using cd = std::complex<double>;

TEST(MixedPrecision, NarrowWidenRoundtrip) {
  // Values exactly representable in fp32 survive the round trip bitwise.
  EXPECT_EQ(precision_convert<double>::widen(precision_convert<double>::narrow(1.5)), 1.5);
  EXPECT_EQ(precision_convert<double>::widen(precision_convert<double>::narrow(-0.25)), -0.25);
  const cd z = precision_convert<cd>::widen(precision_convert<cd>::narrow(cd(2.5, -0.125)));
  EXPECT_EQ(z, cd(2.5, -0.125));
  // A value that is not loses at most an fp32 ulp, relative.
  const double v = 1.0 / 3.0;
  const double w = precision_convert<double>::widen(precision_convert<double>::narrow(v));
  EXPECT_LT(std::abs(w - v) / v, 1e-7);
}

TEST(MixedPrecision, MirrorSpmvMatchesFp64WithinFp32Eps) {
  const auto a = poisson2d(16, 16);
  const index_t n = a.rows();
  const MixedCsr<double> mirror(a);
  EXPECT_EQ(mirror.nnz(), a.nnz());
  const auto x = testing::random_matrix<double>(n, 1, 71);
  std::vector<double> y64(size_t(n), 0.0), y32(size_t(n), 0.0);
  a.spmv(x.view().col(0), y64.data());
  mirror.spmv(x.view().col(0), y32.data());
  double num = 0, den = 0;
  for (index_t i = 0; i < n; ++i) {
    num += (y64[size_t(i)] - y32[size_t(i)]) * (y64[size_t(i)] - y32[size_t(i)]);
    den += y64[size_t(i)] * y64[size_t(i)];
  }
  EXPECT_LT(std::sqrt(num / den), 1e-6);
}

TEST(MixedPrecision, MirrorSpmmMatchesColumnwiseSpmv) {
  // The fused block sweep performs the same per-column accumulation order
  // as repeated spmv, so the two paths are bitwise identical.
  const auto a = poisson2d(11, 13);
  const index_t n = a.rows(), p = 4;
  const MixedCsr<double> mirror(a);
  const auto x = testing::random_matrix<double>(n, p, 72);
  DenseMatrix<double> y_block(n, p), y_cols(n, p);
  mirror.spmm(x.view(), y_block.view());
  for (index_t c = 0; c < p; ++c) mirror.spmv(x.view().col(c), y_cols.col(c));
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(y_block(i, c), y_cols(i, c));
}

TEST(MixedPrecision, ComplexMirrorAccuracy) {
  const index_t n = 50;
  CooBuilder<cd> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, cd(4.0, 0.5));
    if (i > 0) coo.add(i, i - 1, cd(-1.0, 0.25));
    if (i + 1 < n) coo.add(i, i + 1, cd(-1.0, -0.25));
  }
  const auto a = coo.build();
  const MixedCsr<cd> mirror(a);
  const auto x = testing::random_matrix<cd>(n, 1, 73);
  std::vector<cd> y64(size_t(n), cd(0)), y32(size_t(n), cd(0));
  a.spmv(x.view().col(0), y64.data());
  mirror.spmv(x.view().col(0), y32.data());
  double num = 0, den = 0;
  for (index_t i = 0; i < n; ++i) {
    num += std::norm(y64[size_t(i)] - y32[size_t(i)]);
    den += std::norm(y64[size_t(i)]);
  }
  EXPECT_LT(std::sqrt(num / den), 1e-6);
}

TEST(MixedPrecision, FullApplyIsBitwiseFp64) {
  const auto a = poisson2d(9, 9);
  const index_t n = a.rows();
  MixedPrecisionOperator<double> op(a);
  const auto x = testing::random_matrix<double>(n, 2, 74);
  DenseMatrix<double> y_full(n, 2), y_ref(n, 2);
  op.apply_full(x.view(), y_full.view());
  a.spmm(x.view(), y_ref.view());
  for (index_t c = 0; c < 2; ++c)
    for (index_t i = 0; i < n; ++i) EXPECT_EQ(y_full(i, c), y_ref(i, c));
}

// The acceptance test of the pilot: CG whose every inner operator apply
// streams fp32 values converges to an fp64 tolerance, because the
// residual-replacement discipline re-anchors (and verifies) the recursion
// against the true fp64 residual. 1e-10 is three orders below what the
// fp32 recursion alone could certify.
TEST(MixedPrecision, CgWithFp32InnerConvergesToFp64Tolerance) {
  const auto a = poisson2d(24, 24);
  const index_t n = a.rows();
  MixedPrecisionOperator<double> op(a);
  const auto b = poisson2d_rhs(24, 24, 0.1);
  std::vector<double> x(size_t(n), 0.0);
  SolverOptions opts;
  opts.tol = 1e-10;
  opts.max_iterations = 5000;
  opts.mixed_precision = true;
  opts.replacement_interval = 25;
  const auto st = cg<double>(op, nullptr, b, x, opts);
  ASSERT_TRUE(st.converged);
  EXPECT_EQ(st.status, SolveStatus::Converged);
  // Measured against the fp64 matrix, not the mirror.
  EXPECT_LE(testing::relative_residual(a, x, b), 1e-9);
}

TEST(MixedPrecision, ResidualReplacementEmitsTraceEvent) {
  const auto a = poisson2d(16, 16);
  const index_t n = a.rows();
  MixedPrecisionOperator<double> op(a);
  const auto b = poisson2d_rhs(16, 16, 0.1);
  std::vector<double> x(size_t(n), 0.0);
  obs::SolverTrace trace;
  SolverOptions opts;
  opts.tol = 1e-8;
  opts.max_iterations = 2000;
  opts.mixed_precision = true;
  opts.replacement_interval = 10;
  opts.trace = &trace;
  const auto st = cg<double>(op, nullptr, b, x, opts);
  ASSERT_TRUE(st.converged);
  // Stats and trace stay in lockstep; at least the convergence-time
  // replacement fired.
  EXPECT_GT(st.recoveries, 0);
  EXPECT_EQ(trace.recovery_count(), st.recoveries);
  ASSERT_EQ(trace.solves().size(), 1u);
  bool saw_replacement = false;
  for (const auto& ev : trace.solves()[0].recoveries)
    if (ev.site == "mixed-precision" && ev.action == "residual-replacement")
      saw_replacement = true;
  EXPECT_TRUE(saw_replacement);
}

TEST(MixedPrecision, OffByDefaultLeavesSolveClean) {
  const auto a = poisson2d(14, 14);
  const index_t n = a.rows();
  CsrOperator<double> op(a);
  const auto b = poisson2d_rhs(14, 14, 0.1);
  std::vector<double> x(size_t(n), 0.0);
  obs::SolverTrace trace;
  SolverOptions opts;
  opts.tol = 1e-9;
  opts.max_iterations = 2000;
  opts.trace = &trace;
  const auto st = cg<double>(op, nullptr, b, x, opts);
  ASSERT_TRUE(st.converged);
  // No replacement machinery engages on the default path.
  EXPECT_EQ(st.recoveries, 0);
  EXPECT_EQ(trace.recovery_count(), 0);
}

TEST(MixedPrecision, GmresFinalCheckMeasuresFullPrecision) {
  // The shared convergence epilogue (detail::final_residual_check) is
  // forced on by mixed_precision and must measure against the fp64
  // matrix: a GMRES solve through the fp32 mirror still reports a true
  // residual within the epilogue's slack.
  const auto a = poisson2d(12, 12);
  const index_t n = a.rows();
  MixedPrecisionOperator<double> op(a);
  const auto b = poisson2d_rhs(12, 12, 0.1);
  std::vector<double> x(size_t(n), 0.0);
  SolverOptions opts;
  opts.tol = 1e-6;
  opts.max_iterations = 2000;
  opts.mixed_precision = true;
  const auto st = gmres<double>(op, nullptr, b, x, opts);
  ASSERT_TRUE(st.converged);
  EXPECT_LE(testing::relative_residual(a, x, b), 1e-4);
}

// Solves on a MixedPrecisionOperator with `enable` applied to the options
// and without, and expects it to add exactly the convergence epilogue:
// one more operator apply, through apply_full (an fp64 halo of 8 bytes
// per column; the fp32 applies ship 4), and one more reduction for its
// norms, with the iterate untouched.
template <class Solve, class Enable>
void expect_fp64_epilogue(Solve&& solve, Enable&& enable) {
  const auto a = poisson2d(12, 12);
  const index_t n = a.rows(), p = 2;
  const auto b = testing::random_matrix<double>(n, p, 75);
  auto run = [&](bool on, CommModel& comm, DenseMatrix<double>& x) {
    MixedPrecisionOperator<double> op(a, &comm);
    SolverOptions opts;
    opts.tol = 1e-6;
    opts.max_iterations = 500;
    if (on) enable(opts);
    return solve(op, b.view(), x.view(), opts);
  };
  CommModel comm_off, comm_on;
  DenseMatrix<double> x_off(n, p), x_on(n, p);
  const SolveStats off = run(false, comm_off, x_off);
  const SolveStats on = run(true, comm_on, x_on);
  ASSERT_TRUE(off.converged);
  ASSERT_TRUE(on.converged);
  EXPECT_EQ(on.iterations, off.iterations);
  EXPECT_EQ(on.operator_applies, off.operator_applies + 1);
  EXPECT_EQ(on.reductions, off.reductions + 1);
  EXPECT_EQ(comm_on.halo_exchanges(), comm_off.halo_exchanges() + 1);
  EXPECT_EQ(comm_on.halo_bytes(), comm_off.halo_bytes() + p * 8);
  testing::expect_same_bits(x_on, x_off, "x");
}

TEST(MixedPrecision, BlockCgFinalCheckForcedOn) {
  // SolverOptions::mixed_precision forces the final check on; block CG has
  // no residual replacement, so the epilogue is all the flag adds.
  expect_fp64_epilogue(
      [](const LinearOperator<double>& op, MatrixView<const double> b, MatrixView<double> x,
         const SolverOptions& opts) { return block_cg<double>(op, nullptr, b, x, opts); },
      [](SolverOptions& opts) { opts.mixed_precision = true; });
}

TEST(MixedPrecision, CgFinalCheckMeasuresFullPrecision) {
  // recovery.final_check alone: CG's epilogue measures against the fp64
  // matrix, as every other solver's does.
  expect_fp64_epilogue(
      [](const LinearOperator<double>& op, MatrixView<const double> b, MatrixView<double> x,
         const SolverOptions& opts) { return cg<double>(op, nullptr, b, x, opts); },
      [](SolverOptions& opts) { opts.recovery.final_check = true; });
}

// Regression pin for the bkr-fpflow finding in precond/amg.cpp: a zero
// diagonal row used to inject inf into the smoothed prolongator
// (omega / 0); the guard keeps the tentative prolongator on such rows.
TEST(MixedPrecision, AmgZeroDiagonalRowKeepsProlongatorFinite) {
  const index_t n = 40;
  CooBuilder<double> coo(n, n);
  for (index_t i = 0; i < n; ++i) {
    if (i != 17) coo.add(i, i, 4.0);  // row 17: zero diagonal
    if (i > 0) coo.add(i, i - 1, -1.0);
    if (i + 1 < n) coo.add(i, i + 1, -1.0);
  }
  const auto a = coo.build();
  AmgOptions amg_opts;
  amg_opts.coarse_size = 8;
  amg_opts.max_levels = 3;
  amg_opts.smoother = AmgSmoother::Jacobi;
  AmgPreconditioner<double> m(a, amg_opts);
  ASSERT_GT(m.levels(), 1);
  const auto& p = m.prolongator(0);
  for (const double v : p.values()) EXPECT_TRUE(std::isfinite(v));
}

}  // namespace
}  // namespace bkr
