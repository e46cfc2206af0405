// Cross-commit pins for the convergence epilogue of the CG family.
//
// With recovery.final_check or mixed_precision on, cg and block_cg
// re-measure b - A x once they report convergence (10x slack against
// their own ||b||). tests/golden_solves.inc runs neither solver, so these
// pins store an FNV-1a hash (testing::Fingerprint) of the exact bits of x
// together with the status, iterations, reductions and operator applies of
//  (a) cg with final_check on, Jacobi-preconditioned, two right-hand sides;
//  (b) block_cg with final_check on, three right-hand sides;
//  (c) cg with mixed_precision on a MixedPrecisionOperator (fp32 inner
//      applies, fp64 residual replacement and epilogue).
// A mismatch prints the observed values so an intended change can be
// recorded; an unintended one means the epilogue changed.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "fem/poisson2d.hpp"
#include "precond/jacobi.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

struct Pin {
  const char* status;
  std::int64_t iterations, reductions, operator_applies;
  std::uint64_t hash;
};

void expect_pin(const Pin& pin, const SolveStats& st, const DenseMatrix<double>& x) {
  testing::Fingerprint fp;
  fp.matrix<double>(x.view());
  char observed[160];
  std::snprintf(observed, sizeof(observed), "{\"%s\", %lld, %lld, %lld, 0x%016llxULL}",
                status_name(st.status), (long long)st.iterations, (long long)st.reductions,
                (long long)st.operator_applies, (unsigned long long)fp.value());
  EXPECT_TRUE(std::string(pin.status) == status_name(st.status) &&
              st.iterations == pin.iterations && st.reductions == pin.reductions &&
              st.operator_applies == pin.operator_applies && fp.value() == pin.hash)
      << "observed " << observed;
}

const CsrMatrix<double>& matrix() {
  static const CsrMatrix<double> a = poisson2d_varcoef(20, 20, 100.0, 4, 7);
  return a;
}

SolverOptions final_check_options() {
  SolverOptions opts;
  opts.tol = 1e-9;
  opts.max_iterations = 500;
  opts.recovery.final_check = true;
  return opts;
}

TEST(CgPins, CgFinalCheck) {
  const CsrMatrix<double>& a = matrix();
  CsrOperator<double> op(a);
  JacobiPreconditioner<double> jacobi(a);
  const DenseMatrix<double> b = testing::random_matrix<double>(a.rows(), 2, 31);
  DenseMatrix<double> x(a.rows(), 2);
  const SolveStats st = cg<double>(op, &jacobi, b.view(), x.view(), final_check_options());
  expect_pin({"converged", 101, 306, 103, 0x748082457e18973dULL}, st, x);
}

TEST(CgPins, BlockCgFinalCheck) {
  const CsrMatrix<double>& a = matrix();
  CsrOperator<double> op(a);
  const DenseMatrix<double> b = testing::random_matrix<double>(a.rows(), 3, 32);
  DenseMatrix<double> x(a.rows(), 3);
  const SolveStats st =
      block_cg<double>(op, nullptr, b.view(), x.view(), final_check_options());
  expect_pin({"converged", 85, 258, 87, 0x6c64bf2cb7272c2fULL}, st, x);
}

TEST(CgPins, CgMixedPrecision) {
  const CsrMatrix<double>& a = matrix();
  MixedPrecisionOperator<double> op(a);
  const DenseMatrix<double> b = testing::random_matrix<double>(a.rows(), 1, 33);
  DenseMatrix<double> x(a.rows(), 1);
  SolverOptions opts;
  opts.tol = 1e-10;
  opts.max_iterations = 2000;
  opts.mixed_precision = true;
  opts.replacement_interval = 25;
  const SolveStats st = cg<double>(op, nullptr, b.view(), x.view(), opts);
  expect_pin({"converged", 286, 873, 300, 0x3cbfdbb656a054e0ULL}, st, x);
}

}  // namespace
}  // namespace bkr
