// Cross-commit pins for the AMG preconditioner.
//
// tests/golden_solves.inc pins Jacobi-preconditioned Krylov solves and
// tests/test_complex_pins.cpp pins ORAS; neither runs a V-cycle. These
// pins store FNV-1a hashes (testing::Fingerprint) of the exact bits of
//  (a) one V-cycle with each smoother (GMRES(1), GMRES(3), CG(2),
//      Chebyshev, Jacobi) applied to a random block at widths 1 and 3, on
//      a contrast-500 Poisson matrix with a coarse size that leaves three
//      levels;
//  (b) a two-solve FGCRO-DR(30,10) sequence with the GMRES(1)-smoothed AMG
//      on the right (same_system, the fig-2 shape): x, residual history,
//      per-RHS iterations and statuses of both solves, and the recycled U
//      and C left behind, with the solve counters beside the hash.
// A mismatch prints the observed values so an intended change can be
// recorded; an unintended one means a kernel changed a rounding.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "core/gcrodr.hpp"
#include "fem/poisson2d.hpp"
#include "precond/amg.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

constexpr index_t kGrid = 40;

const CsrMatrix<double>& matrix() {
  static const CsrMatrix<double> a = poisson2d_varcoef(kGrid, kGrid, 500.0, 4);
  return a;
}

AmgOptions amg_options(AmgSmoother smoother, index_t iterations) {
  AmgOptions o;
  o.threshold = 0.02;
  o.coarse_size = 60;
  o.smoother = smoother;
  o.smoother_iterations = iterations;
  return o;
}

std::uint64_t hash_of(const DenseMatrix<double>& z) {
  testing::Fingerprint fp;
  fp.matrix<double>(z.view());
  return fp.value();
}

struct VcyclePin {
  const char* name;
  AmgSmoother smoother;
  index_t iterations;
  std::uint64_t width1, width3;
};

const VcyclePin kVcyclePins[] = {
    {"gmres(1)", AmgSmoother::Gmres, 1, 0xde2d025337e9588bULL, 0x471c1adac19cee96ULL},
    {"gmres(3)", AmgSmoother::Gmres, 3, 0x76405114ccfdea29ULL, 0x16a6f91bd4798dd9ULL},
    {"cg(2)", AmgSmoother::Cg, 2, 0xe8446495a6cce311ULL, 0x9e8d312d49f42e13ULL},
    {"chebyshev", AmgSmoother::Chebyshev, 3, 0xeff252d0f5b03f85ULL, 0x901e65d56ab81d6bULL},
    {"jacobi", AmgSmoother::Jacobi, 3, 0xfa206b2660b64e57ULL, 0xb1218544e838a79eULL},
};

TEST(AmgPins, VcyclePerSmootherAtWidthsOneAndThree) {
  const CsrMatrix<double>& a = matrix();
  for (const VcyclePin& pin : kVcyclePins) {
    AmgPreconditioner<double> m(a, amg_options(pin.smoother, pin.iterations));
    EXPECT_EQ(m.levels(), 3) << pin.name;
    // Widths 1, 3, 1 on one preconditioner: each apply runs on the buffers
    // the previous one shaped, across both width changes.
    for (const index_t p : {index_t(1), index_t(3), index_t(1)}) {
      const DenseMatrix<double> r = testing::random_matrix<double>(a.rows(), p, 70 + unsigned(p));
      DenseMatrix<double> z = testing::random_matrix<double>(a.rows(), p, 80);
      m.apply(r.view(), z.view());
      const std::uint64_t want = p == 1 ? pin.width1 : pin.width3;
      EXPECT_EQ(hash_of(z), want) << pin.name << " p=" << p << "; observed 0x" << std::hex
                                  << hash_of(z) << "ULL";
    }
  }
}

TEST(AmgPins, FgcroDrWithGmresSmoothedAmgSequence) {
  const CsrMatrix<double>& a = matrix();
  CsrOperator<double> op(a);
  AmgPreconditioner<double> m(a, amg_options(AmgSmoother::Gmres, 1));
  SolverOptions opts;
  opts.restart = 30;
  opts.recycle = 10;
  opts.tol = 1e-8;
  opts.side = PrecondSide::Flexible;
  opts.same_system = true;
  opts.max_iterations = 2000;
  GcroDr<double> solver(opts);
  testing::Fingerprint fp;
  std::int64_t iterations = 0, cycles = 0, reductions = 0, operator_applies = 0,
               precond_applies = 0;
  for (const double nu : {0.1, 10.0}) {
    const std::vector<double> f = poisson2d_rhs(kGrid, kGrid, nu);
    DenseMatrix<double> b(a.rows(), 1);
    std::copy(f.begin(), f.end(), b.col(0));
    DenseMatrix<double> x(a.rows(), 1);
    const SolveStats st = solver.solve(op, &m, b.view(), x.view());
    EXPECT_EQ(st.status, SolveStatus::Converged);
    fp.solve(st);
    fp.matrix<double>(x.view());
    iterations += st.iterations;
    cycles += st.cycles;
    reductions += st.reductions;
    operator_applies += st.operator_applies;
    precond_applies += st.precond_applies;
  }
  fp.matrix<double>(solver.recycled_u().view());
  fp.matrix<double>(solver.recycled_c().view());
  char observed[160];
  std::snprintf(observed, sizeof(observed), "%lld %lld %lld %lld %lld 0x%016llxULL",
                (long long)iterations, (long long)cycles, (long long)reductions,
                (long long)operator_applies, (long long)precond_applies,
                (unsigned long long)fp.value());
  EXPECT_EQ(fp.value(), 0x02a13163b0032b32ULL) << "observed " << observed;
  EXPECT_EQ(iterations, 34) << "observed " << observed;
  EXPECT_EQ(cycles, 2) << "observed " << observed;
  EXPECT_EQ(reductions, 128) << "observed " << observed;
  EXPECT_EQ(operator_applies, 38) << "observed " << observed;
  EXPECT_EQ(precond_applies, 34) << "observed " << observed;
}

}  // namespace
}  // namespace bkr
