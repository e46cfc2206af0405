// Cross-commit pins for the complex paths the golden grid misses.
//
// tests/golden_solves.inc pins Jacobi-preconditioned Krylov solves; no
// Schwarz preconditioner and no sparse direct solve appears in it. These
// pins store FNV-1a hashes (testing::Fingerprint) of the exact bits of
//  (a) one ORAS(16) apply on the fig-8 chamber (grid 6, overlap 2,
//      impedance 0.5) to a block of 8 antenna right-hand sides: sixteen
//      complex LDL^T multi-RHS solves and the weighted scatter;
//  (b) a two-solve block GCRO-DR(20,5) sequence with that ORAS on the
//      right (same_system): x, residual history, per-RHS iterations and
//      statuses of both solves, and the recycled U and C left behind,
//      with the solve counters beside the hash.
// A mismatch prints the observed values so an intended change can be
// recorded; an unintended one means a kernel changed a rounding.
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstdio>

#include "core/gcrodr.hpp"
#include "fem/maxwell3d.hpp"
#include "precond/schwarz.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;

constexpr std::uint64_t kOrasApplyHash = 0xe96d82300a5b42e1ULL;
constexpr std::uint64_t kGcroDrOrasHash = 0x7869759728e03cc8ULL;
constexpr index_t kAntennas = 32, kBlock = 8;

// The fig-8 chamber of the maxwell-block-mrhs benchmark workload: matching
// liquid around a plastic cylinder.
const MaxwellProblem& chamber() {
  static const MaxwellProblem prob = [] {
    MaxwellConfig cfg;
    cfg.n = 6;
    cfg.wavelengths = 2.0;
    cfg.eps_r = 1.0;
    cfg.loss = 0.15;
    cfg.inclusion_radius = 0.21;
    cfg.inclusion_eps_r = 3.0;
    return maxwell3d(cfg);
  }();
  return prob;
}

SchwarzOptions oras16(bool parallel) {
  SchwarzOptions o;
  o.subdomains = 16;
  o.overlap = 2;
  o.kind = SchwarzKind::Oras;
  o.impedance = 0.5;
  o.parallel = parallel;
  return o;
}

// Antennas first .. first + kBlock - 1 of the 32-antenna ring as one block.
DenseMatrix<cplx> antenna_block(index_t first) {
  const MaxwellProblem& prob = chamber();
  DenseMatrix<cplx> b(prob.nfree, kBlock);
  for (index_t j = 0; j < kBlock; ++j) {
    const auto col = antenna_rhs(prob, first + j, kAntennas);
    std::copy(col.begin(), col.end(), b.col(j));
  }
  return b;
}

std::uint64_t hash_of(const DenseMatrix<cplx>& z) {
  testing::Fingerprint fp;
  fp.matrix<cplx>(z.view());
  return fp.value();
}

TEST(ComplexPins, OrasApplyOnFig8Chamber) {
  const DenseMatrix<cplx> r = antenna_block(0);
  for (const bool parallel : {false, true}) {
    SchwarzPreconditioner<cplx> m(chamber().matrix, oras16(parallel));
    // Two applies on one preconditioner: the second runs on whatever
    // buffers the first left behind and must not see them.
    for (int apply = 0; apply < 2; ++apply) {
      DenseMatrix<cplx> z(r.rows(), r.cols());
      m.apply(r.view(), z.view());
      EXPECT_EQ(hash_of(z), kOrasApplyHash)
          << "parallel=" << parallel << " apply " << apply << "; observed 0x" << std::hex
          << hash_of(z) << "ULL";
    }
  }
}

TEST(ComplexPins, BlockGcroDrWithOrasSequence) {
  const MaxwellProblem& prob = chamber();
  CsrOperator<cplx> op(prob.matrix);
  SchwarzPreconditioner<cplx> m(prob.matrix, oras16(false));
  SolverOptions opts;
  opts.restart = 20;
  opts.recycle = 5;
  opts.tol = 1e-8;
  opts.side = PrecondSide::Right;
  opts.same_system = true;
  opts.max_iterations = 4000;
  GcroDr<cplx> solver(opts);
  testing::Fingerprint fp;
  std::int64_t iterations = 0, cycles = 0, reductions = 0, operator_applies = 0,
               precond_applies = 0;
  for (const index_t first : {index_t(0), kBlock}) {
    const DenseMatrix<cplx> b = antenna_block(first);
    DenseMatrix<cplx> x(b.rows(), b.cols());
    const SolveStats st = solver.solve(op, &m, b.view(), x.view());
    EXPECT_EQ(st.status, SolveStatus::Converged);
    fp.solve(st);
    fp.matrix<cplx>(x.view());
    iterations += st.iterations;
    cycles += st.cycles;
    reductions += st.reductions;
    operator_applies += st.operator_applies;
    precond_applies += st.precond_applies;
  }
  fp.matrix<cplx>(solver.recycled_u().view());
  fp.matrix<cplx>(solver.recycled_c().view());
  char observed[160];
  std::snprintf(observed, sizeof(observed), "%lld %lld %lld %lld %lld 0x%016llxULL",
                (long long)iterations, (long long)cycles, (long long)reductions,
                (long long)operator_applies, (long long)precond_applies,
                (unsigned long long)fp.value());
  EXPECT_EQ(fp.value(), kGcroDrOrasHash) << "observed " << observed;
  EXPECT_EQ(iterations, 36) << "observed " << observed;
  EXPECT_EQ(cycles, 3) << "observed " << observed;
  EXPECT_EQ(reductions, 139) << "observed " << observed;
  EXPECT_EQ(operator_applies, 41) << "observed " << observed;
  EXPECT_EQ(precond_applies, 40) << "observed " << observed;
}

}  // namespace
}  // namespace bkr
