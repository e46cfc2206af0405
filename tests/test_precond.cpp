// Unit/integration tests: Jacobi, Chebyshev, Krylov smoothers, AMG,
// Schwarz (ASM / RAS / ORAS).
#include <gtest/gtest.h>

#include <complex>
#include <limits>

#include "core/gmres.hpp"
#include "fem/elasticity3d.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "precond/amg.hpp"
#include "precond/chebyshev.hpp"
#include "precond/jacobi.hpp"
#include "precond/krylov_smoother.hpp"
#include "precond/schwarz.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;

index_t gmres_iterations(const CsrMatrix<double>& a, Preconditioner<double>* m,
                         const std::vector<double>& b, double tol = 1e-8,
                         index_t restart = 60) {
  CsrOperator<double> op(a);
  std::vector<double> x(b.size(), 0.0);
  SolverOptions opts;
  opts.restart = restart;
  opts.tol = tol;
  opts.max_iterations = 20000;
  const auto st = gmres<double>(op, m, b, x, opts);
  EXPECT_TRUE(st.converged);
  EXPECT_LT(testing::relative_residual(a, x, b), tol * 50);
  return st.iterations;
}

TEST(Jacobi, ScalesByInverseDiagonal) {
  const auto a = poisson2d(4, 4);
  JacobiPreconditioner<double> m(a);
  DenseMatrix<double> r(16, 1), z(16, 1);
  for (index_t i = 0; i < 16; ++i) r(i, 0) = 8.0;
  m.apply(r.view(), z.view());
  for (index_t i = 0; i < 16; ++i) EXPECT_DOUBLE_EQ(z(i, 0), 2.0);  // diag = 4
}

TEST(Chebyshev, EstimatesSpectralRadius) {
  const auto a = poisson2d(20, 20);
  ChebyshevSmoother s(a, 3);
  // Jacobi-scaled 2-D Poisson has lambda_max close to 2.
  EXPECT_GT(s.lambda_max_estimate(), 1.5);
  EXPECT_LT(s.lambda_max_estimate(), 2.1);
}

TEST(Chebyshev, ReducesHighFrequencyError) {
  const auto a = poisson2d(16, 16);
  const index_t n = a.rows();
  ChebyshevSmoother s(a, 4);
  // Apply the smoother as a stationary iteration on A x = b and check the
  // error drops (x* known).
  Rng rng(90);
  std::vector<double> xstar(static_cast<size_t>(n));
  for (auto& v : xstar) v = rng.scalar<double>();
  std::vector<double> b(static_cast<size_t>(n));
  a.spmv(xstar.data(), b.data());
  DenseMatrix<double> x(n, 1), r(n, 1), dz(n, 1);
  double err0 = 0, err1 = 0;
  for (index_t i = 0; i < n; ++i) err0 += xstar[size_t(i)] * xstar[size_t(i)];
  for (int sweep = 0; sweep < 2; ++sweep) {
    a.spmv(x.col(0), r.col(0));
    for (index_t i = 0; i < n; ++i) r(i, 0) = b[size_t(i)] - r(i, 0);
    s.apply(r.view(), dz.view());
    for (index_t i = 0; i < n; ++i) x(i, 0) += dz(i, 0);
  }
  for (index_t i = 0; i < n; ++i) {
    const double e = x(i, 0) - xstar[size_t(i)];
    err1 += e * e;
  }
  EXPECT_LT(err1, 0.25 * err0);
}

TEST(Chebyshev, IsLinear) {
  // Chebyshev is a fixed polynomial: apply(alpha r) == alpha apply(r).
  const auto a = poisson2d(10, 10);
  ChebyshevSmoother s(a, 3);
  const auto r = testing::random_matrix<double>(100, 1, 91);
  DenseMatrix<double> z1(100, 1), z2(100, 1), r2(100, 1);
  s.apply(r.view(), z1.view());
  for (index_t i = 0; i < 100; ++i) r2(i, 0) = 3.0 * r(i, 0);
  s.apply(r2.view(), z2.view());
  for (index_t i = 0; i < 100; ++i) EXPECT_NEAR(z2(i, 0), 3.0 * z1(i, 0), 1e-12);
}

TEST(KrylovSmoother, GmresSmootherIsVariable) {
  const auto a = poisson2d(8, 8);
  CsrOperator<double> op(a);
  GmresSmoother<double> s(op, 3);
  EXPECT_TRUE(s.is_variable());
  CgSmoother<double> c(op, 4);
  EXPECT_TRUE(c.is_variable());
}

// z of the smoother against block_gmres with restart = max_iterations = s,
// tol 0 and side Right, bit for bit. z enters holding garbage: the
// smoother must overwrite it.
template <class T>
void expect_smoother_matches(GmresSmoother<T>& smoother, const CsrOperator<T>& op,
                             Preconditioner<T>* inner, index_t s, const DenseMatrix<T>& r,
                             unsigned seed) {
  SolverOptions o;
  o.restart = s;
  o.max_iterations = s;
  o.tol = 0.0;
  o.record_history = false;
  o.side = PrecondSide::Right;
  DenseMatrix<T> z = testing::random_matrix<T>(r.rows(), r.cols(), seed);
  DenseMatrix<T> want(r.rows(), r.cols());
  smoother.apply(r.view(), z.view());
  (void)block_gmres<T>(op, inner, r.view(), want.view(), o);
  testing::expect_same_bits<T>(z, want, "smoother vs block_gmres");
}

// One smoother per (inner, s) serves widths 1, 3 and 1 again, so the
// comparison also covers the reuse of its cycle and workspace.
template <class T>
void check_smoother_matches_block_gmres(const CsrMatrix<T>& a, unsigned seed) {
  CsrOperator<T> op(a);
  JacobiPreconditioner<T> jacobi(a);
  for (const bool with_inner : {false, true})
    for (const index_t s : {index_t(1), index_t(3)}) {
      Preconditioner<T>* inner = with_inner ? &jacobi : nullptr;
      GmresSmoother<T> smoother(op, s, inner);
      for (const index_t p : {index_t(1), index_t(3), index_t(1)}) {
        SCOPED_TRACE(::testing::Message() << "inner=" << with_inner << " s=" << s << " p=" << p);
        const DenseMatrix<T> r = testing::random_matrix<T>(a.rows(), p, seed++);
        expect_smoother_matches<T>(smoother, op, inner, s, r, seed++);
      }
    }
}

TEST(KrylovSmoother, GmresSmootherMatchesOneBlockGmresCycle) {
  check_smoother_matches_block_gmres<double>(poisson2d(16, 16), 31);
  MaxwellConfig cfg;
  cfg.n = 4;
  cfg.wavelengths = 0.9;
  cfg.loss = 0.3;
  check_smoother_matches_block_gmres<cplx>(maxwell3d(cfg).matrix, 41);
}

// The edge cases of GMRES(1) on one column, where the one-step body hands
// the apply back to the cycle or returns z = 0, against block_gmres bit
// for bit, with and without the Jacobi inner preconditioner:
//  * an exact happy breakdown: r = e_k on a diagonal operator, so the
//    projected direction is exactly zero;
//  * r = 0;
//  * r holding a NaN;
//  * r with entries of 1e-170, whose Gram underflows to zero;
//  * diagonal operators scaled by 1e-170 and 1e+160, where the Gram of
//    the new direction underflows or overflows (without the inner
//    preconditioner; Jacobi undoes the scale). On overflow the cycle's
//    block recovery replaces the dead direction and returns a nonzero z;
//  * signed zeros: r with zero entries on a negated Poisson matrix, so
//    the negative Jacobi scale turns the update's +0.0 into -0.0, which
//    add_update's 0 + turns back.
// A random r on the same operators and then again on the same smoother
// checks that a handed-back apply leaves nothing behind.
TEST(KrylovSmoother, GmresOneStepEdgeCasesMatchBlockGmres) {
  const index_t n = 6;
  auto diagonal = [&](double scale) {
    CooBuilder<double> builder(n, n);
    for (index_t i = 0; i < n; ++i) builder.add(i, i, scale * double(2 * i + 3));
    return builder.build();
  };
  const CsrMatrix<double> diag = diagonal(1.0), tiny = diagonal(1e-170), huge = diagonal(1e160);
  const CsrMatrix<double> poisson = poisson2d(3, 2);
  CsrMatrix<double> negated = poisson;
  for (double& v : negated.values()) v = -v;
  DenseMatrix<double> unit(n, 1), zero(n, 1), nan = testing::random_matrix<double>(n, 1, 61),
                                               small(n, 1);
  unit(2, 0) = 1.0;
  nan(4, 0) = std::numeric_limits<double>::quiet_NaN();
  for (index_t i = 0; i < n; ++i) small(i, 0) = (i % 2 == 0 ? 1e-170 : -1e-170);
  const DenseMatrix<double> random = testing::random_matrix<double>(n, 1, 62);
  DenseMatrix<double> holes = random;
  for (index_t i = 0; i < n; i += 2) holes(i, 0) = 0.0;
  struct Case {
    const char* name;
    const CsrMatrix<double>* a;
    const DenseMatrix<double>* r;
  };
  const Case cases[] = {{"happy breakdown", &diag, &unit}, {"r = 0", &diag, &zero},
                        {"NaN in r", &poisson, &nan},      {"r Gram underflow", &poisson, &small},
                        {"w Gram underflow", &tiny, &random},
                        {"w Gram overflow", &huge, &random},
                        {"signed zeros", &negated, &holes}};
  unsigned seed = 63;
  for (const bool with_inner : {false, true})
    for (const Case& c : cases) {
      SCOPED_TRACE(::testing::Message() << c.name << " inner=" << with_inner);
      CsrOperator<double> op(*c.a);
      JacobiPreconditioner<double> jacobi(*c.a);
      Preconditioner<double>* inner = with_inner ? &jacobi : nullptr;
      GmresSmoother<double> smoother(op, 1, inner);
      expect_smoother_matches<double>(smoother, op, inner, 1, *c.r, seed++);
      expect_smoother_matches<double>(smoother, op, inner, 1, random, seed++);
    }
}

// The one change against block_gmres: a cycle that ends early returns its
// update. On diag(1, 49, 3, 5) with r = 2 e_1 the first step is an exact
// (happy) breakdown; z = r / 49 is the one-step block_gmres answer, while
// block_gmres with the full budget s = n restarts on the rounding residual
// 2 - 49 * fl(2/49).
TEST(KrylovSmoother, GmresSmootherReturnsBreakdownCycleUpdate) {
  CooBuilder<double> builder(4, 4);
  const double diag[] = {1.0, 49.0, 3.0, 5.0};
  for (index_t i = 0; i < 4; ++i) builder.add(i, i, diag[i]);
  const auto a = builder.build();
  CsrOperator<double> op(a);
  DenseMatrix<double> r(4, 1);
  r(1, 0) = 2.0;
  const index_t s = 4;
  GmresSmoother<double> smoother(op, s);
  DenseMatrix<double> z(4, 1);
  smoother.apply(r.view(), z.view());
  EXPECT_NEAR(z(1, 0), 2.0 / 49.0, 1e-17);
  EXPECT_EQ(z(0, 0), 0.0);
  EXPECT_EQ(z(2, 0), 0.0);
  EXPECT_EQ(z(3, 0), 0.0);

  SolverOptions o;
  o.restart = s;
  o.tol = 0.0;
  o.record_history = false;
  o.max_iterations = 1;
  DenseMatrix<double> one_step(4, 1);
  const SolveStats st1 = block_gmres<double>(op, nullptr, r.view(), one_step.view(), o);
  EXPECT_EQ(st1.cycles, 1);
  testing::expect_same_bits<double>(z, one_step, "smoother vs one-step block_gmres");

  o.max_iterations = s;
  DenseMatrix<double> full(4, 1);
  const SolveStats st = block_gmres<double>(op, nullptr, r.view(), full.view(), o);
  EXPECT_GT(st.cycles, 1);  // block_gmres restarted where the smoother returned
}

TEST(Amg, PoissonVcycleBeatsUnpreconditioned) {
  const auto a = poisson2d(40, 40);
  const auto b = poisson2d_rhs(40, 40, 0.1);
  AmgOptions amg_opts;
  amg_opts.threshold = 0.0;
  AmgPreconditioner<double> m(a, amg_opts);
  EXPECT_GE(m.levels(), 2);
  const index_t with = gmres_iterations(a, &m, b);
  const index_t without = gmres_iterations(a, nullptr, b, 1e-8, 400);
  EXPECT_LT(with, without / 4);
  EXPECT_LT(with, 30);
}

TEST(Amg, CoarseningReducesSize) {
  const auto a = poisson2d(30, 30);
  AmgOptions o;
  AmgPreconditioner<double> m(a, o);
  for (index_t l = 1; l < m.levels(); ++l) EXPECT_LT(m.level_rows(l), m.level_rows(l - 1));
  EXPECT_LT(m.operator_complexity(), 3.0);
}

TEST(Amg, ThresholdControlsCoarsening) {
  // Higher threshold -> sparser strength graph -> more, smaller
  // aggregates -> bigger coarse problems (the paper's setup/iteration
  // trade-off dial). Uniform Poisson has equal couplings, so use an
  // anisotropic operator where the threshold can discriminate.
  const index_t nn = 24;
  CooBuilder<double> builder(nn * nn, nn * nn);
  auto id = [nn](index_t i, index_t j) { return i + j * nn; };
  const double weak_coupling = 0.05;
  for (index_t j = 0; j < nn; ++j)
    for (index_t i = 0; i < nn; ++i) {
      builder.add(id(i, j), id(i, j), 2.0 + 2.0 * weak_coupling);
      if (i > 0) builder.add(id(i, j), id(i - 1, j), -1.0);
      if (i + 1 < nn) builder.add(id(i, j), id(i + 1, j), -1.0);
      if (j > 0) builder.add(id(i, j), id(i, j - 1), -weak_coupling);
      if (j + 1 < nn) builder.add(id(i, j), id(i, j + 1), -weak_coupling);
    }
  const auto a = builder.build();
  AmgOptions all_edges;
  all_edges.threshold = 0.0;
  AmgOptions semicoarsen;
  semicoarsen.threshold = 0.1;  // keeps x-edges, drops the weak y-edges
  AmgPreconditioner<double> mw(a, all_edges), ms(a, semicoarsen);
  ASSERT_GE(mw.levels(), 2);
  ASSERT_GE(ms.levels(), 2);
  EXPECT_LT(mw.level_rows(1), ms.level_rows(1));
}

TEST(Amg, GmresSmootherMakesItVariable) {
  const auto a = poisson2d(24, 24);
  AmgOptions o;
  o.smoother = AmgSmoother::Gmres;
  o.smoother_iterations = 3;
  AmgPreconditioner<double> m(a, o);
  EXPECT_TRUE(m.is_variable());
  AmgOptions lin;
  lin.smoother = AmgSmoother::Chebyshev;
  AmgPreconditioner<double> ml(a, lin);
  EXPECT_FALSE(ml.is_variable());
}

// The V-cycle temporaries live in the levels and are reshaped when the
// block width changes; stale contents must never reach a result.
TEST(Amg, ReusedBuffersGiveIdenticalApplies) {
  const auto a = poisson2d_varcoef(40, 40, 500.0, 4);
  AmgOptions o;
  o.threshold = 0.02;
  o.smoother = AmgSmoother::Gmres;
  o.smoother_iterations = 1;
  o.coarse_size = 60;
  AmgPreconditioner<double> m(a, o);
  ASSERT_GE(m.levels(), 3);
  const DenseMatrix<double> r = testing::random_matrix<double>(a.rows(), 1, 51);
  const DenseMatrix<double> r3 = testing::random_matrix<double>(a.rows(), 3, 52);
  const DenseMatrix<double> other = testing::random_matrix<double>(a.rows(), 1, 53);
  DenseMatrix<double> first(a.rows(), 1), block(a.rows(), 3), again(a.rows(), 1);
  DenseMatrix<double> scratch(a.rows(), 1), third(a.rows(), 1);
  m.apply(r.view(), first.view());
  m.apply(r3.view(), block.view());
  m.apply(r.view(), again.view());
  testing::expect_same_bits<double>(again, first, "second apply of r");
  // Same width twice running: the buffers now hold another apply's data.
  m.apply(other.view(), scratch.view());
  m.apply(r.view(), third.view());
  testing::expect_same_bits<double>(third, first, "apply of r after another p = 1 apply");

  AmgPreconditioner<double> fresh(a, o);
  DenseMatrix<double> fresh_z(a.rows(), 1), fresh_block(a.rows(), 3);
  fresh.apply(r.view(), fresh_z.view());
  testing::expect_same_bits<double>(first, fresh_z, "fresh preconditioner");
  AmgPreconditioner<double> fresh3(a, o);
  fresh3.apply(r3.view(), fresh_block.view());
  testing::expect_same_bits<double>(block, fresh_block, "fresh preconditioner, p = 3");
}

TEST(Amg, ElasticityWithRigidBodyModes) {
  ElasticityConfig cfg;
  cfg.ne = 5;
  cfg.inclusion = kElasticitySequence[0];
  const auto prob = elasticity3d(cfg);
  AmgOptions o;
  o.block_size = 3;
  o.smoother = AmgSmoother::Chebyshev;
  o.coarse_size = 200;
  AmgPreconditioner<double> m(prob.matrix, o, prob.rigid_body_modes.view());
  const index_t with = gmres_iterations(prob.matrix, &m, prob.rhs, 1e-8, 100);
  const index_t without = gmres_iterations(prob.matrix, nullptr, prob.rhs, 1e-8, 2000);
  EXPECT_LT(with, without / 2);
}

TEST(Schwarz, RasSolvesPoisson) {
  const auto a = poisson2d(24, 24);
  const auto b = poisson2d_rhs(24, 24, 10.0);
  SchwarzOptions o;
  o.subdomains = 6;
  o.overlap = 2;
  o.kind = SchwarzKind::Ras;
  SchwarzPreconditioner<double> m(a, o);
  const index_t iters = gmres_iterations(a, &m, b);
  EXPECT_LT(iters, 40);
  EXPECT_GT(m.stats().setup_seconds_max, 0.0);
  EXPECT_LE(m.stats().setup_seconds_max, m.stats().setup_seconds_sum + 1e-12);
}

TEST(Schwarz, MoreOverlapFewerIterations) {
  const auto a = poisson2d(30, 30);
  const auto b = poisson2d_rhs(30, 30, 0.1);
  index_t iters[2];
  int idx = 0;
  for (const index_t delta : {index_t(1), index_t(4)}) {
    SchwarzOptions o;
    o.subdomains = 8;
    o.overlap = delta;
    o.kind = SchwarzKind::Ras;
    SchwarzPreconditioner<double> m(a, o);
    iters[idx++] = gmres_iterations(a, &m, b);
  }
  EXPECT_LE(iters[1], iters[0]);
}

TEST(Schwarz, AsmAndRasBothConverge) {
  const auto a = poisson2d(20, 20);
  const auto b = poisson2d_rhs(20, 20, 1.0);
  for (const auto kind : {SchwarzKind::Asm, SchwarzKind::Ras}) {
    SchwarzOptions o;
    o.subdomains = 4;
    o.overlap = 2;
    o.kind = kind;
    SchwarzPreconditioner<double> m(a, o);
    const index_t iters = gmres_iterations(a, &m, b);
    EXPECT_LT(iters, 60);
  }
}

TEST(Schwarz, SingleSubdomainIsExact) {
  const auto a = poisson2d(12, 12);
  const auto b = poisson2d_rhs(12, 12, 0.001);
  SchwarzOptions o;
  o.subdomains = 1;
  o.overlap = 0;
  o.kind = SchwarzKind::Ras;
  SchwarzPreconditioner<double> m(a, o);
  EXPECT_LE(gmres_iterations(a, &m, b), 2);
}

TEST(Schwarz, OrasBeatsAsmOnMaxwell) {
  // The fig. 4 phenomenon, scaled down: for the indefinite complex
  // Maxwell operator, the impedance transmission conditions converge
  // faster than Dirichlet (ASM) ones.
  MaxwellConfig cfg;
  cfg.n = 8;
  cfg.wavelengths = 1.2;
  cfg.loss = 0.2;
  const auto prob = maxwell3d(cfg);
  CsrOperator<cplx> op(prob.matrix);
  const auto b = antenna_rhs(prob, 0, 8);
  auto run = [&](SchwarzKind kind, double beta, index_t overlap) {
    SchwarzOptions o;
    o.subdomains = 8;
    o.overlap = overlap;
    o.kind = kind;
    o.impedance = beta;
    SchwarzPreconditioner<cplx> m(prob.matrix, o);
    std::vector<cplx> x(b.size(), cplx(0));
    SolverOptions opts;
    opts.restart = 300;
    opts.tol = 1e-8;
    opts.max_iterations = 600;
    const auto st = gmres<cplx>(op, &m, b, x, opts);
    return std::pair<bool, index_t>(st.converged, st.iterations);
  };
  const auto [oras_ok, oras_iters] = run(SchwarzKind::Oras, 1.0, 2);
  const auto [asm_ok, asm_iters] = run(SchwarzKind::Asm, 0.0, 1);
  EXPECT_TRUE(oras_ok);
  if (asm_ok) {
    EXPECT_LE(oras_iters, asm_iters);
  }
}

TEST(Schwarz, MultiRhsApplyMatchesColumnwise) {
  const auto a = poisson2d(15, 15);
  const index_t n = a.rows();
  SchwarzOptions o;
  o.subdomains = 5;
  o.overlap = 1;
  SchwarzPreconditioner<double> m(a, o);
  const auto r = testing::random_matrix<double>(n, 4, 92);
  DenseMatrix<double> z(n, 4), zc(n, 4);
  m.apply(r.view(), z.view());
  for (index_t c = 0; c < 4; ++c)
    m.apply(MatrixView<const double>(r.col(c), n, 1, n), zc.block(0, c, n, 1));
  EXPECT_LT(testing::diff_fro<double>(z.view(), zc.view()), 1e-12);
}

}  // namespace
}  // namespace bkr
