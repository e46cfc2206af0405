// Property-based invariants of the Krylov building blocks and the
// telemetry they emit (src/obs): Arnoldi relation, orthogonality loss per
// Gram-Schmidt mode, CholQR triangularity, recycled-space orthonormality,
// and well-formedness of the per-iteration trace events.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/krylov_detail.hpp"
#include "fem/poisson2d.hpp"
#include "precond/jacobi.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using testing::diff_fro;
using testing::ortho_defect;
using testing::random_matrix;

// Seeded nonsymmetric operator: the Poisson stencil with its
// strictly-upper entries randomly rescaled (SPD structure kept, symmetry
// broken) — the general-matrix regime of the Arnoldi-based methods.
CsrMatrix<double> nonsymmetric_poisson(index_t nx, index_t ny, unsigned seed) {
  auto a = poisson2d(nx, ny);
  Rng rng(seed);
  auto& vals = a.values();
  const auto& rowptr = a.rowptr();
  const auto& colind = a.colind();
  for (index_t i = 0; i < a.rows(); ++i)
    for (index_t l = rowptr[size_t(i)]; l < rowptr[size_t(i) + 1]; ++l)
      if (colind[size_t(l)] > i) vals[size_t(l)] *= 1.0 + 0.3 * rng.uniform(0.0, 1.0);
  return a;
}

TEST(TraceInvariants, CholQrUpperTriangularPositiveDiagonal) {
  // qr_block returns W = Q R with R upper triangular, positive diagonal,
  // Q orthonormal — and accounts exactly one global reduction.
  const index_t n = 200, p = 5;
  for (const unsigned seed : {7u, 8u, 9u}) {
    auto w = random_matrix<double>(n, p, seed);
    const DenseMatrix<double> w0 = w;
    DenseMatrix<double> r(p, p);
    SolveStats st;
    obs::SolverTrace trace;
    SolverOptions opts;
    opts.trace = &trace;
    SolverWorkspace<double> ws;
    detail::SolveContext<double> ctx(opts, st, nullptr, ws);
    ASSERT_TRUE(detail::qr_block<double>(ctx, w.view(), r.view(), nullptr));
    for (index_t c = 0; c < p; ++c) {
      EXPECT_GT(r(c, c), 0.0) << "seed " << seed;
      for (index_t i = c + 1; i < p; ++i) EXPECT_EQ(r(i, c), 0.0) << "seed " << seed;
    }
    EXPECT_LT(ortho_defect<double>(w.view()), 1e-12) << "seed " << seed;
    DenseMatrix<double> qr_prod(n, p);
    gemm<double>(Trans::N, Trans::N, 1.0, w.view(), r.view(), 0.0, qr_prod.view());
    EXPECT_LT(diff_fro<double>(qr_prod.view(), w0.view()), 1e-11) << "seed " << seed;
    EXPECT_EQ(st.reductions, 1);
    EXPECT_EQ(trace.phase_count(obs::Phase::Reduction), 1);
    EXPECT_EQ(trace.phase_count(obs::Phase::OrthoNormalization), 1);
  }
}

TEST(TraceInvariants, ProjectionOrthogonalityLossPerMode) {
  // After projecting a random vector against an orthonormal basis, the
  // remaining overlap V^H w measures the orthogonality loss of each mode:
  // single-pass CGS is the loosest, CGS2 and MGS reach machine level.
  // Reduction counts follow section III-D (1, 2, and one per basis block).
  const index_t n = 300, s = 8;
  auto basis = random_matrix<double>(n, s, 11);
  DenseMatrix<double> r(s, s);
  SolveStats qst;
  const SolverOptions qopts;
  SolverWorkspace<double> qws;
  detail::SolveContext<double> qctx(qopts, qst, nullptr, qws);
  ASSERT_TRUE(detail::qr_block<double>(qctx, basis.view(), r.view(), nullptr));

  struct ModeCase {
    Ortho mode;
    std::int64_t reductions;
    double defect_bound;
  };
  const ModeCase cases[] = {{Ortho::Cgs, 1, 1e-8},
                            {Ortho::Cgs2, 2, 1e-13},
                            {Ortho::Mgs, s, 1e-13}};
  for (const auto& mc : cases) {
    auto w = random_matrix<double>(n, 1, 12);
    const DenseMatrix<double> w0 = w;
    DenseMatrix<double> h(s, 1);
    h.set_zero();
    SolveStats st;
    obs::SolverTrace trace;
    SolverOptions opts;
    opts.ortho = mc.mode;
    opts.trace = &trace;
    SolverWorkspace<double> ws;
    detail::SolveContext<double> ctx(opts, st, nullptr, ws);
    detail::project<double>(ctx, basis.view(), s, w.view(), h.view(), 1);
    // Residual overlap with the basis.
    DenseMatrix<double> overlap(s, 1);
    gemm<double>(Trans::C, Trans::N, 1.0, basis.view(),
                 MatrixView<const double>(w.data(), n, 1, n), 0.0, overlap.view());
    double loss = 0;
    for (index_t i = 0; i < s; ++i) loss = std::max(loss, std::abs(overlap(i, 0)));
    EXPECT_LT(loss, mc.defect_bound) << "mode " << int(mc.mode);
    // Reconstruction: w0 = w + V h.
    DenseMatrix<double> rec = w;
    gemm<double>(Trans::N, Trans::N, 1.0, basis.view(),
                 MatrixView<const double>(h.data(), s, 1, s), 1.0, rec.view());
    EXPECT_LT(diff_fro<double>(rec.view(), w0.view()), 1e-12) << "mode " << int(mc.mode);
    EXPECT_EQ(st.reductions, mc.reductions) << "mode " << int(mc.mode);
    EXPECT_EQ(trace.phase_count(obs::Phase::Reduction), mc.reductions) << "mode " << int(mc.mode);
    EXPECT_EQ(trace.phase_count(obs::Phase::OrthoProjection), 1) << "mode " << int(mc.mode);
  }
}

TEST(TraceInvariants, ArnoldiRelationResidual) {
  // Build an Arnoldi decomposition from the same project / qr_block
  // primitives every solver uses and check A V_m = V_{m+1} Hbar_m to
  // machine precision on a seeded nonsymmetric operator.
  const auto a = nonsymmetric_poisson(12, 12, 21);
  const index_t n = a.rows(), mdim = 20;
  CsrOperator<double> op(a);
  DenseMatrix<double> v(n, mdim + 1), hbar(mdim + 1, mdim);
  hbar.set_zero();
  const SolverOptions opts;  // CGS2
  SolveStats st;
  SolverWorkspace<double> ws;
  detail::SolveContext<double> ctx(opts, st, nullptr, ws);
  {
    auto b = random_matrix<double>(n, 1, 22);
    copy_into<double>(b.view(), v.block(0, 0, n, 1));
    DenseMatrix<double> r0(1, 1);
    ASSERT_TRUE(detail::qr_block<double>(ctx, v.block(0, 0, n, 1), r0.view(), nullptr));
  }
  for (index_t j = 0; j < mdim; ++j) {
    auto w = v.block(0, j + 1, n, 1);
    op.apply(MatrixView<const double>(v.col(j), n, 1, v.ld()), w);
    DenseMatrix<double> h(j + 1, 1);
    h.set_zero();
    detail::project<double>(ctx, v.view(), j + 1, w, h.view(), 1);
    for (index_t i = 0; i <= j; ++i) hbar(i, j) = h(i, 0);
    DenseMatrix<double> r(1, 1);
    ASSERT_TRUE(detail::qr_block<double>(ctx, w, r.view(), nullptr)) << "iteration " << j;
    hbar(j + 1, j) = r(0, 0);
  }
  EXPECT_LT(ortho_defect<double>(v.view()), 1e-12);
  // ||A V_m - V_{m+1} Hbar||_F relative to ||A V_m||_F.
  DenseMatrix<double> av(n, mdim), vh(n, mdim);
  op.apply(MatrixView<const double>(v.data(), n, mdim, v.ld()), av.view());
  gemm<double>(Trans::N, Trans::N, 1.0, v.view(),
               MatrixView<const double>(hbar.data(), mdim + 1, mdim, hbar.ld()), 0.0, vh.view());
  const double rel = diff_fro<double>(av.view(), vh.view()) /
                     std::max(norm_fro<double>(av.view()), 1e-300);
  EXPECT_LT(rel, 1e-13);
}

TEST(TraceInvariants, RecycledSpaceOrthonormalWithTrace) {
  // Over a sequence of solves with a nonsymmetric matrix the recycled C_k
  // stays orthonormal, A U_k = C_k holds, and the attached trace records
  // one solve per call with the recycle dimension visible in the events.
  const auto a = nonsymmetric_poisson(11, 11, 31);
  const index_t n = a.rows(), k = 5;
  CsrOperator<double> op(a);
  obs::SolverTrace trace;
  SolverOptions opts;
  opts.restart = 15;
  opts.recycle = k;
  opts.tol = 1e-9;
  opts.trace = &trace;
  GcroDr<double> solver(opts);
  Rng rng(32);
  const int nsolves = 4;
  for (int s = 0; s < nsolves; ++s) {
    std::vector<double> b(static_cast<size_t>(n));
    for (auto& val : b) val = rng.scalar<double>();
    std::vector<double> x(b.size(), 0.0);
    const auto st = solver.solve(op, nullptr, MatrixView<const double>(b.data(), n, 1, n),
                                 MatrixView<double>(x.data(), n, 1, n), nullptr, false);
    ASSERT_TRUE(st.converged) << "solve " << s;
    const auto& c = solver.recycled_c();
    const auto& u = solver.recycled_u();
    EXPECT_LT(ortho_defect<double>(c.view()), 1e-10) << "solve " << s;
    DenseMatrix<double> au(n, u.cols());
    a.spmm(u.view(), au.view());
    EXPECT_LT(diff_fro<double>(au.view(), c.view()), 1e-9) << "solve " << s;
    ASSERT_EQ(trace.solves().size(), size_t(s + 1));
    const auto& rec = trace.solves().back();
    EXPECT_EQ(rec.method, "gcrodr");
    EXPECT_EQ(rec.n, n);
    EXPECT_EQ(rec.nrhs, 1);
    EXPECT_TRUE(rec.converged);
    EXPECT_EQ(rec.iterations, st.iterations);
    EXPECT_EQ(rec.cycles, st.cycles);
    if (s > 0) {
      // After the first solve the recycled space is active from the start.
      ASSERT_FALSE(rec.events.empty());
      bool saw_recycle = false;
      for (const auto& ev : rec.events) saw_recycle |= ev.recycle_dim == k;
      EXPECT_TRUE(saw_recycle) << "solve " << s;
    }
  }
}

TEST(TraceInvariants, IterationEventsWellFormed) {
  // Multi-cycle block solve: events carry consecutive iteration numbers,
  // non-decreasing cycles, basis sizes bounded by the restart, and one
  // residual per RHS column; the final event sits at the tolerance.
  const auto a = poisson2d(12, 12);
  const index_t n = a.rows(), p = 3;
  CsrOperator<double> op(a);
  JacobiPreconditioner<double> m(a);
  const auto b = random_matrix<double>(n, p, 41);
  obs::SolverTrace trace;
  SolverOptions opts;
  opts.restart = 12;  // forces several cycles
  opts.tol = 1e-9;
  opts.trace = &trace;
  DenseMatrix<double> x(n, p);
  x.set_zero();
  const auto st = block_gmres<double>(op, &m, b.view(), x.view(), opts);
  ASSERT_TRUE(st.converged);
  ASSERT_EQ(trace.solves().size(), 1u);
  const auto& rec = trace.solves()[0];
  ASSERT_EQ(index_t(rec.events.size()), st.iterations);
  index_t prev_cycle = 1;
  for (size_t i = 0; i < rec.events.size(); ++i) {
    const auto& ev = rec.events[i];
    EXPECT_EQ(ev.iteration, index_t(i) + 1);
    EXPECT_GE(ev.cycle, prev_cycle);
    EXPECT_LE(ev.cycle, st.cycles);
    prev_cycle = ev.cycle;
    EXPECT_GE(ev.basis_size, p);
    // After iteration j the basis holds j+1 blocks (the newly normalized
    // one included), so a full cycle peaks at (m+1) blocks.
    EXPECT_LE(ev.basis_size, (opts.restart + 1) * p);
    ASSERT_EQ(ev.residuals.size(), size_t(p));
    for (const double res : ev.residuals) EXPECT_GE(res, 0.0);
  }
  for (const double res : rec.events.back().residuals) EXPECT_LE(res, opts.tol * 1.0001);
}

TEST(TraceInvariants, PhaseSecondsNonNegativeAndBounded) {
  // The phase scopes never nest, so the per-phase seconds sum to at most
  // the solve wall time (modulo clock granularity).
  const auto a = poisson2d(24, 24);
  CsrOperator<double> op(a);
  JacobiPreconditioner<double> m(a);
  obs::SolverTrace trace;
  SolverOptions opts;
  opts.restart = 40;
  opts.tol = 1e-8;
  opts.trace = &trace;
  const auto b = poisson2d_rhs(24, 24, 5.0);
  std::vector<double> x(b.size(), 0.0);
  const auto st = gmres<double>(op, &m, b, x, opts);
  ASSERT_TRUE(st.converged);
  double sum = 0;
  for (int ph = 0; ph < obs::kPhaseCount; ++ph) {
    const auto totals = trace.phase_totals(static_cast<obs::Phase>(ph));
    EXPECT_GE(totals.seconds, 0.0);
    EXPECT_GE(totals.count, 0);
    sum += totals.seconds;
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_NEAR(trace.total_phase_seconds(), sum, 1e-12);
  EXPECT_NEAR(trace.total_solve_seconds(), st.seconds, 1e-12);
  // Generous slack: steady_clock reads on tiny spans can overshoot.
  EXPECT_LE(trace.total_phase_seconds(), st.seconds * 1.25 + 1e-3);
}

}  // namespace
}  // namespace bkr
