// SolverWorkspace conformance suite (DESIGN.md §11).
//
// The contract under test (core/workspace.hpp): a workspace slot acquire
// has fresh zero-initialized-object semantics, only the backing storage is
// reused. Therefore a solve must be bitwise identical — solution, residual
// histories, iteration/reduction counts — whichever way the workspace is
// provided:
//   * no workspace attached (the per-solve one-shot fallback of
//     detail::run_solver's context),
//   * a freshly constructed caller-attached workspace,
//   * a WARM caller-attached workspace whose slots already carry the
//     capacity (and stale values) of a previous solve,
//   * a warm workspace previously used by a *different* solver,
//   * a workspace of the wrong scalar type (the context's workspace
//     downcast must fall back to the one-shot path, not corrupt the solve).
// All of it at 1 and 4 executor lanes, for double and complex scalars.
#include <gtest/gtest.h>

#include <complex>
#include <vector>

#include "core/block_cg.hpp"
#include "core/cg.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/lgmres.hpp"
#include "core/operator.hpp"
#include "core/workspace.hpp"
#include "fem/poisson2d.hpp"
#include "parallel/kernel_executor.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;

constexpr KernelCutoffs kForceParallel{1, 1, 1};

DenseMatrix<double> poisson_rhs_block(index_t nx, index_t ny, index_t p) {
  const auto base = poisson2d_rhs(nx, ny, 0.1);
  const index_t n = index_t(base.size());
  DenseMatrix<double> b(n, p);
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i)
      b(i, c) = base[size_t(i)] + 0.05 * double(c) * std::sin(double(i + 1) * double(c + 1));
  return b;
}

// Complex shifted Poisson (same spectrum-shifting trick as the complex
// session conformance test).
CsrMatrix<cplx> shifted_poisson(index_t nx, index_t ny) {
  const auto ar = poisson2d(nx, ny);
  const index_t n = ar.rows();
  CooBuilder<cplx> builder(n, n);
  for (index_t i = 0; i < n; ++i)
    for (index_t l = ar.rowptr()[size_t(i)]; l < ar.rowptr()[size_t(i) + 1]; ++l)
      builder.add(i, ar.colind()[size_t(l)],
                  cplx(ar.values()[size_t(l)], 0) -
                      (ar.colind()[size_t(l)] == i ? cplx(0.05, -0.05) : cplx(0)));
  return builder.build();
}

void expect_same_stats(const SolveStats& got, const SolveStats& ref, index_t lanes,
                       const char* what) {
  EXPECT_EQ(got.converged, ref.converged) << what << " lanes=" << lanes;
  EXPECT_EQ(got.status, ref.status) << what << " lanes=" << lanes;
  EXPECT_EQ(got.iterations, ref.iterations) << what << " lanes=" << lanes;
  EXPECT_EQ(got.cycles, ref.cycles) << what << " lanes=" << lanes;
  EXPECT_EQ(got.reductions, ref.reductions) << what << " lanes=" << lanes;
  EXPECT_EQ(got.operator_applies, ref.operator_applies) << what << " lanes=" << lanes;
  EXPECT_EQ(got.per_rhs_iterations, ref.per_rhs_iterations) << what << " lanes=" << lanes;
  ASSERT_EQ(got.history.size(), ref.history.size()) << what << " lanes=" << lanes;
  for (size_t c = 0; c < ref.history.size(); ++c)
    EXPECT_EQ(got.history[c], ref.history[c])
        << what << " lanes=" << lanes << " rhs=" << c << " (residual history diverged)";
}

template <class T>
void expect_same_solution(const DenseMatrix<T>& got, const DenseMatrix<T>& ref, index_t lanes,
                          const char* what) {
  ASSERT_EQ(got.rows(), ref.rows());
  ASSERT_EQ(got.cols(), ref.cols());
  for (index_t j = 0; j < ref.cols(); ++j)
    for (index_t i = 0; i < ref.rows(); ++i)
      EXPECT_EQ(got(i, j), ref(i, j))
          << what << " lanes=" << lanes << " x(" << i << "," << j << ")";
}

// `run(op, b, x, opts)` performs one structurally identical solve per call
// (stateful solvers construct a fresh instance inside). OtherT is the
// deliberately mismatched workspace scalar for the fallback variant.
template <class T, class OtherT, class Run>
void check_workspace_conformance(const CsrMatrix<T>& a, const DenseMatrix<T>& b, Run run,
                                 const char* what) {
  for (index_t lanes : {index_t(1), index_t(4)}) {
    KernelExecutor ex(lanes, kForceParallel);
    CsrOperator<T> op(a, nullptr, &ex);
    SolverOptions opts;
    opts.restart = 25;
    opts.recycle = 2;
    opts.tol = 1e-9;
    opts.exec = &ex;

    // Reference: no workspace attached (per-solve one-shot fallback).
    DenseMatrix<T> xref(a.rows(), b.cols());
    const SolveStats ref = run(op, b, xref, opts);
    EXPECT_TRUE(ref.converged) << what << " lanes=" << lanes;

    // Cold then warm caller-attached workspace: the warm pass re-acquires
    // every slot over the stale values of the cold pass.
    SolverWorkspace<T> ws;
    opts.workspace = &ws;
    for (const char* pass : {"cold ws", "warm ws"}) {
      DenseMatrix<T> x(a.rows(), b.cols());
      const SolveStats st = run(op, b, x, opts);
      expect_same_stats(st, ref, lanes, (std::string(what) + " " + pass).c_str());
      expect_same_solution(x, xref, lanes, (std::string(what) + " " + pass).c_str());
    }

    // Scalar-type mismatch: the context must fall back to the
    // one-shot path and still reproduce the reference bitwise.
    SolverWorkspace<OtherT> wrong;
    opts.workspace = &wrong;
    DenseMatrix<T> x(a.rows(), b.cols());
    const SolveStats st = run(op, b, x, opts);
    expect_same_stats(st, ref, lanes, (std::string(what) + " mismatched ws").c_str());
    expect_same_solution(x, xref, lanes, (std::string(what) + " mismatched ws").c_str());
  }
}

TEST(WorkspaceConformance, BlockGmres) {
  const auto a = poisson2d(12, 12);
  check_workspace_conformance<double, cplx>(
      a, poisson_rhs_block(12, 12, 2),
      [](CsrOperator<double>& op, const DenseMatrix<double>& b, DenseMatrix<double>& x,
         const SolverOptions& o) { return block_gmres<double>(op, nullptr, b.view(), x.view(), o); },
      "block_gmres");
}

TEST(WorkspaceConformance, PseudoBlockGmres) {
  const auto a = poisson2d(12, 12);
  check_workspace_conformance<double, cplx>(
      a, poisson_rhs_block(12, 12, 3),
      [](CsrOperator<double>& op, const DenseMatrix<double>& b, DenseMatrix<double>& x,
         const SolverOptions& o) {
        return pseudo_block_gmres<double>(op, nullptr, b.view(), x.view(), o);
      },
      "pseudo_block_gmres");
}

TEST(WorkspaceConformance, Cg) {
  const auto a = poisson2d(12, 12);
  check_workspace_conformance<double, cplx>(
      a, poisson_rhs_block(12, 12, 1),
      [](CsrOperator<double>& op, const DenseMatrix<double>& b, DenseMatrix<double>& x,
         const SolverOptions& o) { return cg<double>(op, nullptr, b.view(), x.view(), o); },
      "cg");
}

TEST(WorkspaceConformance, BlockCg) {
  const auto a = poisson2d(12, 12);
  check_workspace_conformance<double, cplx>(
      a, poisson_rhs_block(12, 12, 4),
      [](CsrOperator<double>& op, const DenseMatrix<double>& b, DenseMatrix<double>& x,
         const SolverOptions& o) { return block_cg<double>(op, nullptr, b.view(), x.view(), o); },
      "block_cg");
}

TEST(WorkspaceConformance, Lgmres) {
  const auto a = poisson2d(12, 12);
  check_workspace_conformance<double, cplx>(
      a, poisson_rhs_block(12, 12, 1),
      [](CsrOperator<double>& op, const DenseMatrix<double>& b, DenseMatrix<double>& x,
         const SolverOptions& o) {
        const index_t n = b.rows();
        std::vector<double> bv(b.col(0), b.col(0) + n), xv(size_t(n), 0.0);
        const SolveStats st = lgmres<double>(op, nullptr, bv, xv, o);
        std::copy(xv.begin(), xv.end(), x.col(0));
        return st;
      },
      "lgmres");
}

TEST(WorkspaceConformance, GcroDr) {
  const auto a = poisson2d(12, 12);
  check_workspace_conformance<double, cplx>(
      a, poisson_rhs_block(12, 12, 2),
      [](CsrOperator<double>& op, const DenseMatrix<double>& b, DenseMatrix<double>& x,
         const SolverOptions& o) {
        GcroDr<double> solver(o);  // fresh per call: structurally identical solves
        return solver.solve(op, nullptr, b.view(), x.view());
      },
      "gcrodr");
}

TEST(WorkspaceConformance, ComplexBlockGmres) {
  const auto a = shifted_poisson(10, 10);
  const index_t n = a.rows();
  Rng rng(97);
  DenseMatrix<cplx> b(n, 2);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i) b(i, j) = rng.scalar<cplx>();
  check_workspace_conformance<cplx, double>(
      a, b,
      [](CsrOperator<cplx>& op, const DenseMatrix<cplx>& bb, DenseMatrix<cplx>& x,
         const SolverOptions& o) { return block_gmres<cplx>(op, nullptr, bb.view(), x.view(), o); },
      "complex block_gmres");
}

TEST(WorkspaceConformance, ComplexGcroDr) {
  const auto a = shifted_poisson(10, 10);
  const index_t n = a.rows();
  Rng rng(101);
  DenseMatrix<cplx> b(n, 2);
  for (index_t j = 0; j < 2; ++j)
    for (index_t i = 0; i < n; ++i) b(i, j) = rng.scalar<cplx>();
  check_workspace_conformance<cplx, double>(
      a, b,
      [](CsrOperator<cplx>& op, const DenseMatrix<cplx>& bb, DenseMatrix<cplx>& x,
         const SolverOptions& o) {
        GcroDr<cplx> solver(o);
        return solver.solve(op, nullptr, bb.view(), x.view());
      },
      "complex gcrodr");
}

TEST(WorkspaceConformance, CrossSolverWorkspaceReuse) {
  // One workspace threaded through different solvers in turn: the stale
  // shapes and values each solver leaves behind must be invisible to the
  // next (zero-filled re-acquire), so every run matches its no-workspace
  // reference bitwise.
  const auto a = poisson2d(12, 12);
  const auto b = poisson_rhs_block(12, 12, 2);
  CsrOperator<double> op(a);
  SolverOptions opts;
  opts.restart = 25;
  opts.recycle = 2;
  opts.tol = 1e-9;

  DenseMatrix<double> xg_ref(a.rows(), 2), xd_ref(a.rows(), 2), xc_ref(a.rows(), 2);
  const SolveStats g_ref = block_gmres<double>(op, nullptr, b.view(), xg_ref.view(), opts);
  GcroDr<double> dr_ref(opts);
  const SolveStats d_ref = dr_ref.solve(op, nullptr, b.view(), xd_ref.view());
  const SolveStats c_ref = block_cg<double>(op, nullptr, b.view(), xc_ref.view(), opts);

  SolverWorkspace<double> ws;
  opts.workspace = &ws;
  DenseMatrix<double> xg(a.rows(), 2), xd(a.rows(), 2), xc(a.rows(), 2);
  const SolveStats g = block_gmres<double>(op, nullptr, b.view(), xg.view(), opts);
  GcroDr<double> dr(opts);
  const SolveStats d = dr.solve(op, nullptr, b.view(), xd.view());
  const SolveStats c = block_cg<double>(op, nullptr, b.view(), xc.view(), opts);

  expect_same_stats(g, g_ref, 0, "gmres after shared ws");
  expect_same_solution(xg, xg_ref, 0, "gmres after shared ws");
  expect_same_stats(d, d_ref, 0, "gcrodr after gmres in shared ws");
  expect_same_solution(xd, xd_ref, 0, "gcrodr after gmres in shared ws");
  expect_same_stats(c, c_ref, 0, "block_cg after gcrodr in shared ws");
  expect_same_solution(xc, xc_ref, 0, "block_cg after gcrodr in shared ws");
}

TEST(Workspace, SlotAcquireHasFreshObjectSemantics) {
  SolverWorkspace<double> ws;
  // First acquire: shaped and zero-filled.
  DenseMatrix<double>& m = ws.mat(3, 5, 4);
  EXPECT_EQ(m.rows(), 5);
  EXPECT_EQ(m.cols(), 4);
  for (index_t j = 0; j < 4; ++j)
    for (index_t i = 0; i < 5; ++i) EXPECT_EQ(m(i, j), 0.0);
  m(2, 2) = 7.0;
  // Re-acquire at a smaller shape: stale values must not show through.
  DenseMatrix<double>& m2 = ws.mat(3, 3, 3);
  EXPECT_EQ(&m, &m2);  // same backing object
  EXPECT_EQ(m2.rows(), 3);
  EXPECT_EQ(m2.cols(), 3);
  for (index_t j = 0; j < 3; ++j)
    for (index_t i = 0; i < 3; ++i) EXPECT_EQ(m2(i, j), 0.0);

  std::vector<double>& v = ws.dvec(0, 8);
  v[5] = 1.5;
  std::vector<double>& v2 = ws.dvec(0, 6);
  EXPECT_EQ(v2.size(), 6u);
  for (const double e : v2) EXPECT_EQ(e, 0.0);
}

TEST(Workspace, SlotReferencesSurviveGrowth) {
  // The deque-pool guarantee the solvers lean on: a reference to an early
  // slot stays valid while later slots are acquired.
  SolverWorkspace<double> ws;
  DenseMatrix<double>& early = ws.mat(0, 4, 4);
  early(1, 1) = 3.0;
  for (int slot = 1; slot < 40; ++slot) ws.mat(slot, 2, 2);
  EXPECT_EQ(early.rows(), 4);
  EXPECT_EQ(early(1, 1), 3.0);

  std::vector<double>& ev = ws.dvec(0, 3);
  ev[0] = 2.0;
  for (int slot = 1; slot < 40; ++slot) ws.dvec(slot, 2);
  EXPECT_EQ(ev[0], 2.0);
}

}  // namespace
}  // namespace bkr
