// Lane independence of the pseudo-block solvers: the p lanes of a fused
// solve share kernels and reductions but no arithmetic, so lane l of a
// width-p solve must be bitwise the width-1 solve of column l — solution
// and residual history alike — for pseudo-block GMRES and for a
// pseudo-block GCRO-DR sequence (each lane with its own recycled space).
#include <gtest/gtest.h>

#include <algorithm>
#include <complex>
#include <string>
#include <vector>

#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "fem/maxwell3d.hpp"
#include "fem/poisson2d.hpp"
#include "precond/jacobi.hpp"
#include "test_helpers.hpp"

namespace bkr {
namespace {

using cplx = std::complex<double>;

constexpr index_t kLanes = 3;

template <class T>
DenseMatrix<T> column(const DenseMatrix<T>& b, index_t c) {
  DenseMatrix<T> out(b.rows(), 1);
  std::copy(b.col(c), b.col(c) + b.rows(), out.col(0));
  return out;
}

template <class T>
void expect_lane_equal(const DenseMatrix<T>& xp, const SolveStats& stp, index_t l,
                       const DenseMatrix<T>& x1, const SolveStats& st1, const std::string& what) {
  SCOPED_TRACE(what + " lane " + std::to_string(l));
  ASSERT_TRUE(st1.converged);
  for (index_t i = 0; i < xp.rows(); ++i) ASSERT_EQ(xp(i, l), x1(i, 0)) << "x row " << i;
  ASSERT_EQ(stp.history[size_t(l)], st1.history[0]);
  EXPECT_EQ(stp.per_rhs_iterations[size_t(l)], st1.per_rhs_iterations[0]);
}

template <class T>
void check_lanes(const CsrMatrix<T>& a, const char* label) {
  const index_t n = a.rows();
  CsrOperator<T> op(a);
  JacobiPreconditioner<T> jacobi(a);
  const DenseMatrix<T> b1 = testing::random_matrix<T>(n, kLanes, 17);
  const DenseMatrix<T> b2 = testing::random_matrix<T>(n, kLanes, 18);
  for (const PrecondSide side : {PrecondSide::None, PrecondSide::Right, PrecondSide::Left}) {
    Preconditioner<T>* m = side == PrecondSide::None ? nullptr : &jacobi;
    SolverOptions opts;
    opts.restart = 12;
    opts.recycle = 4;
    opts.tol = 1e-8;
    opts.max_iterations = 2000;
    opts.side = side;
    const std::string what = std::string(label) + " side " + std::to_string(int(side));

    DenseMatrix<T> xp(n, kLanes);
    const SolveStats stp = pseudo_block_gmres<T>(op, m, b1.view(), xp.view(), opts);
    ASSERT_TRUE(stp.converged) << what;
    for (index_t l = 0; l < kLanes; ++l) {
      const DenseMatrix<T> bl = column(b1, l);
      DenseMatrix<T> x1(n, 1);
      const SolveStats st1 = pseudo_block_gmres<T>(op, m, bl.view(), x1.view(), opts);
      expect_lane_equal(xp, stp, l, x1, st1, "pseudo_block_gmres " + what);
    }

    // Two-solve sequence: the second solve projects onto the recycled
    // spaces the first one left behind.
    PseudoGcroDr<T> fused(opts);
    DenseMatrix<T> xa(n, kLanes), xb(n, kLanes);
    const SolveStats sta = fused.solve(op, m, b1.view(), xa.view());
    const SolveStats stb = fused.solve(op, m, b2.view(), xb.view());
    ASSERT_TRUE(sta.converged && stb.converged) << what;
    for (index_t l = 0; l < kLanes; ++l) {
      PseudoGcroDr<T> single(opts);
      const DenseMatrix<T> bla = column(b1, l), blb = column(b2, l);
      DenseMatrix<T> x1a(n, 1), x1b(n, 1);
      const SolveStats st1a = single.solve(op, m, bla.view(), x1a.view());
      const SolveStats st1b = single.solve(op, m, blb.view(), x1b.view());
      expect_lane_equal(xa, sta, l, x1a, st1a, "pseudo_gcrodr solve 1 " + what);
      expect_lane_equal(xb, stb, l, x1b, st1b, "pseudo_gcrodr solve 2 " + what);
    }
  }
}

TEST(LaneIndependence, RealPoisson) {
  check_lanes<double>(poisson2d_varcoef(12, 12, 100.0, 4, 7), "poisson");
}

TEST(LaneIndependence, ComplexMaxwell) {
  MaxwellConfig cfg;
  cfg.n = 4;
  cfg.wavelengths = 0.9;
  cfg.loss = 0.3;
  check_lanes<cplx>(maxwell3d(cfg).matrix, "maxwell");
}

}  // namespace
}  // namespace bkr
