// Fig. 8 reproduction: eight ways to solve the Maxwell system with 32
// antenna RHS, combining recycling and (pseudo-)block methods.
//
// Paper (89M complex unknowns, 4096 subdomains, GMRES(50)/GCRO-DR(50,10)):
//   1) 32x GMRES                       (reference)        speedup 1.0
//   2) 32x GCRO-DR                                        1.7
//   3) 1x pseudo-BGMRES, 32 RHS                           2.0
//   4) 1x BGMRES, 32 RHS                                  4.2
//   5) 4x pseudo-BGCRO-DR, 8 RHS                          2.3
//   6) 1x pseudo-BGCRO-DR, 32 RHS                         2.2
//   7) 4x BGCRO-DR, 8 RHS              (best time)        4.5
//   8) 1x BGCRO-DR, 32 RHS             (fewest iterations) 3.1
// Scaled down: grid 14 chamber + plastic cylinder, ORAS(16), m=20, k=5.
// Each alternative runs under its own SolverTrace; the phase breakdowns
// print after the table.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "precond/schwarz.hpp"

namespace {

using namespace bkr;
using cd = std::complex<double>;

struct Row {
  const char* name;
  index_t p;
  double seconds;
  index_t iterations;        // total (block) iterations over all solves
  index_t per_rhs;           // average iterations per RHS (0 if p == 32)
  bool converged;
};

}  // namespace

int main() {
  using namespace bkr;
  const index_t grid = 14;
  const index_t nrhs = 32;
  const auto prob = bench::chamber_problem(grid, /*with_plastic_cylinder=*/true);
  const index_t n = prob.nfree;
  std::printf("Maxwell chamber + plastic cylinder: %lld complex unknowns, %lld antenna RHS\n",
              static_cast<long long>(n), static_cast<long long>(nrhs));
  DenseMatrix<cd> b(n, nrhs);
  for (index_t a = 0; a < nrhs; ++a) {
    const auto col = antenna_rhs(prob, a, nrhs);
    std::copy(col.begin(), col.end(), b.col(a));
  }
  Timer tsetup;
  SchwarzPreconditioner<cd> m(prob.matrix, bench::chamber_oras(16, 2, 0.5));
  const double setup = tsetup.seconds();
  std::printf("ORAS(16) setup: %.2f s (done once, shared by every alternative)\n", setup);
  CsrOperator<cd> op(prob.matrix);

  SolverOptions base;
  base.restart = 20;  // paper: 50 (scaled with the problem)
  base.tol = 1e-8;
  base.side = PrecondSide::Right;
  base.max_iterations = 4000;
  auto recycle_opts = [&](bool same) {
    auto o = base;
    o.recycle = 5;  // paper: 10
    o.same_system = same;
    return o;
  };
  // One trace per alternative, for its phase breakdown.
  std::vector<obs::SolverTrace> traces(8);
  auto traced = [&](SolverOptions o, size_t alternative) {
    o.trace = &traces[alternative - 1];
    return o;
  };

  std::vector<Row> rows;

  // 1) 32 consecutive GMRES solves (reference).
  {
    Timer t;
    index_t total = 0;
    bool ok = true;
    for (index_t a = 0; a < nrhs; ++a) {
      std::vector<cd> x(static_cast<size_t>(n), cd(0));
      const auto st = block_gmres<cd>(op, &m, MatrixView<const cd>(b.col(a), n, 1, n),
                                      MatrixView<cd>(x.data(), n, 1, n), traced(base, 1));
      total += st.iterations;
      ok &= st.converged;
    }
    rows.push_back({"1) 32x GMRES(20)", 1, t.seconds(), total, total / nrhs, ok});
  }
  // 2) 32 consecutive GCRO-DR solves (recycling across RHS).
  {
    Timer t;
    index_t total = 0;
    bool ok = true;
    GcroDr<cd> solver(traced(recycle_opts(true), 2));
    for (index_t a = 0; a < nrhs; ++a) {
      std::vector<cd> x(static_cast<size_t>(n), cd(0));
      const auto st = solver.solve(op, &m, MatrixView<const cd>(b.col(a), n, 1, n),
                                   MatrixView<cd>(x.data(), n, 1, n));
      total += st.iterations;
      ok &= st.converged;
    }
    rows.push_back({"2) 32x GCRO-DR(20,5)", 1, t.seconds(), total, total / nrhs, ok});
  }
  // 3) one pseudo-block GMRES with all 32 RHS.
  {
    Timer t;
    DenseMatrix<cd> x(n, nrhs);
    const auto st = pseudo_block_gmres<cd>(op, &m, b.view(), x.view(), traced(base, 3));
    rows.push_back({"3) pseudo-BGMRES(20), 32 RHS", 32, t.seconds(), st.iterations, 0,
                    st.converged});
  }
  // 4) one block GMRES with all 32 RHS.
  {
    Timer t;
    DenseMatrix<cd> x(n, nrhs);
    const auto st = block_gmres<cd>(op, &m, b.view(), x.view(), traced(base, 4));
    rows.push_back({"4) BGMRES(20), 32 RHS", 32, t.seconds(), st.iterations, 0, st.converged});
  }
  // 5) four consecutive pseudo-block GCRO-DR solves with 8 RHS.
  {
    Timer t;
    index_t total = 0;
    bool ok = true;
    PseudoGcroDr<cd> solver(traced(recycle_opts(true), 5));
    for (index_t s = 0; s < 4; ++s) {
      DenseMatrix<cd> x(n, 8);
      const auto st = solver.solve(op, &m, b.block(0, 8 * s, n, 8), x.view());
      total += st.iterations;
      ok &= st.converged;
    }
    rows.push_back({"5) 4x pseudo-BGCRO-DR(20,5), 8 RHS", 8, t.seconds(), total, total / 4, ok});
  }
  // 6) one pseudo-block GCRO-DR with all 32 RHS.
  {
    Timer t;
    DenseMatrix<cd> x(n, nrhs);
    PseudoGcroDr<cd> solver(traced(recycle_opts(false), 6));
    const auto st = solver.solve(op, &m, b.view(), x.view());
    rows.push_back({"6) pseudo-BGCRO-DR(20,5), 32 RHS", 32, t.seconds(), st.iterations, 0,
                    st.converged});
  }
  // 7) four consecutive block GCRO-DR solves with 8 RHS.
  {
    Timer t;
    index_t total = 0;
    bool ok = true;
    GcroDr<cd> solver(traced(recycle_opts(true), 7));
    for (index_t s = 0; s < 4; ++s) {
      DenseMatrix<cd> x(n, 8);
      const auto st = solver.solve(op, &m, b.block(0, 8 * s, n, 8), x.view());
      total += st.iterations;
      ok &= st.converged;
    }
    rows.push_back({"7) 4x BGCRO-DR(20,5), 8 RHS", 8, t.seconds(), total, total / 4, ok});
  }
  // 8) one block GCRO-DR with all 32 RHS.
  {
    Timer t;
    DenseMatrix<cd> x(n, nrhs);
    GcroDr<cd> solver(traced(recycle_opts(false), 8));
    const auto st = solver.solve(op, &m, b.view(), x.view());
    rows.push_back({"8) BGCRO-DR(20,5), 32 RHS", 32, t.seconds(), st.iterations, 0, st.converged});
  }

  bench::header("fig. 8 — timings of the solution phase and speedups vs alternative 1");
  std::printf("  %-36s %3s %10s %8s %10s %8s\n", "alternative", "p", "solve (s)", "iters",
              "it/RHS", "speedup");
  const double reference = rows.front().seconds;
  for (const auto& row : rows) {
    std::printf("  %-36s %3lld %10.2f %8lld %10s %7.1fx%s\n", row.name,
                static_cast<long long>(row.p), row.seconds,
                static_cast<long long>(row.iterations),
                row.per_rhs > 0 ? std::to_string(row.per_rhs).c_str() : "-",
                reference / row.seconds, row.converged ? "" : "  (NOT CONVERGED)");
  }
  std::printf("\npaper speedups: 1.0 | 1.7 | 2.0 | 4.2 | 2.3 | 2.2 | 4.5 (best) | 3.1 "
              "(fewest block iterations)\n");
  for (size_t i = 0; i < rows.size(); ++i) bench::print_phase_breakdown(rows[i].name, traces[i]);
  return 0;
}
