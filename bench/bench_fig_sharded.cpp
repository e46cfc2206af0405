// Sharded SPMD layer benchmark: shard-count sweep of the Poisson solves
// with one-level Schwarz vs. the subdomain-deflation two-level method
// (DESIGN.md §13).
//
// Two claims of the sharded layer are machine-checkable and gated by
// tools/bench_check on the emitted JSON (schema "bkr-bench-sharded-1"):
//   1. shard invariance — the tree-reduction solver history is bitwise
//      independent of the shard count, so iteration counts for the same
//      (case, coarse) pair must agree across the whole shard sweep;
//   2. deflation pays — the two-level method converges in strictly fewer
//      iterations than its one-level counterpart on every case.
// Timings (setup/solve seconds) ride along for the human-readable table
// but are not gated: single-node shard counts model communication, they
// do not add cores.
//
// Usage: bench_fig_sharded [--smoke] [--out FILE]
//   --smoke   smaller grid (tier-1 gate); identical keys per case name,
//             so the gates apply unchanged
//   --out     write the JSON there instead of BENCH_sharded.json
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/timer.hpp"
#include "core/gmres.hpp"
#include "fem/poisson2d.hpp"
#include "precond/coarse_space.hpp"
#include "precond/schwarz.hpp"

int main(int argc, char** argv) {
  using namespace bkr;
  std::string out_path = "BENCH_sharded.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_fig_sharded [--smoke] [--out FILE]\n");
      return 2;
    }
  }

  const index_t grid = smoke ? 32 : 64;
  // Enough subdomains that the one-level method is in its degrading regime
  // (low-frequency error crossing many subdomains) — the setting where the
  // coarse space pays, per section V-A.
  const index_t nsub = smoke ? 8 : 16;
  struct Case {
    std::string name;
    CsrMatrix<double> a;
  };
  std::vector<Case> cases;
  cases.push_back({"poisson2d-" + std::to_string(grid), poisson2d(grid, grid)});
  cases.push_back({"poisson2d-varcoef-" + std::to_string(grid),
                   poisson2d_varcoef(grid, grid, 1e3)});

  const std::vector<index_t> shard_sweep = smoke ? std::vector<index_t>{1, 2, 4}
                                                 : std::vector<index_t>{1, 2, 4, 7};
  std::vector<std::vector<bench::BenchField>> rows;
  bench::header("sharded SPMD sweep — case | coarse | shards | iters | setup | solve");
  for (const Case& c : cases) {
    const std::vector<double> b = poisson2d_rhs(grid, grid, kPoissonNus[0]);
    for (const index_t coarse : {index_t(0), nsub}) {
      for (const index_t shards : shard_sweep) {
        Timer tsetup;
        SchwarzOptions so;
        so.subdomains = nsub;
        so.overlap = 1;
        so.kind = SchwarzKind::Ras;
        SchwarzPreconditioner<double> inner(c.a, so);
        std::unique_ptr<TwoLevelPreconditioner<double>> two;
        Preconditioner<double>* m = &inner;
        if (coarse > 0) {
          CoarseSpaceOptions copts;
          copts.subdomains = coarse;
          two = std::make_unique<TwoLevelPreconditioner<double>>(
              c.a, &inner, copts, CoarseCorrection::Multiplicative);
          m = two.get();
        }
        const double setup = tsetup.seconds();

        CommModel comm;
        ShardedOperator<double> op(c.a, shards, &comm);
        SolverOptions opts;
        opts.tol = 1e-8;
        opts.restart = 100;
        opts.max_iterations = 400;
        opts.side = PrecondSide::Right;
        opts.shards = shards;
        std::vector<double> x(b.size(), 0.0);
        Timer tsolve;
        const auto st = gmres<double>(op, m, b, x, opts, &comm);
        const double solve = tsolve.seconds();
        rows.push_back({{"case", c.name}, {"shards", shards}, {"coarse", coarse},
                        {"iterations", st.iterations}, {"converged", st.converged},
                        {"setup_seconds", setup}, {"solve_seconds", solve}});
        std::printf("  %-22s %6lld %7lld %6lld %10.4f %10.4f%s\n", c.name.c_str(),
                    static_cast<long long>(coarse), static_cast<long long>(shards),
                    static_cast<long long>(st.iterations), setup, solve,
                    st.converged ? "" : "  NOT CONVERGED");
      }
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_fig_sharded: cannot write %s\n", out_path.c_str());
    return 1;
  }
  bench::write_bench_json(
      out, {{"schema", "bkr-bench-sharded-1"}, {"mode", smoke ? "smoke" : "full"}}, rows);
  std::printf("bench_fig_sharded: wrote %zu entries (%s) to %s\n", rows.size(),
              smoke ? "smoke" : "full", out_path.c_str());
  return 0;
}
