// Hot-kernel trajectory bench: serial (legacy, no executor) vs the
// KernelExecutor paths at 1/2/4/hardware lanes, per kernel and shape.
//
// This is the machine-readable companion of the section V-B2 kernel
// study: the same fused multi-RHS kernels (SpMM, batched reductions,
// block trsm), now also the thread fan-out of the parallel kernel layer.
// Output is BENCH_kernels.json (schema "bkr-bench-kernels-1", see
// bench_util.hpp); tools/bench_check validates the schema and gates
// regressions against the committed baseline. The header records
// complex_register_bytes, the register width the complex kernels ran at
// (16, or 32 where the CPU runs AVX2; la/complex_reg.hpp), and
// bench_check compares timings only between documents of one width.
//
// On a single-core host the parallel rows land at or slightly above the
// serial ones (pool dispatch overhead, nothing to fan out to); the
// speedup column only becomes meaningful on multi-core hardware. The
// committed baseline records the calibration probe so the checker can
// normalize across hosts either way.
//
// Usage: bench_kernels [--smoke] [--reps K] [--out FILE]
//   --smoke   fewer repetitions (tier-1 gate); identical shapes and keys,
//             so the smoke run compares against the full-mode baseline
//   --reps K  override the repetition count
//   --out     write the JSON there instead of BENCH_kernels.json
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>  // bkr-lint: allow(raw-new-delete) replaceable allocation hooks
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/gcrodr.hpp"
#include "core/gmres.hpp"
#include "core/workspace.hpp"
#include "direct/factor.hpp"
#include "fem/poisson2d.hpp"
#include "la/blas.hpp"
#include "la/eig.hpp"
#include "la/qr.hpp"
#include "parallel/kernel_executor.hpp"
#include "precond/amg.hpp"
#include "precond/schwarz.hpp"
#include "sparse/csr.hpp"
#include "sparse/graph.hpp"
#include "sparse/partition.hpp"

// Process-wide allocation counter behind the alloc_churn rows: replaceable
// global operator new/delete that count every heap allocation, so a solver
// iterate loop that touches the allocator cannot hide. The hooks stay
// installed for the timing rows too; one relaxed fetch_add is noise next to
// malloc itself.
std::atomic<std::uint64_t> g_alloc_count{0};

void* operator new(std::size_t sz) {  // bkr-lint: allow(raw-new-delete) counting hook
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(sz == 0 ? 1 : sz);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t sz) { return ::operator new(sz); }  // bkr-lint: allow(raw-new-delete) counting hook
void operator delete(void* p) noexcept { std::free(p); }  // bkr-lint: allow(raw-new-delete) counting hook
void operator delete[](void* p) noexcept { std::free(p); }  // bkr-lint: allow(raw-new-delete) counting hook
void operator delete(void* p, std::size_t) noexcept { std::free(p); }  // bkr-lint: allow(raw-new-delete) counting hook
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }  // bkr-lint: allow(raw-new-delete) counting hook

namespace {

using namespace bkr;

// Steady-state allocations per solver iteration (DESIGN.md §11): run the
// same solve three times against one warmed workspace, varying only the
// iteration budget — warm-up at the larger budget so every workspace slot
// reaches its per-cycle maximum shape, then count a short and a long solve.
// The budget difference stays inside one restart cycle, so per-solve and
// per-cycle costs appear identically in both counted runs and cancel; what
// remains is the allocator traffic of the extra iterations alone. The gate
// in bench_check requires exactly zero.
template <class SolveFn>
double alloc_churn_per_iteration(SolveFn&& solve, index_t short_budget, index_t long_budget) {
  solve(long_budget);  // warm-up
  const std::uint64_t a0 = g_alloc_count.load();
  solve(short_budget);
  const std::uint64_t a1 = g_alloc_count.load();
  solve(long_budget);
  const std::uint64_t a2 = g_alloc_count.load();
  const std::int64_t extra = std::int64_t(a2 - a1) - std::int64_t(a1 - a0);
  return double(extra) / double(long_budget - short_budget);
}

// Lane counts benchmarked on top of the legacy serial row (threads == 0).
std::vector<index_t> bench_lanes() {
  std::vector<index_t> lanes{1, 2, 4};
  const index_t hw = index_t(std::thread::hardware_concurrency());
  if (hw > 0 && hw != 1 && hw != 2 && hw != 4) lanes.push_back(hw);
  return lanes;
}

struct Bench {
  int reps;
  std::vector<bench::KernelBenchEntry> entries;

  // Time `fn(ex)` once per thread count: ex == nullptr for the legacy
  // serial row, then one executor per lane count. Cutoffs are forced low
  // so the executor path is what gets measured, not the cutoff fallback.
  template <class Fn>
  void kernel(const std::string& name, const std::string& shape, Fn&& fn,
              const std::vector<index_t>& lane_counts = bench_lanes()) {
    entries.push_back({name, shape, 0, bench::time_median(reps, [&] { fn(nullptr); }), reps});
    for (const index_t lanes : lane_counts) {
      KernelExecutor ex(lanes, KernelCutoffs{1, 1, 1});
      entries.push_back({name, shape, lanes, bench::time_median(reps, [&] { fn(&ex); }), reps});
    }
  }
};

template <class T = double>
DenseMatrix<T> random_block(index_t n, index_t p, unsigned seed) {
  DenseMatrix<T> m(n, p);
  Rng rng(seed);
  for (index_t c = 0; c < p; ++c)
    for (index_t i = 0; i < n; ++i) m(i, c) = rng.scalar<T>();
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool smoke = false;
  int reps = 9;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: bench_kernels [--smoke] [--reps K] [--out FILE]\n");
      return 2;
    }
  }
  if (smoke && reps == 9) reps = 3;
  if (reps < 1) reps = 1;

  // Calibration probe: a fixed serial reduction, so the checker can
  // normalize medians by relative machine speed across hosts.
  const index_t cal_n = 1 << 20;
  std::vector<double> cx(size_t(cal_n), 1.000000059604645), cy(size_t(cal_n), 0.999999940395355);
  const double calibration = bench::time_median(5, [&] {
    volatile double s = real_part(dot<double>(cal_n, cx.data(), cy.data()));
    (void)s;
  });

  Bench b{reps, {}};

  // SpMV / SpMM: fig-2 Poisson operator, single and fused multi-RHS.
  const CsrMatrix<double> a = poisson2d(96, 96);
  const index_t n = a.rows();
  {
    const DenseMatrix<double> x1 = random_block(n, 1, 1);
    DenseMatrix<double> y1(n, 1);
    b.kernel("spmv", "poisson96 p=1",
             [&](const KernelExecutor* ex) { a.spmv(x1.col(0), y1.col(0), ex); });
    const DenseMatrix<double> x8 = random_block(n, 8, 2);
    DenseMatrix<double> y8(n, 8);
    b.kernel("spmm", "poisson96 p=8",
             [&](const KernelExecutor* ex) { a.spmm(x8.view(), y8.view(), ex); });
  }

  // gemm: the two shapes on every solver's hot path — the CGS projection
  // coefficients (C^H x, tall-skinny inputs) and the basis/solution
  // update (tall-skinny times small square).
  {
    const index_t s = 16, p = 8;
    const DenseMatrix<double> v = random_block(n, s, 3);
    const DenseMatrix<double> w = random_block(n, p, 4);
    DenseMatrix<double> h(s, p);
    b.kernel("gemm", "proj CN n=9216 s=16 p=8", [&](const KernelExecutor* ex) {
      gemm<double>(Trans::C, Trans::N, 1.0, v.view(), w.view(), 0.0, h.view(), ex);
    });
    const DenseMatrix<double> coef = random_block(s, p, 5);
    DenseMatrix<double> upd(n, p);
    b.kernel("gemm", "update NN n=9216 s=16 p=8", [&](const KernelExecutor* ex) {
      gemm<double>(Trans::N, Trans::N, 1.0, v.view(), coef.view(), 0.0, upd.view(), ex);
    });
  }

  // The same two gemm forms at the fig-2 Poisson shape: FGCRO-DR(30,10)
  // projects one vector against up to 30 basis columns of a 256^2 grid.
  {
    const index_t pn = 65536, s = 30;
    const DenseMatrix<double> v = random_block(pn, s, 12);
    const DenseMatrix<double> w = random_block(pn, 1, 13);
    DenseMatrix<double> h(s, 1);
    b.kernel("gemm", "proj CN n=65536 s=30 p=1", [&](const KernelExecutor* ex) {
      gemm<double>(Trans::C, Trans::N, 1.0, v.view(), w.view(), 0.0, h.view(), ex);
    });
    const DenseMatrix<double> coef = random_block(s, 1, 14);
    DenseMatrix<double> upd(pn, 1);
    b.kernel("gemm", "update NN n=65536 s=30 p=1", [&](const KernelExecutor* ex) {
      gemm<double>(Trans::N, Trans::N, 1.0, v.view(), coef.view(), 0.0, upd.view(), ex);
    });
  }

  // herk (the CholQR gram matrix) and the paired triangular solve.
  {
    const index_t p = 8;
    const DenseMatrix<double> v = random_block(n, p, 6);
    DenseMatrix<double> g(p, p);
    b.kernel("herk", "gram n=9216 p=8",
             [&](const KernelExecutor* ex) { gram<double>(v.view(), g.view(), ex); });
    DenseMatrix<double> r = random_block(p, p, 7);
    for (index_t j = 0; j < p; ++j) {
      r(j, j) = 4.0 + r(j, j);
      for (index_t i = j + 1; i < p; ++i) r(i, j) = 0.0;
    }
    // The leading dimension is padded past n. A column stride of 9216
    // doubles is a multiple of 4 KiB, which maps all eight columns onto the
    // same cache sets and made the row's time depend on code layout; 64
    // doubles (512 B) of padding spread the columns over distinct sets and
    // keep every column pair's offset mod 4 KiB at 512 B or more, clear of
    // 4K-aliasing stalls between a column's stores and the next one's loads.
    const index_t ld = n + 64;
    DenseMatrix<double> xr = random_block(ld, p, 8);
    const MatrixView<double> xv(xr.data(), n, p, ld);
    b.kernel("trsm", "right n=9216 p=8", [&](const KernelExecutor* ex) {
      trsm_right_upper<double>(r.view(), xv, ex);
    });
  }

  // Fused reductions: batched dot and per-column norms.
  {
    const index_t rn = 1 << 19;
    std::vector<double> x(static_cast<size_t>(rn)), y(static_cast<size_t>(rn));
    Rng rng(9);
    for (auto& v : x) v = rng.scalar<double>();
    for (auto& v : y) v = rng.scalar<double>();
    b.kernel("dot", "n=524288", [&](const KernelExecutor* ex) {
      volatile double s = real_part(dot<double>(rn, x.data(), y.data(), ex));
      (void)s;
    });
    const index_t p = 8;
    const DenseMatrix<double> m = random_block(n, p, 10);
    std::vector<double> norms(static_cast<size_t>(p));
    b.kernel("norms", "cols n=9216 p=8", [&](const KernelExecutor* ex) {
      column_norms<double>(m.view(), norms.data(), ex);
    });
  }

  // Alloc churn: the workspace-hoisting claim of DESIGN.md §11, measured.
  // Every row must be exactly 0 allocations per steady-state iteration;
  // bench_check fails the gate on anything else. Budgets are chosen so the
  // short and long runs end inside the same restart cycle (restart 30,
  // GCRO-DR cycle 2 has 30 - 4 = 26 steps): the counted difference is
  // 20 interior iterations with no cycle boundary in it.
  {
    const CsrOperator<double> op(a);
    const DenseMatrix<double> rhs = random_block(n, 2, 11);
    const index_t short_budget = 35, long_budget = 55;

    SolverWorkspace<double> ws_gmres;
    const double gmres_churn = alloc_churn_per_iteration(
        [&](index_t budget) {
          SolverOptions o;
          o.restart = 30;
          o.tol = 0.0;  // never converges: the budget decides the length
          o.max_iterations = budget;
          o.record_history = false;
          o.recovery.early_restart = false;  // keep cycle boundaries fixed
          o.workspace = &ws_gmres;
          DenseMatrix<double> x(n, 2);
          block_gmres<double>(op, nullptr, rhs.view(), x.view(), o);
        },
        short_budget, long_budget);
    b.entries.push_back(
        {"alloc_churn", "gmres(30) steady p=2", 0, gmres_churn, int(long_budget - short_budget)});

    // GCRO-DR on the block cycle, then on the fused lane cycle.
    for (const bool lanes : {false, true}) {
      SolverWorkspace<double> ws;
      const double churn = alloc_churn_per_iteration(
          [&](index_t budget) {
            SolverOptions o;
            o.restart = 30;
            o.recycle = 4;
            o.tol = 0.0;
            o.max_iterations = budget;
            o.record_history = false;
            o.recovery.early_restart = false;
            o.workspace = &ws;
            // A fresh solver per run keeps the counted solves structurally
            // identical (first cycle + Ritz seed + projected cycle); the
            // workspace outside carries the steady-state capacity.
            DenseMatrix<double> x(n, 2);
            if (lanes)
              PseudoGcroDr<double>(o).solve(op, nullptr, rhs.view(), x.view());
            else
              GcroDr<double>(o).solve(op, nullptr, rhs.view(), x.view());
          },
          short_budget, long_budget);
      b.entries.push_back({"alloc_churn",
                           lanes ? "pseudo_gcrodr(30,4) steady p=2" : "gcrodr(30,4) steady p=2", 0,
                           churn, int(long_budget - short_budget)});
    }
  }

  // The AMG V-cycle with the GMRES(1) smoother of the fig-2 workload, the
  // CG(4) smoother of fig. 3 and the default Chebyshev(3) smoother:
  // allocations per apply once the first
  // apply has shaped every level's buffers, the smoothers' cycles and
  // their workspaces.
  for (const auto& [smoother, iterations, shape] :
       {std::tuple{AmgSmoother::Gmres, index_t(1), "amg_vcycle gmres(1) steady p=1"},
        std::tuple{AmgSmoother::Cg, index_t(4), "amg_vcycle cg(4) steady p=1"},
        std::tuple{AmgSmoother::Chebyshev, index_t(3), "amg_vcycle chebyshev(3) steady p=1"}}) {
    AmgOptions amg;
    amg.threshold = 0.02;
    amg.smoother = smoother;
    amg.smoother_iterations = iterations;
    AmgPreconditioner<double> m(a, amg);
    const DenseMatrix<double> r = random_block(n, 1, 15);
    DenseMatrix<double> z(n, 1);
    m.apply(r.view(), z.view());  // warm-up
    const int applies = 20;
    const std::uint64_t a0 = g_alloc_count.load();
    for (int i = 0; i < applies; ++i) m.apply(r.view(), z.view());
    const double churn = double(g_alloc_count.load() - a0) / double(applies);
    b.entries.push_back({"alloc_churn", shape, 0, churn, applies});
  }

  // One V-cycle of the poisson-amg-recycle benchmark workload: its
  // contrast-500 Poisson matrix on the 256^2 grid, threshold 0.02, the
  // GMRES(1) smoother. Serial seconds per apply (AMG has no executor
  // path).
  {
    const CsrMatrix<double> pa = poisson2d_varcoef(256, 256, 500.0, 24);
    AmgOptions amg;
    amg.threshold = 0.02;
    amg.smoother = AmgSmoother::Gmres;
    amg.smoother_iterations = 1;
    AmgPreconditioner<double> m(pa, amg);
    const DenseMatrix<double> r = random_block(pa.rows(), 1, 23);
    DenseMatrix<double> z(pa.rows(), 1);
    m.apply(r.view(), z.view());  // shape the buffers outside the timing
    b.kernel("amg", "vcycle poisson256 gmres(1)",
             [&](const KernelExecutor*) { m.apply(r.view(), z.view()); }, {});
  }

  // Complex kernels at the shapes of the maxwell-block-mrhs benchmark
  // workload (fig. 8: block GCRO-DR(20,5) over 8 antenna right-hand sides
  // with ORAS(16) on the grid-6 chamber). s = 8 * 21 = 168 basis columns;
  // the deflation pencil has order 152. Serial and one-lane rows only.
  {
    using cplx = std::complex<double>;
    const std::vector<index_t> one_lane{1};
    const index_t cn = 450, s = 168, p = 8;
    const DenseMatrix<cplx> v = random_block<cplx>(cn, s, 16);
    const DenseMatrix<cplx> w = random_block<cplx>(cn, p, 17);
    DenseMatrix<cplx> h(s, p);
    b.kernel("gemm", "proj CN complex n=450 s=168 p=8", [&](const KernelExecutor* ex) {
      gemm<cplx>(Trans::C, Trans::N, 1.0, v.view(), w.view(), 0.0, h.view(), ex);
    }, one_lane);
    const DenseMatrix<cplx> coef = random_block<cplx>(s, p, 18);
    DenseMatrix<cplx> upd(cn, p);
    b.kernel("gemm", "update NN complex n=450 s=168 p=8", [&](const KernelExecutor* ex) {
      gemm<cplx>(Trans::N, Trans::N, 1.0, v.view(), coef.view(), 0.0, upd.view(), ex);
    }, one_lane);

    // The same two products at the width of fig. 8's 32-wide alternatives
    // (ROADMAP item 11): the chamber's 7098 unknowns, p = 32, and s = 160
    // basis columns (five block steps).
    {
      const index_t fn = 7098, fs = 160, fp = 32;
      const DenseMatrix<cplx> fv = random_block<cplx>(fn, fs, 26);
      const DenseMatrix<cplx> fw = random_block<cplx>(fn, fp, 27);
      DenseMatrix<cplx> fh(fs, fp);
      b.kernel("gemm", "proj CN complex n=7098 s=160 p=32", [&](const KernelExecutor* ex) {
        gemm<cplx>(Trans::C, Trans::N, 1.0, fv.view(), fw.view(), 0.0, fh.view(), ex);
      }, one_lane);
      const DenseMatrix<cplx> fcoef = random_block<cplx>(fs, fp, 28);
      DenseMatrix<cplx> fupd(fn, fp);
      b.kernel("gemm", "update NN complex n=7098 s=160 p=32", [&](const KernelExecutor* ex) {
        gemm<cplx>(Trans::N, Trans::N, 1.0, fv.view(), fcoef.view(), 0.0, fupd.view(), ex);
      }, one_lane);
    }

    const MaxwellProblem chamber = bench::chamber_problem(6, /*with_plastic_cylinder=*/true);
    SchwarzOptions oras;
    oras.subdomains = 16;
    oras.overlap = 2;
    oras.kind = SchwarzKind::Oras;
    oras.impedance = 0.5;

    // One subdomain solve of that ORAS: the Dirichlet matrix of the
    // largest overlapping subdomain (the impedance shift of ORAS changes
    // diagonal values, not the factor's structure), 8 right-hand sides.
    {
      const OverlappingDecomposition dec =
          make_decomposition(adjacency_of(chamber.matrix), oras.subdomains, oras.overlap);
      size_t big = 0;
      for (size_t i = 1; i < dec.rows.size(); ++i)
        if (dec.rows[i].size() > dec.rows[big].size()) big = i;
      const SparseLDLT<cplx> ldlt(extract_submatrix(chamber.matrix, dec.rows[big]));
      const DenseMatrix<cplx> rhs = random_block<cplx>(ldlt.n(), p, 19);
      DenseMatrix<cplx> x(ldlt.n(), p), scratch;
      b.kernel("ldlt", "solve complex oras-sub p=8", [&](const KernelExecutor* ex) {
        copy_into<cplx>(rhs.view(), x.view());
        ldlt.solve(x.view(), scratch, ex == nullptr ? 1 : ex->lanes());
      }, one_lane);
    }

    // The whole ORAS(16) apply of the workload to a block of 8: sixteen
    // gathers into factor order, subdomain solves and weighted scatters.
    // Serial subdomain loop, as the workload runs it; apply has no
    // executor path, so its one-lane row times the same code.
    {
      SchwarzOptions serial = oras;
      serial.parallel = false;
      SchwarzPreconditioner<cplx> m(chamber.matrix, serial);
      const DenseMatrix<cplx> r = random_block<cplx>(chamber.nfree, p, 25);
      DenseMatrix<cplx> z(chamber.nfree, p);
      m.apply(r.view(), z.view());  // shape the buffers outside the timing
      b.kernel("oras", "apply chamber p=8",
               [&](const KernelExecutor*) { m.apply(r.view(), z.view()); }, one_lane);
    }

    // The deflation eigenproblem of a GCRO-DR restart: the 40 smallest
    // generalized eigenvectors of an order-152 pencil (dense LU, Hessenberg
    // reduction, shifted QR, back substitution). eig has no executor path;
    // its one-lane row times the same serial code.
    {
      const index_t en = 152;
      const DenseMatrix<cplx> t = random_block<cplx>(en, en, 20);
      DenseMatrix<cplx> wp = random_block<cplx>(en, en, 21);
      for (index_t j = 0; j < en; ++j) {
        for (index_t i = 0; i < en; ++i) wp(i, j) *= 0.1;
        wp(j, j) += 1.0;
      }
      b.kernel("eig", "deflation complex n=152", [&](const KernelExecutor*) {
        const DenseMatrix<cplx> y = smallest_gen_eig_vectors<cplx>(t, wp, 40);
        volatile double sink = y(0, 0).real();
        (void)sink;
      }, one_lane);
    }

    // The same step at GCRO-DR(30,10), which bkr_serve's gcrodr requests
    // run at every restart: 10 real-span vectors of a real order-30 pencil,
    // promoted to complex inside the eigensolve.
    {
      const index_t en = 30;
      const DenseMatrix<double> t = random_block<double>(en, en, 23);
      DenseMatrix<double> wp = random_block<double>(en, en, 24);
      for (index_t j = 0; j < en; ++j) {
        for (index_t i = 0; i < en; ++i) wp(i, j) *= 0.1;
        wp(j, j) += 1.0;
      }
      b.kernel("eig", "deflation real n=30", [&](const KernelExecutor*) {
        const DenseMatrix<double> y = smallest_gen_eig_vectors<double>(t, wp, 10);
        volatile double sink = y(0, 0);
        (void)sink;
      }, one_lane);
    }

    // Allocations per ORAS(16) apply to a block of 8 once the first apply
    // has shaped every subdomain's buffers. Serial subdomain loop, as in
    // the benchmark workload: the pooled loop hands its body to the pool
    // as a std::function, which allocates per dispatch.
    {
      oras.parallel = false;
      SchwarzPreconditioner<cplx> m(chamber.matrix, oras);
      const DenseMatrix<cplx> r = random_block<cplx>(chamber.nfree, p, 22);
      DenseMatrix<cplx> z(chamber.nfree, p);
      m.apply(r.view(), z.view());  // warm-up
      const int applies = 20;
      const std::uint64_t a0 = g_alloc_count.load();
      for (int i = 0; i < applies; ++i) m.apply(r.view(), z.view());
      const double churn = double(g_alloc_count.load() - a0) / double(applies);
      b.entries.push_back({"alloc_churn", "schwarz_oras apply p=8", 0, churn, applies});
    }
  }

  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "bench_kernels: cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::vector<std::vector<bench::BenchField>> rows;
  for (const bench::KernelBenchEntry& e : b.entries)
    rows.push_back({{"kernel", e.kernel}, {"shape", e.shape}, {"threads", e.threads},
                    {"median_seconds", e.median_seconds}, {"reps", e.reps}});
  bench::write_bench_json(out,
                          {{"schema", "bkr-bench-kernels-1"},
                           {"mode", smoke ? "smoke" : "full"},
                           {"hardware_lanes", index_t(std::thread::hardware_concurrency())},
                           {"complex_register_bytes", index_t(creg::host_width())},
                           {"calibration_seconds", calibration}},
                          rows);
  std::printf("bench_kernels: wrote %zu entries (%s, reps=%d, calibration %.3e s) to %s\n",
              b.entries.size(), smoke ? "smoke" : "full", reps, calibration, out_path.c_str());
  return 0;
}
