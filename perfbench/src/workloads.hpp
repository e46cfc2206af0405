// The benchmark's workloads: what each one runs, why it exists, and which
// layer of the library it loads or bypasses.
//
// Layers are the repository modules: fem (problem assembly), precond (AMG,
// Schwarz ORAS; ORAS setup includes the direct subdomain LU), sparse (CSR
// operator apply), core (Krylov solvers, recycling, RecycleCache; its
// ortho and small-dense phases run the la kernels), and capi + serve
// (tools/bkr_serve: admission, queue, batching, per-batch session).
//
// Every workload makes its inputs from --seed alone, measures for
// --seconds after set-up, and checks every answer: the benchmark
// recomputes the true relative residual ||b - A x|| / ||b|| with its own
// CSR loop (not the library's apply) and compares it with the tolerance.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "report.hpp"

namespace perfbench {

struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;       // tiny sizes for the benchmark's own tests
  std::string trace_out;    // traced run: spans + solver phases land here
  std::string serve_bin;    // path of the bkr_serve executable
};

// Deterministic input generator (splitmix64): the same seed gives the
// same inputs on every platform, independent of <random> distributions.
class InputRng {
 public:
  explicit InputRng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return double(next() >> 11) * 0x1.0p-53; }  // [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  size_t index(size_t n) { return size_t(next() % n); }
  template <class V>
  void shuffle(V& v) {
    for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[index(i)]);
  }

 private:
  uint64_t state_;
};

// --- poisson-amg-recycle ----------------------------------------------------
// Why: the fig-2 shape. One heterogeneous 2-D Poisson matrix (contrast-500
// inclusions) is solved against a seeded sequence of poisson2d_rhs sources
// by ONE FGCRO-DR(30,10) object with same_system, width 1, preconditioned
// by AMG with a GMRES smoother (variable, hence flexible). The
// preconditioner does most of the work; block-ortho kernels do little
// because the width is 1; recycling (restart_eig, requalification) runs
// on every right-hand side after the first.
// Loads: fem, precond (AMG), sparse, core. Bypasses: capi, serve, direct.
struct PoissonRecycleSpec {
  bkr::index_t grid;          // grid x grid unknowns
  double contrast = 500.0;
  bkr::index_t inclusions = 24;
  bkr::index_t smoother_iterations = 1;  // GMRES(1) smoother: the weak AMG of fig. 2
  bkr::index_t restart = 30;
  bkr::index_t recycle = 10;
  double tol = 1e-8;
  int setups;                 // set-up repetitions; setup_s is their median
  // Raw times, not calibrated (calibrate.hpp): the ~90 MB working set
  // streams from memory, and the in-cache speed probe does not track it.
  // In one ten-seed set the raw median sequence wall spread by 5% (IQR /
  // median) while the probe's mean time spread by 24%, and the calibrated
  // solve_s by 15%.
  bool calibrate = false;
  // Source widths nu of the sequence. The first stays first; the seed
  // orders the rest and jitters each width by up to +-10%, so every seed
  // solves the same kind of sequence.
  std::vector<double> nus;
};

inline PoissonRecycleSpec poisson_recycle_spec(bool smoke) {
  PoissonRecycleSpec s;
  s.grid = smoke ? 48 : 256;
  s.setups = smoke ? 2 : 15;
  s.nus = smoke ? std::vector<double>{0.1, 10.0, 0.001}
                : std::vector<double>{0.1, 10.0, 0.001, 100.0, 0.03, 3.0, 0.01, 30.0};
  return s;
}

// --- maxwell-block-mrhs -----------------------------------------------------
// Why: the fig-8 alternative 7 shape at a gate-sized scale. The complex
// Maxwell chamber with the plastic cylinder, ORAS(16) Schwarz, and the 32
// antenna right-hand sides, solved as consecutive block GCRO-DR(20,5)
// solves of 8 RHS each by one solver object (same_system). Block
// orthogonalization (gemm/herk/trsm in la) and the complex deflation
// eigenproblem dominate core self-time; the ORAS apply stresses the
// direct triangular solves (run on one lane, like the rest of the
// solver workloads); the same core engine runs in block layout, unlike
// poisson-amg-recycle.
// Loads: fem, precond (Schwarz + direct), sparse, core. Bypasses: capi, serve.
struct MaxwellBlockSpec {
  bkr::index_t grid;          // chamber cells per direction
  bkr::index_t subdomains = 16;
  bkr::index_t overlap = 2;
  double impedance = 0.5;
  bkr::index_t antennas = 32;  // the seed permutes them into blocks
  bkr::index_t block_width = 8;
  bkr::index_t restart = 20;
  bkr::index_t recycle = 5;
  double tol = 1e-8;
  int setups;                 // set-up repetitions; setup_s is their calibrated median
  // Calibrated times (calibrate.hpp): the ~14 MB working set runs from the
  // caches, where the host's speed states act. In one ten-seed set the raw
  // median sequence wall spread by 15% (IQR / median) and the calibrated
  // solve_s by 2%.
  bool calibrate = true;
};

inline MaxwellBlockSpec maxwell_block_spec(bool smoke) {
  MaxwellBlockSpec s;
  s.grid = 6;
  s.subdomains = smoke ? 4 : 16;
  s.antennas = smoke ? 8 : 32;
  s.block_width = smoke ? 4 : 8;
  s.setups = smoke ? 2 : 41;  // a set-up takes ~10 ms: many, for a steady median
  return s;
}

// --- serve-open-loop --------------------------------------------------------
// Why: the only workload that exercises admission, queueing, batching,
// capi sessions and RecycleCache traffic (warm-start reads beside the
// deposits every session makes when destroyed). One generator process
// spawns bkr_serve over its stdin/stdout pipe and sends a seeded OPEN-LOOP
// arrival schedule at a fixed offered rate below saturation (one arrival
// in each equal slot of the span), each request timed from when it was
// due. Client model: open loop at 40 arrivals/s over 0.85 x --seconds; at
// --seconds 40 that is 1360 arrivals carrying 1631 requests (136 of the
// arrivals are hold groups). Capacity of this mix on the 2-worker server, measured with
// 17 s schedules at rising rates (4-vCPU KVM guest, Xeon model 207): the
// median queue wait stays ~1.5 ms up to 60 arrivals/s, reaches 35 ms at
// 80/s, and at 110/s the server refuses 9% of requests as overloaded. So
// saturation lies between 60 and 80 arrivals/s, and 40/s is about 55% of
// it: a slowdown shows as queue wait before goodput falls. The mix spreads
// over a few poisson2d:N operator specs, over tenants (so the default
// tenant_cap of 8 refuses only under real overload), over the methods
// gmres, gcrodr, pseudo_gcrodr and lgmres, and over hold+flush groups
// that the server turns into block batches. Solves are unpreconditioned,
// so precond is bypassed and sparse + ortho carry each solve; the
// pseudo-block and LGMRES paths run here and nowhere else.
// Loads: capi, serve, core (RecycleCache), sparse, fem (registry and the
// verifier's operators). Bypasses: precond, direct.
struct ServeSpec {
  std::vector<bkr::index_t> grids;  // operator specs "poisson2d:<grid>"
  std::vector<std::string> methods;
  int tenants = 12;
  double rate_rps;                  // offered arrival rate (open loop)
  double schedule_share = 0.85;     // share of --seconds the schedule spans
  double group_share = 0.1;         // arrivals that are a hold+flush group
  int group_min = 2, group_max = 4;
  double tol = 1e-8;
  double latency_limit_ms;          // goodput counts responses within this
  int setups;                       // server spawns; setup_s is their calibrated median
  int max_workers = 2;              // never more than nproc - 1
  // Calibrated set-up and latencies (calibrate.hpp): the operators are small
  // and run from the caches; the probe samples on the generator meanwhile.
  bool calibrate = true;
};

inline ServeSpec serve_spec(bool smoke) {
  ServeSpec s;
  s.grids = smoke ? std::vector<bkr::index_t>{12, 16} : std::vector<bkr::index_t>{24, 32, 40};
  s.methods = {"gmres", "gcrodr", "pseudo_gcrodr", "lgmres"};
  s.rate_rps = smoke ? 20.0 : 40.0;
  s.latency_limit_ms = 250.0;
  s.setups = smoke ? 2 : 15;
  return s;
}

RunResult run_poisson_amg_recycle(const RunArgs& args);
RunResult run_maxwell_block_mrhs(const RunArgs& args);
RunResult run_serve_open_loop(const RunArgs& args);

}  // namespace perfbench
