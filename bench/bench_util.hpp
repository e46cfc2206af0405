// Shared helpers for the paper-reproduction benchmark binaries.
//
// Every binary prints the rows/series of one table or figure of the
// paper's evaluation (see DESIGN.md experiment index); these helpers keep
// the output format consistent so EXPERIMENTS.md can quote it directly.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "core/solver.hpp"
#include "fem/maxwell3d.hpp"
#include "obs/trace.hpp"
#include "precond/schwarz.hpp"

namespace bkr::bench {

inline void header(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

// Print a convergence history as "iteration relative_residual" pairs,
// downsampled to at most `max_points` rows (gnuplot-ready).
inline void print_history(const std::string& label, const std::vector<double>& history,
                          size_t max_points = 40) {
  std::printf("# convergence %s (%zu iterations)\n", label.c_str(),
              history.empty() ? size_t(0) : history.size() - 1);
  const size_t stride = std::max<size_t>(1, history.size() / max_points);
  for (size_t i = 0; i < history.size(); i += stride)
    std::printf("%6zu  %10.3e\n", i, history[i]);
  if (!history.empty() && (history.size() - 1) % stride != 0)
    std::printf("%6zu  %10.3e\n", history.size() - 1, history.back());
}

// Per-RHS time/gain rows of figs. 2-3: "rhs time gain%".
inline void print_gain_rows(const std::vector<double>& baseline,
                            const std::vector<double>& candidate) {
  double base_total = 0, cand_total = 0;
  for (size_t i = 0; i < baseline.size(); ++i) {
    const double gain = 100.0 * (baseline[i] - candidate[i]) / baseline[i];
    std::printf("  rhs %zu: baseline %8.4f s   candidate %8.4f s   gain %+6.1f%%\n", i + 1,
                baseline[i], candidate[i], gain);
    base_total += baseline[i];
    cand_total += candidate[i];
  }
  std::printf("  cumulative gain: %+.1f%%  (baseline %.4f s, candidate %.4f s)\n",
              100.0 * (base_total - cand_total) / base_total, base_total, cand_total);
}

// Per-phase seconds/counts accumulated by a SolverTrace over a bench
// series — the "where does the time go" companion to the gain rows.
inline void print_phase_breakdown(const std::string& label, const obs::SolverTrace& trace) {
  std::printf("# phase breakdown %s (%.4f s instrumented of %.4f s total)\n", label.c_str(),
              trace.total_phase_seconds(), trace.total_solve_seconds());
  for (int ph = 0; ph < obs::kPhaseCount; ++ph) {
    const auto totals = trace.phase_totals(static_cast<obs::Phase>(ph));
    if (totals.count == 0 && totals.seconds == 0) continue;
    std::printf("  %-20s %10.4f s  x%lld\n", obs::phase_name(static_cast<obs::Phase>(ph)),
                totals.seconds, static_cast<long long>(totals.count));
  }
}

// The Maxwell "imaging chamber" analogue used by figs. 4, 7 and 8
// (documented substitution in DESIGN.md): unit cube filled with the
// dissipative matching medium, optionally with the plastic cylinder of
// section V-C.
inline MaxwellProblem chamber_problem(index_t grid, bool with_plastic_cylinder = false,
                                      double wavelengths = 2.0) {
  MaxwellConfig cfg;
  cfg.n = grid;
  cfg.wavelengths = wavelengths;
  cfg.eps_r = 1.0;
  cfg.loss = 0.15;  // dissipative matching solution
  if (with_plastic_cylinder) {
    cfg.inclusion_radius = 0.21;  // 12 cm cylinder in a ~56 cm chamber
    cfg.inclusion_eps_r = 3.0;
  }
  return maxwell3d(cfg);
}

// --- machine-readable kernel-bench trajectory (BENCH_kernels.json) --------
//
// bench_kernels emits one JSON document per run under the schema
// "bkr-bench-kernels-1"; tools/bench_check validates it and gates wall-time
// regressions against the committed baseline. Entries are keyed by
// (kernel, shape, threads) — threads == 0 is the legacy serial path with
// no executor attached — so runs at different sizes never collide.
// `calibration_seconds` (a fixed serial probe timed alongside the
// kernels) lets the checker normalize away absolute machine speed and
// compare trajectories across hosts.

struct KernelBenchEntry {
  std::string kernel;  // "spmv", "spmm", "gemm", "herk", "dot", "norms", "trsm", "ldlt", "eig",
                       // "amg", "oras", "alloc_churn"
  std::string shape;   // stable human-readable case id, part of the match key
  index_t threads = 0;  // executor lanes; 0 = legacy serial (ex == nullptr)
  double median_seconds = 0;
  int reps = 0;
};

inline double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
}

// Median wall time of `reps` runs of fn() (one untimed warmup first).
template <class Fn>
double time_median(int reps, Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();
  std::vector<double> samples;
  samples.reserve(size_t(reps));
  for (int r = 0; r < reps; ++r) {
    const auto t0 = clock::now();
    fn();
    samples.push_back(std::chrono::duration<double>(clock::now() - t0).count());
  }
  return median_of(std::move(samples));
}

// One `"key": value` pair of a bench document, the value already in JSON
// text: strings escaped and quoted, timings as %.9e.
struct BenchField {
  BenchField(const char* k, const std::string& v) : key(k), text('"' + json::escape(v) + '"') {}
  BenchField(const char* k, const char* v) : BenchField(k, std::string(v)) {}
  BenchField(const char* k, bool v) : key(k), text(v ? "true" : "false") {}
  BenchField(const char* k, int v) : key(k), text(std::to_string(v)) {}
  BenchField(const char* k, index_t v) : key(k), text(std::to_string(v)) {}
  BenchField(const char* k, double v) : key(k) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9e", v);
    text = buf;
  }
  std::string key;
  std::string text;  // the value as JSON
};

// The one writer of the BENCH_*.json documents tools/bench_check reads:
// the header fields one per line, then "entries", one object per line.
inline void write_bench_json(std::ostream& os, const std::vector<BenchField>& head,
                             const std::vector<std::vector<BenchField>>& entries) {
  os << "{\n";
  for (const BenchField& f : head) os << "  \"" << f.key << "\": " << f.text << ",\n";
  os << "  \"entries\": [\n";
  for (size_t i = 0; i < entries.size(); ++i) {
    os << "    {";
    for (size_t j = 0; j < entries[i].size(); ++j)
      os << (j == 0 ? "\"" : ", \"") << entries[i][j].key << "\": " << entries[i][j].text;
    os << "}" << (i + 1 < entries.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

inline SchwarzOptions chamber_oras(index_t subdomains, index_t overlap = 2,
                                   double impedance = 0.5) {
  SchwarzOptions o;
  o.subdomains = subdomains;
  o.overlap = overlap;
  o.kind = SchwarzKind::Oras;
  o.impedance = impedance;
  return o;
}

}  // namespace bkr::bench
