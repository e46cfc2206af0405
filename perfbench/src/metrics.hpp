// The benchmark's metric vocabulary: every end-to-end metric (untraced
// runs) and every per-layer metric (traced runs), with its unit. The
// names match BENCHMARK.json. Each workload fills the fields its layers
// produce; a layer a workload bypasses reports zero work and zero time.
#pragma once

#include <cstdint>
#include <string>

#include "obs/trace.hpp"
#include "report.hpp"

namespace perfbench {

// Seen by a user of the library or the server. Times marked (cal) are
// converted to the reference host speed (calibrate.hpp).
struct EndToEnd {
  // (cal) median of assembly + preconditioner (solvers); spawn to warm (serve)
  double setup_s = 0;
  // (cal) mean wall of one RHS sequence (solvers); schedule start to last
  // response, wall time (serve)
  double solve_s = 0;
  // (cal) over the sequence's solve calls, each call's mean time (solvers);
  // over requests, due time to response (serve)
  double latency_p50_ms = 0;
  double latency_p90_ms = 0;
  // verified solutions per second of solve_s (serve: within the latency limit)
  double goodput_rps = 0;
  double peak_rss_mb = 0;  // process doing the solves (serve: the server child)
};

inline void report(RunResult& out, const EndToEnd& e) {
  out.set("setup_s", e.setup_s, "s");
  out.set("solve_s", e.solve_s, "s");
  out.set("latency_p50_ms", e.latency_p50_ms, "ms");
  out.set("latency_p90_ms", e.latency_p90_ms, "ms");
  out.set("goodput_rps", e.goodput_rps, "1/s");
  out.set("peak_rss_mb", e.peak_rss_mb, "MB");
}

// SolverTrace phases that make up core self-time (the operator and
// preconditioner phases are measured by the timing decorators instead).
inline constexpr bkr::obs::Phase kCorePhases[] = {
    bkr::obs::Phase::OrthoProjection, bkr::obs::Phase::OrthoNormalization,
    bkr::obs::Phase::Reduction,       bkr::obs::Phase::SmallDense,
    bkr::obs::Phase::RestartEig,
};
inline constexpr int kCorePhaseCount = 5;

// Work, busy time and outcomes of single layers. Solver-workload values
// are per RHS sequence (medians over the traced sequences of a run).
struct Layers {
  double fem_assemble_s = 0;
  double precond_setup_s = 0;
  double precond_apply_s = 0;
  int64_t precond_apply_calls = 0;
  int64_t precond_apply_cols = 0;
  double sparse_apply_s = 0;
  int64_t sparse_apply_calls = 0;
  int64_t sparse_apply_cols = 0;
  double sparse_computed_gbps = 0;  // bytes computed from nnz and width, not measured
  int64_t core_iterations = 0;
  int64_t core_cycles = 0;
  int64_t core_reductions = 0;
  int64_t core_operator_applies = 0;
  int64_t core_precond_applies = 0;
  double core_self_s = 0;  // solve wall - sparse - precond
  double core_phase_s[kCorePhaseCount] = {};
  int64_t core_phase_count[kCorePhaseCount] = {};
  double serve_solve_ms_p50 = 0;
  double serve_wait_ms_p50 = 0;
  double serve_batch_width_mean = 0;
  int64_t serve_batches = 0;
  int64_t serve_refused = 0;
  double serve_iterations_mean = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double cache_hit_ratio = 0;   // hits / (hits + misses)
  double serve_warm_ratio = 0;  // warm-started / gcrodr-family responses
  double gen_lag_ms_max = 0;
  // traced / untraced solve wall - 1 (serve: 0, spans are built after the schedule)
  double trace_overhead_ratio = 0;
  double trace_coverage = 0;  // attributed layer time / wall it is attributed within
  int64_t latency_samples = 0;
};

inline void report(RunResult& out, const Layers& l) {
  out.set("fem.assemble_s", l.fem_assemble_s, "s");
  out.set("precond.setup_s", l.precond_setup_s, "s");
  out.set("precond.apply_s", l.precond_apply_s, "s");
  out.set("precond.apply_calls", double(l.precond_apply_calls), "count");
  out.set("precond.apply_cols", double(l.precond_apply_cols), "count");
  out.set("sparse.apply_s", l.sparse_apply_s, "s");
  out.set("sparse.apply_calls", double(l.sparse_apply_calls), "count");
  out.set("sparse.apply_cols", double(l.sparse_apply_cols), "count");
  out.set("sparse.computed_gbps", l.sparse_computed_gbps, "GB/s");
  out.set("core.iterations", double(l.core_iterations), "count");
  out.set("core.cycles", double(l.core_cycles), "count");
  out.set("core.reductions", double(l.core_reductions), "count");
  out.set("core.operator_applies", double(l.core_operator_applies), "count");
  out.set("core.precond_applies", double(l.core_precond_applies), "count");
  out.set("core.self_s", l.core_self_s, "s");
  for (int i = 0; i < kCorePhaseCount; ++i) {
    const std::string base = std::string("core.phase.") + bkr::obs::phase_name(kCorePhases[i]);
    out.set(base + "_s", l.core_phase_s[i], "s");
    out.set(base + "_count", double(l.core_phase_count[i]), "count");
  }
  out.set("serve.solve_ms_p50", l.serve_solve_ms_p50, "ms");
  out.set("serve.wait_ms_p50", l.serve_wait_ms_p50, "ms");
  out.set("serve.batch_width_mean", l.serve_batch_width_mean, "count");
  out.set("serve.batches", double(l.serve_batches), "count");
  out.set("serve.refused", double(l.serve_refused), "count");
  out.set("serve.iterations_mean", l.serve_iterations_mean, "count");
  out.set("cache.hits", double(l.cache_hits), "count");
  out.set("cache.misses", double(l.cache_misses), "count");
  out.set("cache.hit_ratio", l.cache_hit_ratio, "ratio");
  out.set("serve.warm_ratio", l.serve_warm_ratio, "ratio");
  out.set("gen.lag_ms_max", l.gen_lag_ms_max, "ms");
  out.set("trace.overhead_ratio", l.trace_overhead_ratio, "ratio");
  out.set("trace.coverage", l.trace_coverage, "ratio");
  out.set("latency.samples", double(l.latency_samples), "count");
}

}  // namespace perfbench
