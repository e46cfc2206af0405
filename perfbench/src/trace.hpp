// Tracing for the traced benchmark run: in-memory spans recorded around
// every call into a library layer, and timing decorators that implement
// the public LinearOperator / Preconditioner interfaces so the operator
// and preconditioner handed to a solver are timed from outside the
// library. Spans stay in memory and are written once, when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "core/operator.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Spans of one run. A span names a layer call, its interval, the span
// that caused it (-1 for a root) and the solve or request id it serves.
// Disabled recorders (untraced runs) keep nothing.
class SpanRecorder {
 public:
  struct Span {
    const char* name;  // static string: "fem.assemble", "sparse.apply", ...
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    int64_t id;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1 << 16);
  }

  // Records a finished span and returns its index (-1 when disabled).
  int32_t add(const char* name, Clock::time_point start, Clock::time_point end, int32_t parent,
              int64_t id) {
    if (!enabled_) return -1;
    spans_.push_back({name, ns(start), ns(end), parent, id});
    return int32_t(spans_.size() - 1);
  }
  // Opens a span whose end is filled in by close(); children recorded in
  // between may name it as their parent.
  int32_t open(const char* name, Clock::time_point start, int32_t parent, int64_t id) {
    return add(name, start, start, parent, id);
  }
  void close(int32_t index, Clock::time_point end) {
    if (index >= 0) spans_[size_t(index)].end_ns = ns(end);
  }
  // Duration of a recorded span in nanoseconds (0 for -1).
  [[nodiscard]] int64_t duration_ns(int32_t index) const {
    if (index < 0) return 0;
    const Span& s = spans_[size_t(index)];
    return s.end_ns - s.start_ns;
  }

  // JSON array of the spans, one object per line.
  void write_json(std::FILE* out) const {
    std::fprintf(out, "\"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, \"parent\": %d, "
                   "\"id\": %lld}%s\n",
                   s.name, static_cast<long long>(s.start_ns), static_cast<long long>(s.end_ns),
                   s.parent, static_cast<long long>(s.id), i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(out, "]");
  }

 private:
  [[nodiscard]] int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// Busy time, call count and columns processed by one layer.
struct LayerTally {
  double seconds = 0;
  int64_t calls = 0;
  int64_t cols = 0;

  void record(Clock::time_point start, Clock::time_point end, bkr::index_t columns) {
    seconds += seconds_between(start, end);
    ++calls;
    cols += columns;
  }
};

// Parent span and solve id that decorator spans attach to; the solver
// loop points it at the span of the solve in progress.
struct SpanContext {
  int32_t parent = -1;
  int64_t id = -1;
};

template <class T>
class TimedOperator final : public bkr::LinearOperator<T> {
 public:
  TimedOperator(const bkr::LinearOperator<T>& inner, SpanRecorder& rec, const SpanContext& ctx)
      : inner_(inner), rec_(rec), ctx_(ctx) {}

  [[nodiscard]] bkr::index_t n() const override { return inner_.n(); }
  void apply(bkr::MatrixView<const T> x, bkr::MatrixView<T> y) const override {
    const auto t0 = Clock::now();
    inner_.apply(x, y);
    const auto t1 = Clock::now();
    tally_.record(t0, t1, x.cols());
    rec_.add("sparse.apply", t0, t1, ctx_.parent, ctx_.id);
  }

  [[nodiscard]] const LayerTally& tally() const { return tally_; }

 private:
  const bkr::LinearOperator<T>& inner_;
  SpanRecorder& rec_;
  const SpanContext& ctx_;
  mutable LayerTally tally_;
};

template <class T>
class TimedPreconditioner final : public bkr::Preconditioner<T> {
 public:
  TimedPreconditioner(bkr::Preconditioner<T>& inner, SpanRecorder& rec, const SpanContext& ctx)
      : inner_(inner), rec_(rec), ctx_(ctx) {}

  [[nodiscard]] bkr::index_t n() const override { return inner_.n(); }
  [[nodiscard]] bool is_variable() const override { return inner_.is_variable(); }
  void apply(bkr::MatrixView<const T> r, bkr::MatrixView<T> z) override {
    const auto t0 = Clock::now();
    inner_.apply(r, z);
    const auto t1 = Clock::now();
    tally_.record(t0, t1, r.cols());
    rec_.add("precond.apply", t0, t1, ctx_.parent, ctx_.id);
  }

  [[nodiscard]] const LayerTally& tally() const { return tally_; }

 private:
  bkr::Preconditioner<T>& inner_;
  SpanRecorder& rec_;
  const SpanContext& ctx_;
  LayerTally tally_;
};

// SolverTrace phase totals of one solve, keyed by the solve's span id.
struct PhaseRecord {
  int64_t solve_id = 0;
  double seconds[bkr::obs::kPhaseCount] = {};
  int64_t counts[bkr::obs::kPhaseCount] = {};
};

// The traced run's single output file: every span, then the SolverTrace
// phases attached to each solve (empty for the serve workload).
inline bool write_trace_file(const std::string& path, const std::string& workload, uint64_t seed,
                             const SpanRecorder& rec, const std::vector<PhaseRecord>& phases) {
  if (path.empty()) return true;
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "{\"schema\": \"bkr-perfbench-trace-1\", \"workload\": \"%s\", \"seed\": %llu,\n",
               workload.c_str(), static_cast<unsigned long long>(seed));
  rec.write_json(out);
  std::fprintf(out, ",\n\"solver_phases\": [\n");
  for (size_t i = 0; i < phases.size(); ++i) {
    std::fprintf(out, "  {\"solve_id\": %lld", static_cast<long long>(phases[i].solve_id));
    for (int p = 0; p < bkr::obs::kPhaseCount; ++p)
      std::fprintf(out, ", \"%s\": {\"s\": %.9g, \"count\": %lld}",
                   bkr::obs::phase_name(static_cast<bkr::obs::Phase>(p)), phases[i].seconds[p],
                   static_cast<long long>(phases[i].counts[p]));
    std::fprintf(out, "}%s\n", i + 1 < phases.size() ? "," : "");
  }
  std::fprintf(out, "]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench
