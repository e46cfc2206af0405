#include "obs/trace.hpp"

#include <cstdio>
#include <fstream>
#include <ostream>

#include "common/json.hpp"

namespace bkr::obs {

namespace {

constexpr const char* kPhaseNames[kPhaseCount] = {
    "spmm",      "precond",     "ortho_projection", "ortho_normalization",
    "reduction", "small_dense", "restart_eig",
};

// Shortest round-trip-safe double formatting (%.17g keeps bit identity,
// which the determinism tests rely on).
void json_double(std::ostream& os, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

const char* phase_name(Phase p) { return kPhaseNames[static_cast<int>(p)]; }

SolverTrace::SolveRecord& SolverTrace::current() {
  if (!open_) {
    solves_.emplace_back();
    solves_.back().method = "unknown";
    open_ = true;
  }
  return solves_.back();
}

void SolverTrace::begin_solve(const char* method, index_t n, index_t nrhs) {
  solves_.emplace_back();
  auto& rec = solves_.back();
  rec.method = method == nullptr ? "unknown" : method;
  rec.n = n;
  rec.nrhs = nrhs;
  // Amortize the per-iteration push_back growth: a typical solve logs a
  // few dozen block iterations, so one up-front reservation keeps the
  // event log out of the allocator for the whole solve.
  rec.events.reserve(64);
  open_ = true;
}

void SolverTrace::end_solve(bool converged, index_t iterations, index_t cycles, double seconds) {
  auto& rec = current();
  rec.converged = converged;
  rec.iterations = iterations;
  rec.cycles = cycles;
  rec.seconds = seconds;
  open_ = false;
}

void SolverTrace::phase(Phase p, double seconds, std::int64_t count) {
  auto& totals = current().phases[static_cast<int>(p)];
  totals.seconds += seconds;
  totals.count += count;
}

void SolverTrace::iteration(const IterationEvent& ev) { current().events.push_back(ev); }

void SolverTrace::recovery(const RecoveryEvent& ev) { current().recoveries.push_back(ev); }

void SolverTrace::cache(const CacheEvent& ev) {
  if (cache_events_.capacity() == 0) cache_events_.reserve(16);
  cache_events_.push_back(ev);
}

std::int64_t SolverTrace::cache_event_count(const std::string& action) const {
  std::int64_t n = 0;
  for (const auto& ev : cache_events_) n += ev.action == action ? 1 : 0;
  return n;
}

void SolverTrace::comm(const CommEvent& ev) {
  if (comm_events_.capacity() == 0) comm_events_.reserve(64);
  comm_events_.push_back(ev);
}

std::int64_t SolverTrace::comm_event_count(const std::string& kind) const {
  std::int64_t n = 0;
  for (const auto& ev : comm_events_) n += ev.kind == kind ? 1 : 0;
  return n;
}

std::int64_t SolverTrace::recovery_count() const {
  std::int64_t n = 0;
  for (const auto& rec : solves_) n += static_cast<std::int64_t>(rec.recoveries.size());
  return n;
}

SolverTrace::PhaseTotals SolverTrace::phase_totals(Phase p) const {
  PhaseTotals out;
  for (const auto& rec : solves_) {
    out.seconds += rec.phases[static_cast<int>(p)].seconds;
    out.count += rec.phases[static_cast<int>(p)].count;
  }
  return out;
}

double SolverTrace::total_phase_seconds() const {
  double s = 0;
  for (int p = 0; p < kPhaseCount; ++p) s += phase_totals(static_cast<Phase>(p)).seconds;
  return s;
}

double SolverTrace::total_solve_seconds() const {
  double s = 0;
  for (const auto& rec : solves_) s += rec.seconds;
  return s;
}

void SolverTrace::clear() {
  solves_.clear();
  cache_events_.clear();
  comm_events_.clear();
  open_ = false;
}

void SolverTrace::write_json(std::ostream& os) const {
  os << "{\"schema\":\"bkr-trace-1\",\"solves\":[";
  for (size_t s = 0; s < solves_.size(); ++s) {
    const auto& rec = solves_[s];
    if (s > 0) os << ',';
    os << "{\"method\":\"" << json::escape(rec.method) << "\",\"n\":" << rec.n
       << ",\"nrhs\":" << rec.nrhs << ",\"converged\":" << (rec.converged ? "true" : "false")
       << ",\"iterations\":" << rec.iterations << ",\"cycles\":" << rec.cycles
       << ",\"seconds\":";
    json_double(os, rec.seconds);
    os << ",\"phases\":{";
    for (int p = 0; p < kPhaseCount; ++p) {
      if (p > 0) os << ',';
      os << '"' << kPhaseNames[p] << "\":{\"seconds\":";
      json_double(os, rec.phases[p].seconds);
      os << ",\"count\":" << rec.phases[p].count << '}';
    }
    os << "},\"iterations_log\":[";
    for (size_t e = 0; e < rec.events.size(); ++e) {
      const auto& ev = rec.events[e];
      if (e > 0) os << ',';
      os << "{\"cycle\":" << ev.cycle << ",\"iteration\":" << ev.iteration
         << ",\"basis_size\":" << ev.basis_size << ",\"recycle_dim\":" << ev.recycle_dim
         << ",\"residuals\":[";
      for (size_t c = 0; c < ev.residuals.size(); ++c) {
        if (c > 0) os << ',';
        json_double(os, ev.residuals[c]);
      }
      os << "]}";
    }
    os << "],\"recoveries\":[";
    for (size_t e = 0; e < rec.recoveries.size(); ++e) {
      const auto& ev = rec.recoveries[e];
      if (e > 0) os << ',';
      os << "{\"iteration\":" << ev.iteration << ",\"site\":\"" << json::escape(ev.site)
         << "\",\"action\":\"" << json::escape(ev.action) << "\",\"columns\":" << ev.columns << '}';
    }
    os << "]}";
  }
  os << "]}";
}

void SolverTrace::write_csv(std::ostream& os) const {
  os << "solve,method,phase,seconds,count\n";
  for (size_t s = 0; s < solves_.size(); ++s) {
    const auto& rec = solves_[s];
    for (int p = 0; p < kPhaseCount; ++p) {
      os << s << ',' << rec.method << ',' << kPhaseNames[p] << ',';
      json_double(os, rec.phases[p].seconds);
      os << ',' << rec.phases[p].count << '\n';
    }
  }
}

bool SolverTrace::write_json(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_json(f);
  f << '\n';
  return bool(f);
}

bool SolverTrace::write_csv(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  write_csv(f);
  return bool(f);
}

}  // namespace bkr::obs
