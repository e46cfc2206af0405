// Result reporting for the benchmark harness: named metrics with units,
// order statistics, and the one-line JSON result the runner prints last.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = size_t(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (const double x : v) s += x;
  return s / double(v.size());
}

// Outcome of one benchmark run: the operations attempted and failed, the
// reasons any check failed, and every metric by name with its unit.
class RunResult {
 public:
  void set(const std::string& name, double value, const char* unit) {
    if (!std::isfinite(value)) fail_check("metric " + name + " is not finite");
    for (auto& m : metrics_)
      if (m.name == name) {
        m.value = value;
        m.unit = unit;
        return;
      }
    metrics_.push_back({name, value, unit});
  }

  // One operation (a right-hand side solved, a request served) attempted;
  // `ok` is false when it failed, was refused or returned a wrong answer.
  void op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // A check on the measurement itself (counter agreement, trace coverage).
  void fail_check(const std::string& why) { problems_.push_back(why); }

  [[nodiscard]] int64_t attempted() const { return attempted_; }
  [[nodiscard]] int64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }
  [[nodiscard]] bool correct() const {
    return attempted_ > 0 && failed_ == 0 && problems_.empty();
  }

  // Human-readable metric table (stderr) followed by nothing else: the
  // caller prints json() as the last stdout line.
  void print_table(std::FILE* out) const {
    for (const auto& m : metrics_)
      std::fprintf(out, "  %-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    std::fprintf(out, "  ops: %lld attempted, %lld failed\n", static_cast<long long>(attempted_),
                 static_cast<long long>(failed_));
    for (const auto& p : problems_) std::fprintf(out, "  CHECK FAILED: %s\n", p.c_str());
  }

  // The result line. A run that attempted nothing reports one failed
  // attempt, so "attempted" is never 0.
  [[nodiscard]] std::string json() const {
    std::string s = "{\"correct\": ";
    s += correct() ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(std::max<int64_t>(attempted_, 1));
    s += ", \"failed\": " + std::to_string(attempted_ > 0 ? failed_ : 1);
    s += ", \"metrics\": {";
    char buf[64];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const double v = std::isfinite(metrics_[i].value) ? metrics_[i].value : 0.0;
      std::snprintf(buf, sizeof buf, "%.17g", v);
      s += (i == 0 ? "\"" : ", \"") + metrics_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
    }
    s += "}}";
    return s;
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench
