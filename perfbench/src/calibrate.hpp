// Host-speed calibration for the end-to-end timings.
//
// On a shared host the cores switch between speed states about 2x apart,
// and the share of time spent in the slow state changes from one minute
// to the next. (On a 4-vCPU KVM guest, Xeon model 207, the kernel below
// reads ~0.012 s in the fast state and ~0.022 s in the slow one.) Raw wall
// times of the same work then differ between runs by more than the
// benchmark's bounds. Low quantiles of the walls do no better, because
// they depend on whether a run caught a fast spell, and the fastest spell
// itself is slower in some minutes than in others. This fixed compute
// kernel, timed between the measured samples, sees the same states: over
// a run, the measured time divided by the mean kernel time repeats within
// a few percent. So an end-to-end time is reported as
//
//   measured time x kReferenceSeconds / mean kernel time over the phase,
//
// the time the work takes on a core that runs the kernel in
// kReferenceSeconds (the fast state of the host above). The kernel is the
// benchmark's own code, so a change to the library cannot move it. It
// tracks work that runs from the core's caches; a workload whose working
// set streams from memory does not follow it and keeps raw times (its
// spec says which).
#pragma once

#include <complex>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

class SpeedProbe {
 public:
  static constexpr double kReferenceSeconds = 0.0125;

  // A disabled probe takes no samples, so every factor is 1: raw times.
  explicit SpeedProbe(bool enabled) : enabled_(enabled) {}

  // Runs the kernel once and appends its time to `phase`.
  void sample(std::vector<double>& phase) {
    if (!enabled_) return;
    const auto t0 = Clock::now();
    kernel();
    phase.push_back(seconds_between(t0, Clock::now()));
  }

  // Converts time measured while the `phase` samples were taken into time
  // at the reference speed.
  [[nodiscard]] static double factor(const std::vector<double>& phase) {
    return phase.empty() ? 1.0 : kReferenceSeconds / mean(phase);
  }

 private:
  // Repeated 40 x 40 complex matrix products: in-cache floating-point
  // work, like the solvers' small dense kernels.
  void kernel() {
    constexpr int n = 40;
    a_.resize(n * n);
    b_.resize(n * n);
    c_.resize(n * n);
    for (int i = 0; i < n * n; ++i) {
      a_[size_t(i)] = {1.0 / (i + 1), 0.5};
      b_[size_t(i)] = {0.25, 1.0 / (i + 2)};
    }
    for (int rep = 0; rep < kReps; ++rep) {
      for (int i = 0; i < n; ++i)
        for (int j = 0; j < n; ++j) {
          std::complex<double> acc = 0;
          for (int k = 0; k < n; ++k) acc += a_[size_t(i * n + k)] * b_[size_t(k * n + j)];
          c_[size_t(i * n + j)] = acc;
        }
      a_[size_t(rep % (n * n))] += 1e-9 * c_[size_t(rep * 7 % (n * n))];  // keeps reps dependent
    }
    sink_ = c_[3].real();
  }

  static constexpr int kReps = 100;
  bool enabled_;
  std::vector<std::complex<double>> a_, b_, c_;
  volatile double sink_ = 0;
};

}  // namespace perfbench
