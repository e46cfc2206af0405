// Benchmark harness entry point:
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--trace-out FILE] [--serve-bin PATH]
// Prints a metric table on stderr and, as the last stdout line, the JSON
// result {"correct", "attempted", "failed", "metrics"}. Exits non-zero
// without a result when the arguments are bad or the run cannot proceed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload poisson-amg-recycle|maxwell-block-mrhs|serve-open-loop\n"
               "                 --seed N --seconds S --trace 0|1 [--smoke]\n"
               "                 [--trace-out FILE] [--serve-bin PATH]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') return usage("--seed must be a whole number");
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0) || args.seconds > 120)
        return usage("--seconds must lie in (0, 120]");
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage("--trace must be 0 or 1");
      args.trace = value[0] == '1';
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else if (key == "--serve-bin") {
      args.serve_bin = value;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }

  perfbench::RunResult result;
  try {
    if (args.workload == "poisson-amg-recycle") {
      result = perfbench::run_poisson_amg_recycle(args);
    } else if (args.workload == "maxwell-block-mrhs") {
      result = perfbench::run_maxwell_block_mrhs(args);
    } else if (args.workload == "serve-open-loop") {
      if (args.serve_bin.empty()) return usage("serve-open-loop needs --serve-bin");
      result = perfbench::run_serve_open_loop(args);
    } else {
      return usage(("unknown workload '" + args.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  std::fprintf(stderr, "%s (seed %llu, %s):\n", args.workload.c_str(),
               static_cast<unsigned long long>(args.seed), args.trace ? "traced" : "untraced");
  result.print_table(stderr);
  std::printf("%s\n", result.json().c_str());
  return 0;
}
