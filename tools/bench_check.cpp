// bench-check: validator and regression gate for the kernel-bench
// trajectory (BENCH_kernels.json, schema "bkr-bench-kernels-1") and the
// sharded SPMD bench (BENCH_sharded.json, schema "bkr-bench-sharded-1").
//
// Modes:
//   bench_check FILE
//       schema validation only: well-formed JSON, required fields,
//       known kernel names, positive calibration, non-empty entries.
//       alloc_churn rows (steady-state allocations per solver iteration,
//       DESIGN.md §11) are gated here at exactly zero — an allocating
//       iterate loop is a contract violation, not a trend to track.
//       Sharded documents are additionally gated on two structural
//       invariants: iteration counts must be identical across shard
//       counts for the same (case, precond) — the bitwise shard-invariance
//       contract of DESIGN.md §13 — and every case solved with the
//       subdomain-deflation coarse space must take strictly fewer
//       iterations than its one-level counterpart.
//   bench_check FILE --baseline BASE [--max-regression 0.25]
//                     [--min-median-seconds 1e-4]
//       additionally compares FILE against BASE entry by entry. Entries
//       match on (kernel, shape, threads); medians are normalized by each
//       file's calibration_seconds so a slower host does not read as a
//       regression. A matched entry fails the gate when its normalized
//       median exceeds the baseline's by more than --max-regression AND
//       the baseline median is at least --min-median-seconds (microsecond
//       timings are too noisy to gate on). (Kernel schema only; sharded
//       documents are gated structurally, not on timings.) The two
//       documents must record one complex_register_bytes, the register
//       width their complex kernels ran at (16 or 32; a document without
//       the field predates the 32-byte kernels and ran at 16): timings
//       across widths measure different code, so the check refuses them
//       and names both widths.
//
// Exit code: 0 valid (and no gated regression), 1 otherwise, 2 usage.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hpp"

namespace {

namespace json = bkr::json;

// --- schema ----------------------------------------------------------------

const char* const kSchema = "bkr-bench-kernels-1";
const char* const kShardedSchema = "bkr-bench-sharded-1";
const char* const kKernels[] = {"spmv", "spmm", "gemm", "herk", "dot",  "norms",
                                "trsm", "ldlt", "eig",  "amg",  "oras", "alloc_churn"};

struct BenchEntry {
  std::string kernel;
  std::string shape;
  long threads = 0;
  double median_seconds = 0;
};

struct BenchDoc {
  double calibration_seconds = 0;
  long complex_register_bytes = 16;
  std::map<std::string, BenchEntry> by_key;  // "kernel|shape|threads"
};

bool known_kernel(const std::string& name) {
  for (const char* k : kKernels)
    if (name == k) return true;
  return false;
}

// A count field: a number in [min, 2^53), so its conversion to long is
// exact and defined.
bool is_count(const json::Value* v, double min) {
  return v != nullptr && v->number >= min && v->number < 9007199254740992.0;
}

bool parse_json_file(const std::string& path, json::Value* root, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  std::string parse_err;
  if (!json::parse(ss.str(), root, &parse_err) || root->type != json::Type::Object) {
    *err = path + ": not a JSON object (" + parse_err + ")";
    return false;
  }
  return true;
}

bool load_doc(const std::string& path, const json::Value& root, BenchDoc* doc,
              std::string* err) {
  const json::Value* schema = root.get("schema", json::Type::String);
  if (schema == nullptr || schema->text != kSchema) {
    *err = path + ": missing or unknown schema (want \"" + std::string(kSchema) + "\")";
    return false;
  }
  const json::Value* cal = root.get("calibration_seconds", json::Type::Number);
  if (cal == nullptr || !(cal->number > 0) || !std::isfinite(cal->number)) {
    *err = path + ": calibration_seconds must be a positive finite number";
    return false;
  }
  doc->calibration_seconds = cal->number;
  if (root.fields.count("complex_register_bytes") != 0) {
    const json::Value* width = root.get("complex_register_bytes", json::Type::Number);
    if (width == nullptr || (width->number != 16 && width->number != 32)) {
      *err = path + ": complex_register_bytes must be 16 or 32";
      return false;
    }
    doc->complex_register_bytes = long(width->number);
  }
  const json::Value* entries = root.get("entries", json::Type::Array);
  if (entries == nullptr || entries->items.empty()) {
    *err = path + ": entries must be a non-empty array";
    return false;
  }
  for (size_t i = 0; i < entries->items.size(); ++i) {
    const json::Value& e = entries->items[i];
    const std::string at = path + ": entries[" + std::to_string(i) + "]";
    if (e.type != json::Type::Object) {
      *err = at + " is not an object";
      return false;
    }
    const json::Value* kernel = e.get("kernel", json::Type::String);
    const json::Value* shape = e.get("shape", json::Type::String);
    const json::Value* threads = e.get("threads", json::Type::Number);
    const json::Value* median = e.get("median_seconds", json::Type::Number);
    const json::Value* reps = e.get("reps", json::Type::Number);
    if (kernel == nullptr ||
        !known_kernel(kernel->text)) {
      *err = at + ": kernel missing or unknown";
      return false;
    }
    if (shape == nullptr || shape->text.empty()) {
      *err = at + ": shape missing";
      return false;
    }
    if (!is_count(threads, 0)) {
      *err = at + ": threads missing or not a count";
      return false;
    }
    if (median == nullptr || median->number < 0 ||
        !std::isfinite(median->number)) {
      *err = at + ": median_seconds missing or invalid";
      return false;
    }
    if (!is_count(reps, 1)) {
      *err = at + ": reps missing or not a count >= 1";
      return false;
    }
    // alloc_churn rows carry steady-state allocations per solver iteration
    // in the value slot, not a timing. The workspace-hoisting contract
    // (DESIGN.md §11) admits exactly zero — any other value means a solver
    // iterate loop touched the allocator, which is a hard failure, not a
    // regression to trend.
    if (kernel->text == "alloc_churn" && median->number != 0.0) {
      std::ostringstream os;
      os << at << ": alloc_churn must be exactly 0 allocations/iteration, got "
         << median->number;
      *err = os.str();
      return false;
    }
    BenchEntry entry{kernel->text, shape->text, long(threads->number), median->number};
    const std::string key =
        entry.kernel + "|" + entry.shape + "|" + std::to_string(entry.threads);
    if (doc->by_key.count(key) != 0) {
      *err = at + ": duplicate entry key " + key;
      return false;
    }
    doc->by_key.emplace(key, std::move(entry));
  }
  return true;
}

// --- sharded schema --------------------------------------------------------

struct ShardedEntry {
  std::string case_name;
  long shards = 0;
  long coarse = 0;  // coarse-space subdomains; 0 means one-level Schwarz
  long iterations = 0;
  bool converged = false;
  double setup_seconds = 0;
  double solve_seconds = 0;
};

// Validates a "bkr-bench-sharded-1" document and applies its two structural
// gates (see file header). Returns the entry count via *count on success.
bool check_sharded_doc(const std::string& path, const json::Value& root, size_t* count,
                       std::string* err) {
  const json::Value* entries = root.get("entries", json::Type::Array);
  if (entries == nullptr || entries->items.empty()) {
    *err = path + ": entries must be a non-empty array";
    return false;
  }
  std::map<std::string, ShardedEntry> by_key;  // "case|shards|coarse"
  for (size_t i = 0; i < entries->items.size(); ++i) {
    const json::Value& e = entries->items[i];
    const std::string at = path + ": entries[" + std::to_string(i) + "]";
    if (e.type != json::Type::Object) {
      *err = at + " is not an object";
      return false;
    }
    const json::Value* cs = e.get("case", json::Type::String);
    const json::Value* shards = e.get("shards", json::Type::Number);
    const json::Value* coarse = e.get("coarse", json::Type::Number);
    const json::Value* iters = e.get("iterations", json::Type::Number);
    const json::Value* conv = e.get("converged", json::Type::Bool);
    const json::Value* setup = e.get("setup_seconds", json::Type::Number);
    const json::Value* solve = e.get("solve_seconds", json::Type::Number);
    if (cs == nullptr || cs->text.empty()) {
      *err = at + ": case missing";
      return false;
    }
    if (!is_count(shards, 1)) {
      *err = at + ": shards missing or not a count >= 1";
      return false;
    }
    if (!is_count(coarse, 0)) {
      *err = at + ": coarse missing or not a count";
      return false;
    }
    if (!is_count(iters, 0)) {
      *err = at + ": iterations missing or not a count";
      return false;
    }
    if (conv == nullptr) {
      *err = at + ": converged missing";
      return false;
    }
    if (!conv->boolean) {
      *err = at + ": case " + cs->text + " did not converge";
      return false;
    }
    for (const json::Value* t : {setup, solve}) {
      if (t == nullptr || t->number < 0 || !std::isfinite(t->number)) {
        *err = at + ": setup_seconds/solve_seconds missing or invalid";
        return false;
      }
    }
    ShardedEntry entry{cs->text,          long(shards->number), long(coarse->number),
                       long(iters->number), conv->boolean,      setup->number,
                       solve->number};
    const std::string key = entry.case_name + "|" + std::to_string(entry.shards) + "|" +
                            std::to_string(entry.coarse);
    if (by_key.count(key) != 0) {
      *err = at + ": duplicate entry key " + key;
      return false;
    }
    by_key.emplace(key, std::move(entry));
  }

  // Gate 1 — shard invariance: the solver history is bitwise independent of
  // the shard count (DESIGN.md §13), so iteration counts for the same
  // (case, coarse) pair must agree across every shard count benchmarked.
  std::map<std::string, long> canon_iters;  // "case|coarse" -> iterations
  for (const auto& [key, e] : by_key) {
    const std::string ck = e.case_name + "|" + std::to_string(e.coarse);
    const auto it = canon_iters.find(ck);
    if (it == canon_iters.end()) {
      canon_iters.emplace(ck, e.iterations);
    } else if (it->second != e.iterations) {
      std::ostringstream os;
      os << path << ": shard-invariance violation for " << ck << " — " << it->second
         << " vs " << e.iterations << " iterations across shard counts";
      *err = os.str();
      return false;
    }
  }

  // Gate 2 — deflation must pay: wherever a case was run both one-level and
  // with the subdomain-deflation coarse space at the same shard count, the
  // deflated run must converge in strictly fewer iterations.
  bool any_pair = false;
  for (const auto& [key, e] : by_key) {
    if (e.coarse == 0) continue;
    // Find the one-level counterpart at the same (case, shards).
    for (const auto& [okey, plain] : by_key) {
      if (plain.coarse != 0 || plain.case_name != e.case_name || plain.shards != e.shards)
        continue;
      any_pair = true;
      if (e.iterations >= plain.iterations) {
        std::ostringstream os;
        os << path << ": deflation gate failed for " << e.case_name << " at " << e.shards
           << " shard(s): coarse=" << e.coarse << " took " << e.iterations
           << " iterations vs " << plain.iterations << " one-level";
        *err = os.str();
        return false;
      }
    }
  }
  if (!any_pair) {
    *err = path + ": no (one-level, deflated) pair to gate — bench must emit both";
    return false;
  }
  *count = by_key.size();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::string baseline_path;
  double max_regression = 0.25;
  double min_median = 1e-4;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--max-regression" && i + 1 < argc) {
      max_regression = std::atof(argv[++i]);
    } else if (arg == "--min-median-seconds" && i + 1 < argc) {
      min_median = std::atof(argv[++i]);
    } else if (arg == "--help") {
      std::printf("usage: bench_check FILE [--baseline BASE] [--max-regression R] "
                  "[--min-median-seconds S]\n");
      return 0;
    } else if (path.empty()) {
      path = arg;
    } else {
      std::fprintf(stderr, "bench_check: unexpected argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (path.empty()) {
    std::fprintf(stderr, "usage: bench_check FILE [--baseline BASE] ...\n");
    return 2;
  }

  std::string err;
  json::Value root;
  if (!parse_json_file(path, &root, &err)) {
    std::fprintf(stderr, "bench_check: %s\n", err.c_str());
    return 1;
  }
  const json::Value* schema = root.get("schema", json::Type::String);
  if (schema != nullptr && schema->text == kShardedSchema) {
    size_t count = 0;
    if (!check_sharded_doc(path, root, &count, &err)) {
      std::fprintf(stderr, "bench_check: %s\n", err.c_str());
      return 1;
    }
    std::printf("bench_check: %s valid (%zu entries, shard-invariance and deflation gates "
                "passed)\n",
                path.c_str(), count);
    if (!baseline_path.empty())
      std::printf("bench_check: note — sharded documents are gated structurally; "
                  "--baseline ignored\n");
    return 0;
  }
  BenchDoc doc;
  if (!load_doc(path, root, &doc, &err)) {
    std::fprintf(stderr, "bench_check: %s\n", err.c_str());
    return 1;
  }
  std::printf("bench_check: %s valid (%zu entries, calibration %.3e s)\n", path.c_str(),
              doc.by_key.size(), doc.calibration_seconds);
  if (baseline_path.empty()) return 0;

  json::Value base_root;
  BenchDoc base;
  if (!parse_json_file(baseline_path, &base_root, &err) ||
      !load_doc(baseline_path, base_root, &base, &err)) {
    std::fprintf(stderr, "bench_check: %s\n", err.c_str());
    return 1;
  }
  if (doc.complex_register_bytes != base.complex_register_bytes) {
    std::fprintf(stderr,
                 "bench_check: %s ran the complex kernels at %ld-byte registers and %s at "
                 "%ld-byte registers; their timings are not comparable\n",
                 path.c_str(), doc.complex_register_bytes, baseline_path.c_str(),
                 base.complex_register_bytes);
    return 1;
  }
  // Normalized comparison: medians divided by the calibration probe of
  // their own run, so host speed cancels and only the trajectory counts.
  int compared = 0, regressed = 0, skipped_noise = 0;
  for (const auto& [key, cur] : doc.by_key) {
    const auto it = base.by_key.find(key);
    if (it == base.by_key.end()) continue;
    const BenchEntry& ref = it->second;
    if (ref.median_seconds < min_median) {
      ++skipped_noise;
      continue;
    }
    ++compared;
    const double cur_norm = cur.median_seconds / doc.calibration_seconds;
    const double ref_norm = ref.median_seconds / base.calibration_seconds;
    const double ratio = ref_norm > 0 ? cur_norm / ref_norm : 1.0;
    if (ratio > 1.0 + max_regression) {
      std::printf("  REGRESSION %s: normalized %.3f -> %.3f (%+.0f%%, gate %+.0f%%)\n",
                  key.c_str(), ref_norm, cur_norm, 100.0 * (ratio - 1.0),
                  100.0 * max_regression);
      ++regressed;
    }
  }
  std::printf("bench_check: %d compared, %d below noise floor, %d regression(s) vs %s\n",
              compared, skipped_noise, regressed, baseline_path.c_str());
  return regressed == 0 ? 0 : 1;
}
