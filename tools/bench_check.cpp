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
//       documents are gated structurally, not on timings.)
//
// The parser below handles exactly the JSON subset our writer emits
// (objects, arrays, strings without escapes we generate, numbers, bools)
// — deliberately dependency-free, like bkr-lint.
//
// Exit code: 0 valid (and no gated regression), 1 otherwise, 2 usage.

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// --- minimal JSON ----------------------------------------------------------

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } kind = Kind::Null;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<JsonValue> items;
  std::map<std::string, JsonValue> fields;

  [[nodiscard]] const JsonValue* get(const std::string& key) const {
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : s_(text) {}

  bool parse(JsonValue* out) {
    const bool ok = value(out);
    skip_ws();
    return ok && pos_ == s_.size();
  }

  [[nodiscard]] std::string error() const { return error_; }

 private:
  const std::string& s_;
  size_t pos_ = 0;
  std::string error_;

  bool fail(const std::string& what) {
    if (error_.empty()) {
      std::ostringstream os;
      os << what << " at offset " << pos_;
      error_ = os.str();
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  bool literal(const char* word) {
    const size_t len = std::strlen(word);
    if (s_.compare(pos_, len, word) != 0) return fail("bad literal");
    pos_ += len;
    return true;
  }

  bool value(JsonValue* out) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("unexpected end");
    const char c = s_[pos_];
    if (c == '{') return object(out);
    if (c == '[') return array(out);
    if (c == '"') {
      out->kind = JsonValue::Kind::String;
      return string(&out->text);
    }
    if (c == 't' || c == 'f') {
      out->kind = JsonValue::Kind::Bool;
      out->boolean = c == 't';
      return literal(c == 't' ? "true" : "false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::Null;
      return literal("null");
    }
    return number(out);
  }

  bool string(std::string* out) {
    if (s_[pos_] != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        // Writer-side strings never need escapes beyond these.
        ++pos_;
        if (pos_ >= s_.size()) return fail("bad escape");
        const char e = s_[pos_];
        if (e == 'n')
          out->push_back('\n');
        else if (e == 't')
          out->push_back('\t');
        else
          out->push_back(e);
      } else {
        out->push_back(s_[pos_]);
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool number(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < s_.size() && (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
                                std::strchr("+-.eE", s_[pos_]) != nullptr))
      ++pos_;
    if (pos_ == start) return fail("expected number");
    char* end = nullptr;
    const std::string tok = s_.substr(start, pos_ - start);
    out->number = std::strtod(tok.c_str(), &end);
    if (end == nullptr || *end != '\0') return fail("bad number");
    out->kind = JsonValue::Kind::Number;
    return true;
  }

  bool array(JsonValue* out) {
    out->kind = JsonValue::Kind::Array;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      JsonValue item;
      if (!value(&item)) return false;
      out->items.push_back(std::move(item));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated array");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected , or ]");
    }
  }

  bool object(JsonValue* out) {
    out->kind = JsonValue::Kind::Object;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return fail("expected :");
      ++pos_;
      JsonValue val;
      if (!value(&val)) return false;
      out->fields.emplace(std::move(key), std::move(val));
      skip_ws();
      if (pos_ >= s_.size()) return fail("unterminated object");
      if (s_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected , or }");
    }
  }
};

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
  std::map<std::string, BenchEntry> by_key;  // "kernel|shape|threads"
};

bool known_kernel(const std::string& name) {
  for (const char* k : kKernels)
    if (name == k) return true;
  return false;
}

bool parse_json_file(const std::string& path, JsonValue* root, std::string* err) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *err = "cannot open " + path;
    return false;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  JsonParser parser(text);
  if (!parser.parse(root) || root->kind != JsonValue::Kind::Object) {
    *err = path + ": not a JSON object (" + parser.error() + ")";
    return false;
  }
  return true;
}

// Reads the schema string of FILE without validating anything else, so main
// can dispatch between the kernels gate and the sharded gate.
std::string peek_schema(const std::string& path) {
  JsonValue root;
  std::string err;
  if (!parse_json_file(path, &root, &err)) return "";
  const JsonValue* schema = root.get("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::String) return "";
  return schema->text;
}

bool load_doc(const std::string& path, BenchDoc* doc, std::string* err) {
  JsonValue root;
  if (!parse_json_file(path, &root, err)) return false;
  const JsonValue* schema = root.get("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::String || schema->text != kSchema) {
    *err = path + ": missing or unknown schema (want \"" + std::string(kSchema) + "\")";
    return false;
  }
  const JsonValue* cal = root.get("calibration_seconds");
  if (cal == nullptr || cal->kind != JsonValue::Kind::Number || !(cal->number > 0) ||
      !std::isfinite(cal->number)) {
    *err = path + ": calibration_seconds must be a positive finite number";
    return false;
  }
  doc->calibration_seconds = cal->number;
  const JsonValue* entries = root.get("entries");
  if (entries == nullptr || entries->kind != JsonValue::Kind::Array || entries->items.empty()) {
    *err = path + ": entries must be a non-empty array";
    return false;
  }
  for (size_t i = 0; i < entries->items.size(); ++i) {
    const JsonValue& e = entries->items[i];
    const std::string at = path + ": entries[" + std::to_string(i) + "]";
    if (e.kind != JsonValue::Kind::Object) {
      *err = at + " is not an object";
      return false;
    }
    const JsonValue* kernel = e.get("kernel");
    const JsonValue* shape = e.get("shape");
    const JsonValue* threads = e.get("threads");
    const JsonValue* median = e.get("median_seconds");
    const JsonValue* reps = e.get("reps");
    if (kernel == nullptr || kernel->kind != JsonValue::Kind::String ||
        !known_kernel(kernel->text)) {
      *err = at + ": kernel missing or unknown";
      return false;
    }
    if (shape == nullptr || shape->kind != JsonValue::Kind::String || shape->text.empty()) {
      *err = at + ": shape missing";
      return false;
    }
    if (threads == nullptr || threads->kind != JsonValue::Kind::Number || threads->number < 0) {
      *err = at + ": threads missing or negative";
      return false;
    }
    if (median == nullptr || median->kind != JsonValue::Kind::Number || median->number < 0 ||
        !std::isfinite(median->number)) {
      *err = at + ": median_seconds missing or invalid";
      return false;
    }
    if (reps == nullptr || reps->kind != JsonValue::Kind::Number || reps->number < 1) {
      *err = at + ": reps missing or < 1";
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
bool check_sharded_doc(const std::string& path, size_t* count, std::string* err) {
  JsonValue root;
  if (!parse_json_file(path, &root, err)) return false;
  const JsonValue* schema = root.get("schema");
  if (schema == nullptr || schema->kind != JsonValue::Kind::String ||
      schema->text != kShardedSchema) {
    *err = path + ": missing or unknown schema (want \"" + std::string(kShardedSchema) + "\")";
    return false;
  }
  const JsonValue* entries = root.get("entries");
  if (entries == nullptr || entries->kind != JsonValue::Kind::Array || entries->items.empty()) {
    *err = path + ": entries must be a non-empty array";
    return false;
  }
  std::map<std::string, ShardedEntry> by_key;  // "case|shards|coarse"
  for (size_t i = 0; i < entries->items.size(); ++i) {
    const JsonValue& e = entries->items[i];
    const std::string at = path + ": entries[" + std::to_string(i) + "]";
    if (e.kind != JsonValue::Kind::Object) {
      *err = at + " is not an object";
      return false;
    }
    const JsonValue* cs = e.get("case");
    const JsonValue* shards = e.get("shards");
    const JsonValue* coarse = e.get("coarse");
    const JsonValue* iters = e.get("iterations");
    const JsonValue* conv = e.get("converged");
    const JsonValue* setup = e.get("setup_seconds");
    const JsonValue* solve = e.get("solve_seconds");
    if (cs == nullptr || cs->kind != JsonValue::Kind::String || cs->text.empty()) {
      *err = at + ": case missing";
      return false;
    }
    if (shards == nullptr || shards->kind != JsonValue::Kind::Number || shards->number < 1) {
      *err = at + ": shards missing or < 1";
      return false;
    }
    if (coarse == nullptr || coarse->kind != JsonValue::Kind::Number || coarse->number < 0) {
      *err = at + ": coarse missing or negative";
      return false;
    }
    if (iters == nullptr || iters->kind != JsonValue::Kind::Number || iters->number < 0) {
      *err = at + ": iterations missing or negative";
      return false;
    }
    if (conv == nullptr || conv->kind != JsonValue::Kind::Bool) {
      *err = at + ": converged missing";
      return false;
    }
    if (!conv->boolean) {
      *err = at + ": case " + cs->text + " did not converge";
      return false;
    }
    for (const JsonValue* t : {setup, solve}) {
      if (t == nullptr || t->kind != JsonValue::Kind::Number || t->number < 0 ||
          !std::isfinite(t->number)) {
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
  if (peek_schema(path) == kShardedSchema) {
    size_t count = 0;
    if (!check_sharded_doc(path, &count, &err)) {
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
  if (!load_doc(path, &doc, &err)) {
    std::fprintf(stderr, "bench_check: %s\n", err.c_str());
    return 1;
  }
  std::printf("bench_check: %s valid (%zu entries, calibration %.3e s)\n", path.c_str(),
              doc.by_key.size(), doc.calibration_seconds);
  if (baseline_path.empty()) return 0;

  BenchDoc base;
  if (!load_doc(baseline_path, &base, &err)) {
    std::fprintf(stderr, "bench_check: %s\n", err.c_str());
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
