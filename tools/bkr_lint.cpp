// bkr-lint: the project's own static analysis pass.
//
// Scans the C++ sources for patterns this codebase bans by convention:
//
//   raw-new-delete     raw `new` / `delete` expressions (ownership must go
//                      through std::unique_ptr / containers; the C API
//                      boundary is baselined)
//   using-namespace-header
//                      `using namespace` at header scope leaks names into
//                      every includer
//   unchecked-factor   the boolean/status result of a factorization kernel
//                      (cholqr, cholesky_upper, qr_block)
//                      discarded at statement level — breakdown would pass
//                      silently
//   non-central-rng    direct <random> engine/distribution use outside
//                      src/common/rng.hpp (all randomness must be seeded
//                      through the central helpers for reproducibility)
//   missing-include-guard
//                      header without `#pragma once` or a classic #ifndef
//                      guard ahead of the first declaration
//   float-literal      `float` type or f-suffixed literal in a library that
//                      computes exclusively in double/complex<double> —
//                      a stray float silently truncates
//   unpooled-thread    raw `std::thread` construction/ownership outside
//                      src/parallel/ — all concurrency must go through
//                      bkr::ThreadPool so kernels inherit its nesting and
//                      error protocol (`std::thread::` scope accesses such
//                      as hardware_concurrency() stay legal)
//   broad-catch        `catch (std::runtime_error)` or `catch (...)` inside
//                      src/core/ — solver recovery must name the specific
//                      failure types (EigFailure, BreakdownError,
//                      InjectedFault) so contract violations and unknown
//                      errors keep propagating to the caller
//
// The scanner is a small lexer, not a regex pass: comments, string
// literals (including raw strings) and character literals are blanked
// before matching, so prose and printf formats never trip a rule.
//
// A second stage, `--analyze` ("bkr-analyze"), builds a cross-TU project
// model of src/ — include graph, annotation index, per-scope lock sets —
// and checks project-wide rules the line scanner cannot see:
//
//   layer-upward-include   an #include that points at a strictly higher
//                          rank of the module DAG (common < la < sparse <
//                          {direct,parallel,obs,resilience} < core <
//                          precond < fem < capi); same-rank includes are
//                          legal
//   include-cycle          a cycle in the file-level include graph
//   unguarded-member-access  a BKR_GUARDED_BY(mu) member accessed in a
//                          scope that does not visibly hold mu
//   requires-lock-not-held a BKR_REQUIRES_LOCK(mu) function called without
//                          mu held
//   lock-order-inversion   two mutexes nested against a declared
//                          BKR_ACQUIRED_BEFORE order
//   lock-free-not-atomic   BKR_LOCK_FREE on a declaration that is not a
//                          std::atomic
//   confined-member-in-parallel  a BKR_THREAD_CONFINED member accessed
//                          inside a lambda dispatched to run()/parallel_for
//   lane-dependent-body    lanes()/hardware_concurrency/thread_count_ read
//                          inside a dispatched task body (determinism
//                          scope: src/parallel, la/blas.hpp, sparse/csr.hpp)
//   nonshared-reduce-chunk reduction task body whose chunking does not come
//                          from the shared la/blas.hpp kReduceChunk
//   float-atomic-accumulation  std::atomic<double|float> in the determinism
//                          scope (floating-point sums must never be built
//                          from atomics — ordering would be scheduling-
//                          dependent)
//   contract-coverage      share of public header entries taking data-plane
//                          arguments whose definition (or a callee) checks
//                          a contract fell below the gated floor
//
// A third stage, `--hotpath` ("bkr-hotpath"), builds an intra-project call
// graph over src/ and enforces allocation/locking/IO/throw/virtual-dispatch
// discipline in hot code. Hot regions are seeded by BKR_HOT function
// definitions, BKR_HOT_LOOP loop bodies and lambdas submitted to
// KernelExecutor::run / parallel_for, and hotness propagates to named
// callees; BKR_COLD (on a function, class, lambda or bare block) stops it.
// Rules: hot-path-alloc, hot-path-lock, hot-path-io, hot-path-throw,
// hot-path-virtual, hot-path-clock — see the comment block above class
// Hotpath.
//
// The annotation vocabulary (no-op macros) lives in common/contracts.hpp;
// DESIGN.md §7 documents the model and the normative DAG, §11 the hot-path
// discipline.
//
// Suppression (both stages):
//   * inline:   a `// bkr-lint: allow(rule)` comment on the offending line
//   * baseline: `--baseline FILE` with tab-separated lines
//               `rule<TAB>relative/path<TAB>normalized line content`
//               (line-number independent, survives unrelated edits)
//
// Exit code 0 when no unsuppressed finding remains, 1 otherwise.
// `--json` emits one JSON object per finding (rule/file/line/content)
// instead of the human lines; exit codes are unchanged.
// `--self-test` runs both stages against embedded fixtures with one
// planted violation per rule and must find exactly those.

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/json.hpp"

namespace {

namespace fs = std::filesystem;

struct Finding {
  std::string rule;
  std::string path;  // relative to the scan root
  long line = 0;
  std::string content;  // normalized offending line
};

// Collapse runs of whitespace and trim, so baseline entries survive
// reformatting of the surrounding file.
std::string normalize(const std::string& line) {
  std::string out;
  bool in_space = true;
  for (const char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      if (!in_space && !out.empty()) out.push_back(' ');
      in_space = true;
    } else {
      out.push_back(c);
      in_space = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

// Replace the contents of comments, string literals (ordinary and raw)
// and character literals with spaces, preserving newlines so line numbers
// keep meaning. Returns the blanked text.
std::string blank_non_code(const std::string& src) {
  std::string out = src;
  enum class State { Code, LineComment, BlockComment, String, Char, RawString };
  State state = State::Code;
  std::string raw_delim;  // the )delim" closer of the active raw string
  for (size_t i = 0; i < src.size(); ++i) {
    const char c = src[i];
    const char next = i + 1 < src.size() ? src[i + 1] : '\0';
    switch (state) {
      case State::Code:
        if (c == '/' && next == '/') {
          state = State::LineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::BlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (std::isalnum(static_cast<unsigned char>(src[i - 1])) == 0 &&
                               src[i - 1] != '_'))) {
          size_t j = i + 2;
          while (j < src.size() && src[j] != '(') ++j;
          raw_delim = ")" + src.substr(i + 2, j - (i + 2)) + "\"";
          for (size_t k = i; k <= j && k < src.size(); ++k) out[k] = ' ';
          i = j;
          state = State::RawString;
        } else if (c == '"') {
          state = State::String;
        } else if (c == '\'') {
          // Digit separators (1'000'000) are not character literals.
          const bool sep = i > 0 && std::isalnum(static_cast<unsigned char>(src[i - 1])) != 0 &&
                           i + 1 < src.size() &&
                           std::isalnum(static_cast<unsigned char>(src[i + 1])) != 0;
          if (!sep) state = State::Char;
        }
        break;
      case State::LineComment:
        if (c == '\n')
          state = State::Code;
        else
          out[i] = ' ';
        break;
      case State::BlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          ++i;
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::String:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::Char:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::RawString:
        if (src.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (size_t k = 0; k < raw_delim.size(); ++k) out[i + k] = ' ';
          i += raw_delim.size() - 1;
          state = State::Code;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Find `word` as a whole token in `line`, starting at `from`.
size_t find_token(const std::string& line, const std::string& word, size_t from = 0) {
  for (size_t pos = line.find(word, from); pos != std::string::npos;
       pos = line.find(word, pos + 1)) {
    const bool left_ok = pos == 0 || !is_ident(line[pos - 1]);
    const size_t end = pos + word.size();
    const bool right_ok = end >= line.size() || !is_ident(line[end]);
    if (left_ok && right_ok) return pos;
  }
  return std::string::npos;
}

// The last non-whitespace character before (file-offset semantics across
// lines): used to decide whether a call result is discarded.
char prev_significant(const std::vector<std::string>& lines, size_t line_idx, size_t col) {
  for (size_t li = line_idx + 1; li-- > 0;) {
    const std::string& l = lines[li];
    size_t end = li == line_idx ? col : l.size();
    for (size_t ci = end; ci-- > 0;) {
      if (std::isspace(static_cast<unsigned char>(l[ci])) == 0) return l[ci];
    }
  }
  return '\0';
}

// f/F-suffixed floating literal: digits with a '.' or exponent then f.
bool has_float_literal(const std::string& line, size_t* where) {
  for (size_t i = 0; i < line.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(line[i])) == 0) continue;
    if (i > 0 && is_ident(line[i - 1])) continue;  // inside an identifier / hex
    size_t j = i;
    bool fractional = false;
    while (j < line.size() &&
           (std::isdigit(static_cast<unsigned char>(line[j])) != 0 || line[j] == '.')) {
      if (line[j] == '.') fractional = true;
      ++j;
    }
    if (j < line.size() && (line[j] == 'e' || line[j] == 'E')) {
      fractional = true;
      ++j;
      if (j < line.size() && (line[j] == '+' || line[j] == '-')) ++j;
      while (j < line.size() && std::isdigit(static_cast<unsigned char>(line[j])) != 0) ++j;
    }
    if (fractional && j < line.size() && (line[j] == 'f' || line[j] == 'F') &&
        (j + 1 >= line.size() || !is_ident(line[j + 1]))) {
      *where = i;
      return true;
    }
    i = j;
  }
  return false;
}

const char* const kFactorCalls[] = {"cholqr", "cholesky_upper", "qr_block"};

const char* const kRngTokens[] = {"mt19937",
                                  "mt19937_64",
                                  "minstd_rand",
                                  "random_device",
                                  "uniform_int_distribution",
                                  "uniform_real_distribution",
                                  "normal_distribution",
                                  "bernoulli_distribution",
                                  "srand",
                                  "drand48"};

struct FileReport {
  std::vector<Finding> findings;
};

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() && s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Extension-exact: ".hpp" and ".h" files of any path length (a bare "a.h"
// is a header too — the old size guard silently skipped short paths).
bool is_header(const std::string& path) {
  return ends_with(path, ".hpp") || ends_with(path, ".h");
}

// Per-line inline suppressions harvested from the *raw* text before
// blanking: `// bkr-lint: allow(rule1, rule2)`.
std::map<long, std::set<std::string>> harvest_allows(const std::vector<std::string>& raw_lines) {
  std::map<long, std::set<std::string>> allows;
  for (size_t li = 0; li < raw_lines.size(); ++li) {
    const std::string& l = raw_lines[li];
    const size_t marker = l.find("bkr-lint: allow(");
    if (marker == std::string::npos) continue;
    const size_t open = l.find('(', marker);
    const size_t close = l.find(')', open);
    if (open == std::string::npos || close == std::string::npos) continue;
    std::stringstream list(l.substr(open + 1, close - open - 1));
    std::string rule;
    while (std::getline(list, rule, ',')) {
      allows[long(li) + 1].insert(normalize(rule));
    }
  }
  return allows;
}

// File-scope suppressions: `// bkr-lint: allow-file(rule1, rule2)` anywhere
// in the file turns the named rules off for the whole file. Used by the
// mixed-precision scope (DESIGN.md §14), where `float` storage is the
// point and the precision discipline moves to the bkr-fpflow rules.
// Convention mirrors the baseline: a justification comment is required.
std::set<std::string> harvest_file_allows(const std::vector<std::string>& raw_lines) {
  std::set<std::string> allows;
  for (const std::string& l : raw_lines) {
    const size_t marker = l.find("bkr-lint: allow-file(");
    if (marker == std::string::npos) continue;
    const size_t open = l.find('(', marker);
    const size_t close = l.find(')', open);
    if (open == std::string::npos || close == std::string::npos) continue;
    std::stringstream list(l.substr(open + 1, close - open - 1));
    std::string rule;
    while (std::getline(list, rule, ',')) allows.insert(normalize(rule));
  }
  return allows;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) lines.push_back(line);
  return lines;
}

FileReport scan_content(const std::string& rel_path, const std::string& content) {
  FileReport report;
  const std::vector<std::string> raw_lines = split_lines(content);
  const std::string blanked = blank_non_code(content);
  const std::vector<std::string> lines = split_lines(blanked);
  const auto allows = harvest_allows(raw_lines);
  const auto file_allows = harvest_file_allows(raw_lines);

  auto add = [&](const std::string& rule, size_t line_idx) {
    if (file_allows.count(rule) != 0) return;
    const long line_no = long(line_idx) + 1;
    const auto it = allows.find(line_no);
    if (it != allows.end() && it->second.count(rule) != 0) return;
    const std::string& raw =
        line_idx < raw_lines.size() ? raw_lines[line_idx] : std::string();
    report.findings.push_back(Finding{rule, rel_path, line_no, normalize(raw)});
  };

  const bool header = is_header(rel_path);
  const bool rng_central = rel_path.size() >= 14 &&
                           rel_path.rfind("common/rng.hpp") == rel_path.size() - 14;
  const bool pool_home = rel_path.rfind("src/parallel/", 0) == 0;
  const bool core_scope = rel_path.rfind("src/core/", 0) == 0;

  for (size_t li = 0; li < lines.size(); ++li) {
    const std::string& line = lines[li];

    // raw-new-delete
    if (find_token(line, "new") != std::string::npos) add("raw-new-delete", li);
    for (size_t pos = find_token(line, "delete"); pos != std::string::npos;
         pos = find_token(line, "delete", pos + 1)) {
      // `= delete` (deleted functions) and `operator delete` are fine.
      const char prev = prev_significant(lines, li, pos);
      if (prev != '=' && prev != 'r') {  // 'r' = trailing char of `operator`
        add("raw-new-delete", li);
        break;
      }
    }

    // using-namespace-header
    if (header && line.find("using namespace") != std::string::npos)
      add("using-namespace-header", li);

    // unchecked-factor: call token whose preceding significant character
    // ends a statement (result discarded).
    for (const char* fn : kFactorCalls) {
      const size_t pos = find_token(line, fn);
      if (pos == std::string::npos) continue;
      // Allow qualified discard-position names: walk back over `detail::`
      // style qualifiers to the true statement start.
      size_t stmt = pos;
      while (stmt >= 2 && lines[li][stmt - 1] == ':' && lines[li][stmt - 2] == ':') {
        stmt -= 2;
        while (stmt > 0 && is_ident(lines[li][stmt - 1])) --stmt;
      }
      const char prev = prev_significant(lines, li, stmt);
      if (prev == ';' || prev == '{' || prev == '}' || prev == '\0') add("unchecked-factor", li);
    }

    // non-central-rng
    if (!rng_central) {
      for (const char* tok : kRngTokens) {
        if (find_token(line, tok) != std::string::npos) {
          add("non-central-rng", li);
          break;
        }
      }
    }

    // unpooled-thread: the literal `std::thread` type outside the pool's
    // home directory. A following `::` is a scope access (static members
    // like hardware_concurrency), not thread ownership, and stays legal.
    if (!pool_home) {
      constexpr size_t kLen = sizeof("std::thread") - 1;
      for (size_t pos = line.find("std::thread"); pos != std::string::npos;
           pos = line.find("std::thread", pos + 1)) {
        const bool left_ok = pos == 0 || !is_ident(line[pos - 1]);
        const size_t end = pos + kLen;
        const bool right_ok = end >= line.size() || !is_ident(line[end]);
        const bool scope_access =
            end + 1 < line.size() && line[end] == ':' && line[end + 1] == ':';
        if (left_ok && right_ok && !scope_access) {
          add("unpooled-thread", li);
          break;
        }
      }
    }

    // broad-catch: a catch clause in src/core that swallows whole exception
    // families. Recovery paths must name the specific type they handle.
    if (core_scope) {
      const size_t pos = find_token(line, "catch");
      if (pos != std::string::npos) {
        const size_t open = line.find('(', pos);
        const size_t close = open == std::string::npos ? std::string::npos : line.find(')', open);
        if (open != std::string::npos && close != std::string::npos) {
          const std::string inside = line.substr(open + 1, close - open - 1);
          if (inside.find("runtime_error") != std::string::npos ||
              inside.find("...") != std::string::npos)
            add("broad-catch", li);
        }
      }
    }

    // float-literal
    size_t where = 0;
    if (find_token(line, "float") != std::string::npos || has_float_literal(line, &where))
      add("float-literal", li);
  }

  // missing-include-guard: first significant line of a header must open a
  // `#pragma once` or an #ifndef/#define guard.
  if (header) {
    bool guarded = false;
    for (const std::string& line : lines) {
      const std::string norm = normalize(line);
      if (norm.empty()) continue;
      guarded = norm.rfind("#pragma once", 0) == 0 || norm.rfind("#ifndef", 0) == 0;
      break;
    }
    if (!guarded) add("missing-include-guard", 0);
  }
  return report;
}

// ---------------------------------------------------------------------------
// bkr-analyze: the cross-TU project-model stage.
//
// The model is built from blanked text only (comments and strings never
// participate), with a statement/scope walker shared by two passes: a
// harvest pass that indexes the annotation vocabulary per class, and a
// check pass that tracks the visibly-held lock set through every scope and
// validates accesses, ordering, dispatch-lambda bodies and contract
// coverage against the index.

struct SourceFile {
  std::string path;  // relative to the scan root, e.g. "src/la/blas.hpp"
  std::vector<std::string> raw_lines;
  std::string blanked;
  std::vector<std::string> lines;
  std::map<long, std::set<std::string>> allows;
  std::set<std::string> file_allows;
};

SourceFile make_source(const std::string& path, const std::string& content) {
  SourceFile f;
  f.path = path;
  f.raw_lines = split_lines(content);
  f.blanked = blank_non_code(content);
  f.lines = split_lines(f.blanked);
  f.allows = harvest_allows(f.raw_lines);
  f.file_allows = harvest_file_allows(f.raw_lines);
  return f;
}

// The normative module DAG (DESIGN.md §7). Same-rank includes are legal;
// an include must never point at a strictly higher rank.
int module_rank(const std::string& mod) {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},  {"la", 1},         {"sparse", 2}, {"direct", 3}, {"parallel", 3},
      {"obs", 3},     {"resilience", 3}, {"core", 4},   {"precond", 5}, {"fem", 6},
      {"capi", 7}};
  const auto it = kRanks.find(mod);
  return it == kRanks.end() ? -1 : it->second;
}

std::string module_of(const std::string& rel) {
  std::string p = rel;
  if (p.rfind("src/", 0) == 0) p = p.substr(4);
  const size_t slash = p.find('/');
  return slash == std::string::npos ? std::string() : p.substr(0, slash);
}

// Files whose parallel task bodies carry the determinism contract.
bool determinism_scope(const std::string& path) {
  return path.rfind("src/parallel/", 0) == 0 || path == "src/la/blas.hpp" ||
         path == "src/sparse/csr.hpp" || path == "src/sparse/sharded.hpp";
}

// Parameter types that mark a public function as a data-plane entry point
// for the contract-coverage rule.
const char* const kDataPlaneTypes[] = {"MatrixView",  "DenseMatrix",    "CsrMatrix",
                                       "MultiVector", "LinearOperator", "Preconditioner",
                                       "SolverOptions"};

const char* const kContractTokens[] = {"BKR_REQUIRE", "BKR_ENSURE", "BKR_ASSERT",
                                       "BKR_ASSERT_SHAPE", "check_solve_entry"};

bool is_cxx_keyword(const std::string& w) {
  static const std::set<std::string> kw = {
      "if",     "for",   "while",  "switch", "catch",   "return", "sizeof", "new",
      "delete", "throw", "void",   "int",    "long",    "bool",   "char",   "double",
      "float",  "auto",  "const",  "static", "virtual", "case",   "do",     "else",
      "try",    "using", "friend", "public", "private", "protected"};
  return kw.count(w) != 0;
}

// ---- shared scope machinery: statement-head classification at '{' ----
//
// Used by both the cross-TU Analyzer walker and the bkr-hotpath stage.

enum class ScopeKind { Namespace, Class, Function, Lambda, Control, Block };

struct OpenInfo {
  ScopeKind kind = ScopeKind::Block;
  std::string name;       // function or class name
  std::string qualifier;  // Class of a `Ret Class::name(...)` definition
  std::string head;       // normalized statement head
  bool struct_like = false;
  bool hot = false;       // BKR_HOT on the head
  bool cold = false;      // BKR_COLD on the head (fn, class, block or lambda)
  bool hot_loop = false;  // BKR_HOT_LOOP on a loop head
  std::vector<std::string> seeds;  // BKR_REQUIRES_LOCK on the definition
};

std::string ident_before(const std::string& s, size_t pos) {
  size_t e = pos;
  while (e > 0 && std::isspace(static_cast<unsigned char>(s[e - 1])) != 0) --e;
  size_t b = e;
  while (b > 0 && is_ident(s[b - 1])) --b;
  return s.substr(b, e - b);
}

std::string macro_arg(const std::string& s, size_t macro_end) {
  const size_t open = s.find('(', macro_end);
  if (open == std::string::npos) return {};
  const size_t close = s.find(')', open);
  if (close == std::string::npos) return {};
  return normalize(s.substr(open + 1, close - open - 1));
}

// Matching '(' for the ')' at `close` (walking left).
size_t match_open_paren(const std::string& s, size_t close) {
  int depth = 0;
  for (size_t i = close + 1; i-- > 0;) {
    if (s[i] == ')') ++depth;
    if (s[i] == '(') {
      --depth;
      if (depth == 0) return i;
    }
  }
  return std::string::npos;
}

size_t last_significant(const std::string& s) {
  for (size_t i = s.size(); i-- > 0;)
    if (std::isspace(static_cast<unsigned char>(s[i])) == 0) return i;
  return std::string::npos;
}

OpenInfo classify_open(const std::string& raw_head) {
  OpenInfo info;
  std::string h = normalize(raw_head);
  if (h.empty()) return info;  // bare block
  info.hot = find_token(h, "BKR_HOT") != std::string::npos;
  info.cold = find_token(h, "BKR_COLD") != std::string::npos;
  info.hot_loop = find_token(h, "BKR_HOT_LOOP") != std::string::npos;
  if (h == "BKR_COLD") {
    // `BKR_COLD { ... }` — an annotated bare block opens a real scope.
    info.kind = ScopeKind::Control;
    return info;
  }

  // Strip leading `template <...>` clauses.
  while (h.rfind("template", 0) == 0) {
    const size_t lt = h.find('<');
    if (lt == std::string::npos) break;
    int depth = 0;
    size_t gt = lt;
    for (; gt < h.size(); ++gt) {
      if (h[gt] == '<') ++depth;
      if (h[gt] == '>' && --depth == 0) break;
    }
    if (gt >= h.size()) break;
    h = normalize(h.substr(gt + 1));
  }

  // Leading storage-class / declaration keywords, then type-introducers.
  std::stringstream ts(h);
  std::string tok;
  while (ts >> tok) {
    if (tok == "typedef" || tok == "inline" || tok == "static" || tok == "constexpr" ||
        tok == "friend" || tok == "mutable" || tok == "virtual" || tok == "explicit" ||
        tok == "BKR_HOT" || tok == "BKR_COLD" || tok == "BKR_HOT_LOOP")
      continue;
    break;
  }
  if (tok == "namespace" || tok == "extern") {
    info.kind = ScopeKind::Namespace;
    return info;
  }
  if (tok == "class" || tok == "struct" || tok == "union") {
    info.kind = ScopeKind::Class;
    info.struct_like = tok != "class";
    // First identifier after the keyword, skipping annotation macros
    // (`class BKR_COLD TraceSink`).
    while (ts >> info.name &&
           (info.name == "BKR_COLD" || info.name == "BKR_HOT" || info.name == "final")) {
    }
    return info;
  }
  if (tok == "do" || tok == "else" || tok == "try") {
    info.kind = ScopeKind::Control;
    return info;
  }

  // Constructor initializer list: truncate at a top-level single ':'.
  {
    int depth = 0;
    for (size_t i = 0; i < h.size(); ++i) {
      const char c = h[i];
      if (c == '(' || c == '[') ++depth;
      if (c == ')' || c == ']') --depth;
      if (c == ':' && depth == 0) {
        const bool dbl = (i + 1 < h.size() && h[i + 1] == ':') || (i > 0 && h[i - 1] == ':');
        if (!dbl && h.find('(') < i) {
          h = normalize(h.substr(0, i));
          break;
        }
      }
    }
  }

  // Trailing lambda return type: `...) -> T` / `...] -> T`.
  {
    const size_t arrow = h.rfind("->");
    if (arrow != std::string::npos && arrow > 0) {
      const std::string before = normalize(h.substr(0, arrow));
      if (!before.empty() && (before.back() == ')' || before.back() == ']'))
        h = before;
    }
  }

  // Trailing qualifiers: const / noexcept / override / final / mutable /
  // ref-qualifiers / noexcept(...) / BKR_REQUIRES_LOCK(mu) / annotations.
  for (;;) {
    const size_t last = last_significant(h);
    if (last == std::string::npos) break;
    if (h[last] == '&') {
      h = normalize(h.substr(0, last));
      continue;
    }
    if (is_ident(h[last])) {
      const std::string w = ident_before(h, last + 1);
      if (w == "const" || w == "noexcept" || w == "override" || w == "final" ||
          w == "mutable" || w == "BKR_COLD" || w == "BKR_HOT") {
        h = normalize(h.substr(0, last + 1 - w.size()));
        continue;
      }
      break;
    }
    if (h[last] == ')') {
      const size_t open = match_open_paren(h, last);
      if (open == std::string::npos) break;
      const std::string w = ident_before(h, open);
      if (w == "noexcept") {
        h = normalize(h.substr(0, open - w.size()));
        continue;
      }
      if (w == "BKR_REQUIRES_LOCK") {
        info.seeds.push_back(normalize(h.substr(open + 1, last - open - 1)));
        h = normalize(h.substr(0, open - w.size()));
        continue;
      }
      break;
    }
    break;
  }

  const size_t last = last_significant(h);
  if (last == std::string::npos) return info;
  if (h[last] == ']') {
    info.kind = ScopeKind::Lambda;
    return info;
  }
  if (h[last] != ')') return info;  // brace-init / enum body etc.

  const size_t open = match_open_paren(h, last);
  if (open == std::string::npos) return info;
  const std::string before = normalize(h.substr(0, open));
  if (!before.empty() && before.back() == ']') {
    info.kind = ScopeKind::Lambda;
    return info;
  }
  std::string name = ident_before(h, open);
  if (name.empty()) return info;
  if (name == "if" || name == "for" || name == "while" || name == "switch" ||
      name == "catch") {
    info.kind = ScopeKind::Control;
    return info;
  }
  info.kind = ScopeKind::Function;
  info.name = name;
  info.head = h;
  // `Ret Class::name(...)` — the qualifier immediately before the name
  // (skipping a destructor '~' and template arguments) is the class.
  size_t b = open;
  while (b > 0 && std::isspace(static_cast<unsigned char>(h[b - 1])) != 0) --b;
  b -= name.size();
  while (b > 0 && std::isspace(static_cast<unsigned char>(h[b - 1])) != 0) --b;
  if (b > 0 && h[b - 1] == '~') --b;
  if (b >= 2 && h[b - 1] == ':' && h[b - 2] == ':') {
    b -= 2;
    if (b > 0 && h[b - 1] == '>') {  // Class<T>::
      int depth = 0;
      while (b-- > 0) {
        if (h[b] == '>') ++depth;
        if (h[b] == '<' && --depth == 0) break;
      }
    }
    info.qualifier = ident_before(h, b);
  }
  return info;
}

class Analyzer {
 public:
  Analyzer(std::vector<SourceFile> files, double coverage_floor)
      : files_(std::move(files)), coverage_floor_(coverage_floor) {}

  std::vector<Finding> run() {
    scan_includes();
    find_cycles();
    for (size_t i = 0; i < files_.size(); ++i) walk_file(i, Mode::Harvest);
    for (size_t i = 0; i < files_.size(); ++i) walk_file(i, Mode::Check);
    check_lock_order();
    scan_float_atomics();
    check_coverage();
    return std::move(findings_);
  }

 private:
  enum class Mode { Harvest, Check };

  struct Guarded {
    std::string cls, member, mu;
  };
  struct Confined {
    std::string cls, member;
  };
  struct OrderDecl {
    std::string first, second;  // `first` is declared ACQUIRED_BEFORE `second`
  };
  struct ObservedPair {
    std::string held, acquired;
    size_t file;
    long line;
  };
  struct Edge {
    size_t to;
    long line;
  };
  struct Candidate {
    std::string cls, name;
    size_t file;
    long line;
  };
  struct Scope {
    ScopeKind kind = ScopeKind::Block;
    std::string cls;
    std::string fn_name;
    int access = 1;  // Class scopes: 1 = public region
    bool in_function = false;
    bool dispatch = false;   // lexically inside a run()/parallel_for lambda
    bool reduction = false;  // the dispatch named Kernel::Dot / Kernel::Norms
    size_t body_start = 0;
    long open_line = 0;
    std::string saved_buf;  // Lambda: the suspended outer statement
    std::vector<long> saved_buf_lines;
    int saved_paren = 0;
    std::vector<std::string> acquired;                      // release at close
    std::map<std::string, std::vector<std::string>> guards;  // RAII var -> mutexes
  };
  void add(size_t file, const std::string& rule, long line_no) {
    const SourceFile& f = files_[file];
    if (f.file_allows.count(rule) != 0) return;
    const auto it = f.allows.find(line_no);
    if (it != f.allows.end() && it->second.count(rule) != 0) return;
    const std::string raw = (line_no >= 1 && size_t(line_no) <= f.raw_lines.size())
                                ? f.raw_lines[size_t(line_no) - 1]
                                : std::string();
    findings_.push_back(Finding{rule, f.path, line_no, normalize(raw)});
  }

  // ---- include graph: layering and cycles ----

  void scan_includes() {
    std::map<std::string, size_t> by_path;
    for (size_t i = 0; i < files_.size(); ++i) {
      by_path[files_[i].path] = i;
      if (files_[i].path.rfind("src/", 0) == 0) by_path[files_[i].path.substr(4)] = i;
    }
    edges_.assign(files_.size(), {});
    for (size_t i = 0; i < files_.size(); ++i) {
      const SourceFile& f = files_[i];
      for (size_t li = 0; li < f.lines.size(); ++li) {
        if (f.lines[li].find("#include") == std::string::npos) continue;
        // The include path itself was blanked with the string literal;
        // recover it from the raw line.
        const std::string& raw = li < f.raw_lines.size() ? f.raw_lines[li] : std::string();
        const size_t q1 = raw.find('"');
        const size_t q2 = q1 == std::string::npos ? std::string::npos : raw.find('"', q1 + 1);
        if (q2 == std::string::npos) continue;  // <system> include
        const std::string target = raw.substr(q1 + 1, q2 - q1 - 1);
        const long line_no = long(li) + 1;
        const int from_rank = module_rank(module_of(f.path));
        const int to_rank = module_rank(module_of("src/" + target));
        if (from_rank >= 0 && to_rank >= 0 && to_rank > from_rank)
          add(i, "layer-upward-include", line_no);
        const auto tgt = by_path.find(target);
        if (tgt != by_path.end() && tgt->second != i)
          edges_[i].push_back(Edge{tgt->second, line_no});
      }
    }
  }

  void find_cycles() {
    std::vector<int> color(files_.size(), 0);  // 0 white, 1 on stack, 2 done
    std::function<void(size_t)> dfs = [&](size_t u) {
      color[u] = 1;
      for (const Edge& e : edges_[u]) {
        if (color[e.to] == 1)
          add(u, "include-cycle", e.line);
        else if (color[e.to] == 0)
          dfs(e.to);
      }
      color[u] = 2;
    };
    for (size_t i = 0; i < files_.size(); ++i)
      if (color[i] == 0) dfs(i);
  }

  // ---- determinism: float accumulation through atomics ----

  void scan_float_atomics() {
    for (size_t i = 0; i < files_.size(); ++i) {
      if (!determinism_scope(files_[i].path)) continue;
      for (size_t li = 0; li < files_[i].lines.size(); ++li) {
        std::string dense;
        for (const char c : files_[i].lines[li])
          if (std::isspace(static_cast<unsigned char>(c)) == 0) dense.push_back(c);
        if (dense.find("atomic<double>") != std::string::npos ||
            dense.find("atomic<float>") != std::string::npos)
          add(i, "float-atomic-accumulation", long(li) + 1);
      }
    }
  }

  // ---- lock-set bookkeeping ----

  bool holds(const std::string& mu) const {
    return std::find(held_.begin(), held_.end(), mu) != held_.end();
  }

  void acquire(std::vector<Scope>& st, const std::string& mu, size_t file, long line) {
    for (const std::string& h : held_)
      observed_.push_back(ObservedPair{h, mu, file, line});
    held_.push_back(mu);
    st.back().acquired.push_back(mu);
  }

  void release(std::vector<Scope>& st, const std::string& mu) {
    const auto it = std::find(held_.begin(), held_.end(), mu);
    if (it != held_.end()) held_.erase(it);
    for (size_t si = st.size(); si-- > 0;) {
      auto& acq = st[si].acquired;
      const auto a = std::find(acq.begin(), acq.end(), mu);
      if (a != acq.end()) {
        acq.erase(a);
        break;
      }
    }
  }

  // Mutexes named by a guard declaration's argument list.
  static std::vector<std::string> guard_args(const std::string& args, bool* defer) {
    std::vector<std::string> mus;
    *defer = false;
    int depth = 0;
    std::string cur;
    auto flush = [&] {
      const std::string a = normalize(cur);
      cur.clear();
      if (a.empty()) return;
      if (a.find("defer_lock") != std::string::npos) {
        *defer = true;
        return;
      }
      if (a.find("adopt_lock") != std::string::npos || a.find("try_to_lock") != std::string::npos)
        return;
      const std::string mu = ident_before(a, a.size());
      if (!mu.empty()) mus.push_back(mu);
    };
    for (const char c : args) {
      if (c == '(' || c == '<' || c == '[') ++depth;
      if (c == ')' || c == '>' || c == ']') --depth;
      if (c == ',' && depth == 0) {
        flush();
        continue;
      }
      cur.push_back(c);
    }
    flush();
    return mus;
  }

  void handle_guard_decls(std::vector<Scope>& st, const std::string& b,
                          const std::vector<long>& bl, size_t file) {
    for (const char* kw : {"lock_guard", "unique_lock", "scoped_lock"}) {
      const size_t pos = find_token(b, kw);
      if (pos == std::string::npos) continue;
      size_t j = pos + std::strlen(kw);
      while (j < b.size() && std::isspace(static_cast<unsigned char>(b[j])) != 0) ++j;
      if (j < b.size() && b[j] == '<') {  // template arguments
        int depth = 0;
        for (; j < b.size(); ++j) {
          if (b[j] == '<') ++depth;
          if (b[j] == '>' && --depth == 0) {
            ++j;
            break;
          }
        }
      }
      while (j < b.size() && std::isspace(static_cast<unsigned char>(b[j])) != 0) ++j;
      std::string var;
      while (j < b.size() && is_ident(b[j])) var.push_back(b[j++]);
      while (j < b.size() && std::isspace(static_cast<unsigned char>(b[j])) != 0) ++j;
      if (j >= b.size() || b[j] != '(') continue;
      int depth = 1;
      const size_t arg_begin = ++j;
      for (; j < b.size() && depth > 0; ++j) {
        if (b[j] == '(') ++depth;
        if (b[j] == ')') --depth;
      }
      const std::string args = b.substr(arg_begin, j - 1 - arg_begin);
      bool defer = false;
      const std::vector<std::string> mus = guard_args(args, &defer);
      if (!var.empty()) st.back().guards[var] = mus;
      if (!defer)
        for (const std::string& mu : mus) acquire(st, mu, file, bl[pos]);
    }
  }

  const std::vector<std::string>* lookup_guard(const std::vector<Scope>& st,
                                               const std::string& var) const {
    for (size_t si = st.size(); si-- > 0;) {
      const auto it = st[si].guards.find(var);
      if (it != st[si].guards.end()) return &it->second;
    }
    return nullptr;
  }

  void handle_lock_calls(std::vector<Scope>& st, const std::string& b,
                         const std::vector<long>& bl, size_t file) {
    for (const char* kw : {"unlock", "lock"}) {
      for (size_t pos = find_token(b, kw); pos != std::string::npos;
           pos = find_token(b, kw, pos + 1)) {
        if (pos == 0 || b[pos - 1] != '.') continue;
        size_t j = pos + std::strlen(kw);
        while (j < b.size() && std::isspace(static_cast<unsigned char>(b[j])) != 0) ++j;
        if (j >= b.size() || b[j] != '(') continue;
        const std::string obj = ident_before(b, pos - 1);
        if (obj.empty()) continue;
        const std::vector<std::string>* mapped = lookup_guard(st, obj);
        const std::vector<std::string> mus = mapped != nullptr ? *mapped
                                                               : std::vector<std::string>{obj};
        if (std::strcmp(kw, "lock") == 0)
          for (const std::string& mu : mus) acquire(st, mu, file, bl[pos]);
        else
          for (const std::string& mu : mus) release(st, mu);
      }
    }
  }

  // ---- candidates / definitions for contract coverage ----

  static bool has_data_plane(const std::string& text) {
    for (const char* t : kDataPlaneTypes)
      if (find_token(text, t) != std::string::npos) return true;
    return false;
  }

  void maybe_candidate(const std::vector<Scope>& st, const std::string& stmt, size_t file,
                       long line) {
    const std::string h = normalize(stmt);
    if (h.empty() || h.find('(') == std::string::npos) return;
    if (find_token(h, "operator") != std::string::npos) return;
    if (ends_with(h, "= 0") || h.find("= delete") != std::string::npos ||
        h.find("= default") != std::string::npos)
      return;
    std::stringstream ts(h);
    std::string first;
    ts >> first;
    if (first == "using" || first == "typedef" || first == "friend" || first == "return" ||
        first == "static_assert" || first == "#define")
      return;
    // The parameter-list '(' is the first one outside template arguments.
    int angle = 0;
    size_t open = std::string::npos;
    for (size_t i = 0; i < h.size(); ++i) {
      if (h[i] == '<') ++angle;
      if (h[i] == '>' && angle > 0) --angle;
      if (h[i] == '(' && angle == 0) {
        open = i;
        break;
      }
    }
    if (open == std::string::npos) return;
    const std::string name = ident_before(h, open);
    if (name.empty() || is_cxx_keyword(name) || name.rfind("BKR_", 0) == 0) return;
    if (!has_data_plane(h.substr(open))) return;
    candidates_.push_back(Candidate{st.back().cls, name, file, line});
  }

  // ---- the statement/scope walker ----

  void statement(std::vector<Scope>& st, Mode mode, size_t file, const std::string& b,
                 const std::vector<long>& bl) {
    if (b.empty() || bl.empty()) return;
    const SourceFile& f = files_[file];
    if (mode == Mode::Harvest) {
      if (st.back().kind != ScopeKind::Class) return;
      harvest_stmt(st, file, b, bl);
      return;
    }
    if (!st.back().in_function) {
      // Pure declarations at public class scope / namespace scope of a
      // header are contract-coverage candidates.
      const bool decl_scope =
          (st.back().kind == ScopeKind::Class && st.back().access == 1) ||
          st.back().kind == ScopeKind::Namespace;
      if (decl_scope && is_header(f.path) && ends_with(normalize(b), ")"))
        maybe_candidate(st, b, file, bl.front());
      return;
    }

    handle_guard_decls(st, b, bl, file);
    handle_lock_calls(st, b, bl, file);

    const std::string& cls = st.back().cls;
    for (const Guarded& g : guarded_) {
      if (g.cls != cls) continue;
      const size_t pos = find_token(b, g.member);
      if (pos != std::string::npos && !holds(g.mu)) add(file, "unguarded-member-access", bl[pos]);
    }
    for (const auto& [key, mus] : requires_lock_) {
      const size_t sep = key.find("::");
      if (key.substr(0, sep) != cls) continue;
      const std::string& fn = key.substr(sep + 2);
      if (fn == st.back().fn_name) continue;  // the function's own body
      const size_t pos = find_token(b, fn);
      if (pos == std::string::npos) continue;
      size_t j = pos + fn.size();
      while (j < b.size() && std::isspace(static_cast<unsigned char>(b[j])) != 0) ++j;
      if (j >= b.size() || b[j] != '(') continue;
      for (const std::string& mu : mus)
        if (!holds(mu)) add(file, "requires-lock-not-held", bl[pos]);
    }
    if (st.back().dispatch) {
      for (const Confined& cm : confined_) {
        if (cm.cls != cls) continue;
        const size_t pos = find_token(b, cm.member);
        if (pos != std::string::npos) add(file, "confined-member-in-parallel", bl[pos]);
      }
      if (determinism_scope(f.path)) {
        for (const char* tok : {"lanes", "hardware_concurrency", "thread_count_"}) {
          const size_t pos = find_token(b, tok);
          if (pos != std::string::npos) add(file, "lane-dependent-body", bl[pos]);
        }
      }
    }
  }

  void harvest_stmt(std::vector<Scope>& st, size_t file, const std::string& b,
                    const std::vector<long>& bl) {
    const std::string& cls = st.back().cls;
    struct MacroHit {
      const char* name;
      size_t pos;
    };
    for (const char* m : {"BKR_GUARDED_BY", "BKR_ACQUIRED_BEFORE", "BKR_THREAD_CONFINED",
                          "BKR_LOCK_FREE", "BKR_REQUIRES_LOCK"}) {
      const size_t pos = find_token(b, m);
      if (pos == std::string::npos) continue;
      const std::string subject = ident_before(b, pos);
      const std::string arg = macro_arg(b, pos + std::strlen(m));
      if (std::strcmp(m, "BKR_GUARDED_BY") == 0 && !subject.empty() && !arg.empty()) {
        guarded_.push_back(Guarded{cls, subject, arg});
      } else if (std::strcmp(m, "BKR_ACQUIRED_BEFORE") == 0 && !subject.empty() &&
                 !arg.empty()) {
        order_.push_back(OrderDecl{subject, arg});
      } else if (std::strcmp(m, "BKR_THREAD_CONFINED") == 0 && !subject.empty()) {
        confined_.push_back(Confined{cls, subject});
      } else if (std::strcmp(m, "BKR_LOCK_FREE") == 0) {
        if (find_token(b.substr(0, pos), "atomic") == std::string::npos)
          add(file, "lock-free-not-atomic", bl[pos]);
      } else if (std::strcmp(m, "BKR_REQUIRES_LOCK") == 0 && !arg.empty()) {
        // `Ret name(params) BKR_REQUIRES_LOCK(mu);` — the declarator name
        // is the identifier before the parameter list's '('.
        const size_t close = b.rfind(')', pos);
        if (close == std::string::npos) continue;
        const size_t open = match_open_paren(b, close);
        if (open == std::string::npos) continue;
        const std::string fn = ident_before(b, open);
        if (!fn.empty()) requires_lock_[cls + "::" + fn].push_back(arg);
      }
    }
  }

  void walk_file(size_t file, Mode mode) {
    const SourceFile& f = files_[file];
    const std::string& s = f.blanked;
    std::vector<Scope> st(1);
    st[0].kind = ScopeKind::Namespace;
    held_.clear();
    std::string buf;
    std::vector<long> bl;
    int paren = 0;
    int init_depth = 0;
    long line = 1;
    bool line_has_code = false;
    auto push_char = [&](char c) {
      buf.push_back(c);
      bl.push_back(line);
    };
    for (size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '\n') {
        ++line;
        line_has_code = false;
        push_char(' ');
        continue;
      }
      if (c == '#' && !line_has_code) {
        // Preprocessor directive: consume (including continuation lines).
        while (i < s.size()) {
          if (s[i] == '\n') {
            bool cont = false;
            for (size_t k = i; k-- > 0 && s[k] != '\n';) {
              if (std::isspace(static_cast<unsigned char>(s[k])) == 0) {
                cont = s[k] == '\\';
                break;
              }
            }
            ++line;
            if (!cont) break;
          }
          ++i;
        }
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) == 0) line_has_code = true;
      if (init_depth > 0) {
        if (c == '{') ++init_depth;
        if (c == '}') --init_depth;
        push_char(c);
        continue;
      }
      switch (c) {
        case '(':
          ++paren;
          push_char(c);
          break;
        case ')':
          --paren;
          push_char(c);
          break;
        case ';':
          if (paren > 0) {
            push_char(c);
          } else {
            statement(st, mode, file, buf, bl);
            buf.clear();
            bl.clear();
          }
          break;
        case ':': {
          // Access specifiers and switch labels terminate without ';'.
          const bool dbl = (i + 1 < s.size() && s[i + 1] == ':') || (i > 0 && s[i - 1] == ':');
          if (!dbl && paren == 0) {
            const std::string t = ident_before(buf, buf.size());
            const std::string h = normalize(buf);
            if (t == "public" || t == "private" || t == "protected") {
              if (st.back().kind == ScopeKind::Class) st.back().access = t == "public" ? 1 : 0;
              buf.clear();
              bl.clear();
              break;
            }
            if (t == "default" || h.rfind("case ", 0) == 0 || h == "case") {
              buf.clear();
              bl.clear();
              break;
            }
          }
          push_char(c);
          break;
        }
        case '{': {
          const OpenInfo info = classify_open(buf);
          if (info.kind == ScopeKind::Block && !normalize(buf).empty()) {
            // Brace initializer (or enum body): stay inside the statement.
            init_depth = 1;
            push_char(c);
            break;
          }
          Scope sc;
          sc.kind = info.kind;
          sc.cls = st.back().cls;
          sc.access = st.back().access;
          sc.in_function = st.back().in_function;
          sc.dispatch = st.back().dispatch;
          sc.reduction = st.back().reduction;
          sc.body_start = i + 1;
          sc.open_line = line;
          switch (info.kind) {
            case ScopeKind::Class:
              sc.cls = info.name;
              sc.access = info.struct_like ? 1 : 0;
              sc.in_function = false;
              sc.dispatch = sc.reduction = false;
              break;
            case ScopeKind::Function: {
              sc.in_function = true;
              sc.fn_name = info.name;
              sc.dispatch = sc.reduction = false;
              if (!info.qualifier.empty()) sc.cls = info.qualifier;
              if (mode == Mode::Check) {
                // Inline definitions at public class scope / namespace
                // scope of a header are coverage candidates too.
                const bool decl_scope =
                    (st.back().kind == ScopeKind::Class && st.back().access == 1) ||
                    st.back().kind == ScopeKind::Namespace;
                if (decl_scope && is_header(f.path)) maybe_candidate(st, info.head, file, line);
                std::vector<std::string> seeds = info.seeds;
                const auto rl = requires_lock_.find(sc.cls + "::" + info.name);
                if (rl != requires_lock_.end())
                  seeds.insert(seeds.end(), rl->second.begin(), rl->second.end());
                for (const std::string& mu : seeds) {
                  held_.push_back(mu);
                  sc.acquired.push_back(mu);
                }
              }
              break;
            }
            case ScopeKind::Lambda: {
              sc.in_function = true;
              sc.saved_buf = buf;
              sc.saved_buf_lines = bl;
              sc.saved_paren = paren;
              if (find_token(buf, "run") != std::string::npos ||
                  find_token(buf, "parallel_for") != std::string::npos) {
                sc.dispatch = true;
                sc.reduction = find_token(buf, "Dot") != std::string::npos ||
                               find_token(buf, "Norms") != std::string::npos;
              }
              paren = 0;
              break;
            }
            case ScopeKind::Control:
              statement(st, mode, file, buf, bl);
              break;
            default:
              break;
          }
          st.push_back(std::move(sc));
          buf.clear();
          bl.clear();
          break;
        }
        case '}': {
          statement(st, mode, file, buf, bl);
          buf.clear();
          bl.clear();
          if (st.size() <= 1) break;  // stray close (unbalanced input)
          Scope sc = std::move(st.back());
          st.pop_back();
          for (const std::string& mu : sc.acquired) {
            const auto it = std::find(held_.begin(), held_.end(), mu);
            if (it != held_.end()) held_.erase(it);
          }
          if (sc.kind == ScopeKind::Lambda) {
            if (mode == Mode::Check && sc.dispatch && sc.reduction &&
                determinism_scope(f.path)) {
              const std::string body = s.substr(sc.body_start, i - sc.body_start);
              if (find_token(body, "kReduceChunk") == std::string::npos)
                add(file, "nonshared-reduce-chunk", sc.open_line);
            }
            buf = std::move(sc.saved_buf);
            bl = std::move(sc.saved_buf_lines);
            paren = sc.saved_paren;
          } else if (sc.kind == ScopeKind::Function && mode == Mode::Check) {
            defs_.emplace(sc.cls + "::" + sc.fn_name,
                          s.substr(sc.body_start, i - sc.body_start));
          }
          break;
        }
        default:
          push_char(c);
          break;
      }
    }
  }

  // ---- post passes ----

  void check_lock_order() {
    for (const OrderDecl& d : order_)
      for (const ObservedPair& p : observed_)
        if (p.held == d.second && p.acquired == d.first)
          add(p.file, "lock-order-inversion", p.line);
  }

  static bool body_has_contract(const std::string& body) {
    for (const char* t : kContractTokens)
      if (find_token(body, t) != std::string::npos) return true;
    return false;
  }

  void check_coverage() {
    if (candidates_.empty()) return;
    // Collapse overloads / re-declarations onto one entry per class::name.
    std::map<std::string, Candidate> uniq;
    for (const Candidate& c : candidates_) uniq.emplace(c.cls + "::" + c.name, c);
    std::map<std::string, bool> covered;
    for (const auto& [key, c] : uniq) {
      bool cov = false;
      const auto range = defs_.equal_range(key);
      for (auto it = range.first; it != range.second; ++it)
        cov = cov || body_has_contract(it->second);
      covered[key] = cov;
    }
    // Delegation fixed point: an entry whose definition calls an already
    // covered entry inherits its checks.
    for (bool changed = true; changed;) {
      changed = false;
      for (const auto& [key, c] : uniq) {
        if (covered[key]) continue;
        const auto range = defs_.equal_range(key);
        for (auto it = range.first; it != range.second && !covered[key]; ++it) {
          for (const auto& [key2, c2] : uniq) {
            if (key2 == key || !covered[key2]) continue;
            const size_t pos = find_token(it->second, c2.name);
            if (pos == std::string::npos) continue;
            size_t j = pos + c2.name.size();
            const std::string& b = it->second;
            while (j < b.size() && std::isspace(static_cast<unsigned char>(b[j])) != 0) ++j;
            if (j < b.size() && (b[j] == '(' || b[j] == '<')) {
              covered[key] = true;
              changed = true;
              break;
            }
          }
        }
      }
    }
    size_t total = uniq.size(), cov = 0;
    for (const auto& [key, c] : covered) cov += c ? 1 : 0;
    coverage_detail_ = covered;
    const double coverage = double(cov) / double(total);
    measured_coverage_ = coverage;
    if (coverage + 1e-9 < coverage_floor_) {
      char msg[160];
      std::snprintf(msg, sizeof(msg),
                    "public data-plane entry contract coverage %.0f%% (%zu/%zu) below floor %.0f%%",
                    100.0 * coverage, cov, total, 100.0 * coverage_floor_);
      findings_.push_back(Finding{"contract-coverage", "src", 0, msg});
    }
  }

 public:
  [[nodiscard]] double measured_coverage() const { return measured_coverage_; }
  [[nodiscard]] const std::map<std::string, bool>& coverage_detail() const {
    return coverage_detail_;
  }

 private:
  std::vector<SourceFile> files_;
  double coverage_floor_;
  double measured_coverage_ = 0.0;
  std::map<std::string, bool> coverage_detail_;  // cls::fn -> has a contract
  std::vector<Finding> findings_;
  std::vector<std::vector<Edge>> edges_;
  std::vector<Guarded> guarded_;
  std::vector<Confined> confined_;
  std::vector<OrderDecl> order_;
  std::vector<ObservedPair> observed_;
  std::map<std::string, std::vector<std::string>> requires_lock_;  // cls::fn -> mus
  std::multimap<std::string, std::string> defs_;                   // cls::fn -> body
  std::vector<Candidate> candidates_;
  std::vector<std::string> held_;
};

// The coverage floor baked against the current tree (measured 63/93 = 67%;
// losing a single covered entry drops to 66%). Raise it as coverage grows,
// never lower it (override for experiments via --coverage-floor).
constexpr double kDefaultCoverageFloor = 0.66;

std::vector<Finding> analyze_files(std::vector<SourceFile> files, double floor_value) {
  Analyzer an(std::move(files), floor_value);
  return an.run();
}

bool should_scan(const fs::path& p);

std::vector<SourceFile> load_tree_files(const fs::path& root, const char* sub) {
  std::vector<SourceFile> files;
  const fs::path dir = root / sub;
  if (fs::exists(dir)) {
    std::vector<fs::path> paths;
    for (const auto& entry : fs::recursive_directory_iterator(dir))
      if (entry.is_regular_file() && should_scan(entry.path())) paths.push_back(entry.path());
    std::sort(paths.begin(), paths.end());
    for (const fs::path& p : paths) {
      std::ifstream in(p, std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      files.push_back(make_source(fs::relative(p, root).generic_string(), ss.str()));
    }
  }
  return files;
}

std::vector<SourceFile> load_project_files(const fs::path& root) {
  return load_tree_files(root, "src");
}

std::vector<Finding> analyze_tree(const fs::path& root, double floor_value) {
  return analyze_files(load_project_files(root), floor_value);
}

// --coverage-report: dump every public data-plane entry with its covered
// status, so a failing contract-coverage gate points at concrete names.
int coverage_report_tree(const fs::path& root, double floor_value) {
  Analyzer an(load_project_files(root), floor_value);
  (void)an.run();
  size_t cov = 0;
  for (const auto& [key, covered] : an.coverage_detail()) {
    std::printf("%-9s %s\n", covered ? "covered" : "UNCOVERED", key.c_str());
    cov += covered ? 1 : 0;
  }
  const size_t total = an.coverage_detail().size();
  std::printf("coverage: %zu/%zu = %.1f%% (floor %.0f%%)\n", cov, total,
              total == 0 ? 0.0 : 100.0 * double(cov) / double(total), 100.0 * floor_value);
  return an.measured_coverage() + 1e-9 < floor_value ? 1 : 0;
}

// ---------------------------------------------------------------------------
// bkr-hotpath: call-graph hot-path discipline analysis.
//
// Seeds: BKR_HOT function definitions, BKR_HOT_LOOP loop bodies, and lambdas
// submitted to KernelExecutor::run / parallel_for. Hotness propagates over a
// name-based intra-project call graph; BKR_COLD stops it at an annotated
// callee and hides it inside an annotated block or lambda (no edges, no
// findings). Rules checked over hot code:
//
//   hot-path-alloc    heap traffic: new / malloc-family calls anywhere hot;
//                     container growth (push_back / emplace_back / resize /
//                     assign / insert / emplace) whose receiver has no
//                     visible `.reserve(` in the same function body; owning
//                     container/matrix declarations inside a BKR_HOT_LOOP
//                     body (hoist them into a SolverWorkspace slot).
//   hot-path-lock     mutex acquisition (lock_guard / unique_lock /
//                     scoped_lock / .lock()).
//   hot-path-io       stream or stdio output, file open.
//   hot-path-throw    `throw` other than `throw BreakdownError(...)` — the
//                     documented breakdown escalation path.
//   hot-path-virtual  virtual-method call inside a BKR_HOT_LOOP body.
//                     Classes annotated `class BKR_COLD X` (null-guarded,
//                     amortized observers) are exempt.
//   hot-path-clock    raw clock read (`now(`) inside a BKR_HOT_LOOP body.
//                     The sanctioned cancellation/deadline check is
//                     `SolveContext::poll_cancel()` (DESIGN.md §15): a relaxed
//                     atomic load plus one steady_clock compare per outer
//                     iteration that escalates via `throw BreakdownError`,
//                     all of which this stage deliberately allows — the
//                     poll helper is exempt; ad-hoc clock math in the loop
//                     body itself is not.

class Hotpath {
 public:
  explicit Hotpath(std::vector<SourceFile> files) : files_(std::move(files)) {}

  std::vector<Finding> run() {
    newlines_.resize(files_.size());
    for (size_t i = 0; i < files_.size(); ++i) {
      for (size_t j = 0; j < files_[i].blanked.size(); ++j)
        if (files_[i].blanked[j] == '\n') newlines_[i].push_back(j);
      walk_file(i);
    }
    propagate();
    for (const HpFn& fn : fns_) check_fn(fn);
    // A dispatch lambda nested in a hot function is scanned twice (as its
    // own seed and as enclosing-body text); collapse the duplicates.
    std::sort(findings_.begin(), findings_.end(), [](const Finding& a, const Finding& b) {
      return std::tie(a.rule, a.path, a.line) < std::tie(b.rule, b.path, b.line);
    });
    findings_.erase(std::unique(findings_.begin(), findings_.end(),
                                [](const Finding& a, const Finding& b) {
                                  return a.rule == b.rule && a.path == b.path && a.line == b.line;
                                }),
                    findings_.end());
    return std::move(findings_);
  }

 private:
  using Range = std::pair<size_t, size_t>;

  struct HpFn {
    std::string name;  // unqualified; "" for dispatch lambdas
    size_t file = 0;
    size_t body_begin = 0, body_end = 0;  // offsets into the blanked text
    long open_line = 0;
    bool hot = false;   // BKR_HOT seed, dispatch-lambda seed, or propagated
    bool cold = false;  // BKR_COLD on the head: no checks, stops propagation
    bool mined = false;             // whole body already mined for edges
    bool member = false;  // defined in a class body or as `Class::name`
    std::vector<Range> cold_ranges;  // BKR_COLD blocks / lambdas inside
    std::vector<Range> loop_ranges;  // BKR_HOT_LOOP bodies inside
  };

  struct WScope {
    ScopeKind kind = ScopeKind::Block;
    int fn = -1;            // innermost enclosing HpFn record
    bool owns_fn = false;   // this scope created fns_[fn]
    bool cold = false;      // the scope itself is a BKR_COLD region
    bool cold_ctx = false;  // some enclosing scope is cold
    bool hot_loop = false;
    std::string cls;  // enclosing class (virtual harvest)
    bool cls_cold = false;
    size_t body_start = 0;
    long open_line = 0;
    std::string saved_buf;  // Lambda: suspended outer statement
    int saved_paren = 0;
  };

  static bool in_ranges(const std::vector<Range>& rs, size_t off) {
    for (const Range& r : rs)
      if (off >= r.first && off < r.second) return true;
    return false;
  }

  void add(size_t file, const std::string& rule, long line_no) {
    const SourceFile& f = files_[file];
    if (f.file_allows.count(rule) != 0) return;
    const auto it = f.allows.find(line_no);
    if (it != f.allows.end() && it->second.count(rule) != 0) return;
    const std::string raw = (line_no >= 1 && size_t(line_no) <= f.raw_lines.size())
                                ? f.raw_lines[size_t(line_no) - 1]
                                : std::string();
    findings_.push_back(Finding{rule, f.path, line_no, normalize(raw)});
  }

  // Line number of an offset into the blanked text (same newlines as raw).
  long line_of(size_t file, size_t off) const {
    const std::vector<size_t>& nl = newlines_[file];
    return long(std::upper_bound(nl.begin(), nl.end(), off) - nl.begin()) + 1;
  }

  // ---- scope walk: collect function records, regions, virtual methods ----

  void walk_file(size_t file) {
    const SourceFile& f = files_[file];
    const std::string& s = f.blanked;
    std::vector<WScope> st(1);
    st[0].kind = ScopeKind::Namespace;
    std::string buf;
    int paren = 0;
    int init_depth = 0;
    long line = 1;
    bool line_has_code = false;
    for (size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '\n') {
        ++line;
        line_has_code = false;
        buf.push_back(' ');
        continue;
      }
      if (c == '#' && !line_has_code) {
        while (i < s.size()) {
          if (s[i] == '\n') {
            bool cont = false;
            for (size_t k = i; k-- > 0 && s[k] != '\n';) {
              if (std::isspace(static_cast<unsigned char>(s[k])) == 0) {
                cont = s[k] == '\\';
                break;
              }
            }
            ++line;
            if (!cont) break;
          }
          ++i;
        }
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) == 0) line_has_code = true;
      if (init_depth > 0) {
        if (c == '{') ++init_depth;
        if (c == '}') --init_depth;
        buf.push_back(c);
        continue;
      }
      switch (c) {
        case '(':
          ++paren;
          buf.push_back(c);
          break;
        case ')':
          --paren;
          buf.push_back(c);
          break;
        case ';':
          if (paren > 0) {
            buf.push_back(c);
          } else {
            harvest_virtual(st.back(), buf);
            buf.clear();
          }
          break;
        case ':': {
          const bool dbl = (i + 1 < s.size() && s[i + 1] == ':') || (i > 0 && s[i - 1] == ':');
          if (!dbl && paren == 0) {
            const std::string t = ident_before(buf, buf.size());
            const std::string h = normalize(buf);
            if (t == "public" || t == "private" || t == "protected" || t == "default" ||
                h.rfind("case ", 0) == 0 || h == "case") {
              buf.clear();
              break;
            }
          }
          buf.push_back(c);
          break;
        }
        case '{': {
          const OpenInfo info = classify_open(buf);
          if (info.kind == ScopeKind::Block && !normalize(buf).empty()) {
            init_depth = 1;  // brace initializer: stay inside the statement
            buf.push_back(c);
            break;
          }
          WScope sc;
          sc.kind = info.kind;
          sc.fn = st.back().fn;
          sc.cls = st.back().cls;
          sc.cls_cold = st.back().cls_cold;
          sc.cold_ctx = st.back().cold_ctx || st.back().cold;
          sc.cold = info.cold;
          sc.body_start = i + 1;
          sc.open_line = line;
          switch (info.kind) {
            case ScopeKind::Class:
              sc.cls = info.name;
              sc.cls_cold = info.cold;
              sc.fn = -1;
              sc.cold = false;
              break;
            case ScopeKind::Function: {
              if (st.back().kind == ScopeKind::Class && !st.back().cls_cold &&
                  find_token(normalize(buf), "virtual") != std::string::npos)
                virtuals_.insert(info.name);  // inline-defined virtual
              HpFn fn;
              fn.name = info.name;
              fn.file = file;
              fn.body_begin = i + 1;
              fn.open_line = line;
              fn.hot = info.hot;
              fn.cold = info.cold;
              fn.member = st.back().kind == ScopeKind::Class || !info.qualifier.empty();
              sc.fn = int(fns_.size());
              sc.owns_fn = true;
              fns_.push_back(std::move(fn));
              break;
            }
            case ScopeKind::Lambda: {
              sc.saved_buf = buf;
              sc.saved_paren = paren;
              paren = 0;
              const bool dispatch = find_token(buf, "run") != std::string::npos ||
                                    find_token(buf, "parallel_for") != std::string::npos;
              if (dispatch && !info.cold && !sc.cold_ctx) {
                HpFn fn;  // per-element body: an implicit hot seed
                fn.file = file;
                fn.body_begin = i + 1;
                fn.open_line = line;
                fn.hot = true;
                sc.fn = int(fns_.size());
                sc.owns_fn = true;
                fns_.push_back(std::move(fn));
              }
              break;
            }
            case ScopeKind::Control:
              sc.hot_loop = info.hot_loop;
              break;
            default:
              break;
          }
          st.push_back(std::move(sc));
          buf.clear();
          break;
        }
        case '}': {
          harvest_virtual(st.back(), buf);
          buf.clear();
          if (st.size() <= 1) break;
          WScope sc = std::move(st.back());
          st.pop_back();
          if (sc.kind == ScopeKind::Lambda) {
            buf = std::move(sc.saved_buf);
            paren = sc.saved_paren;
          }
          if (sc.owns_fn) {
            fns_[size_t(sc.fn)].body_end = i;
          } else if (sc.fn >= 0) {
            // Attach to every enclosing function record: a hot enclosing
            // function scans its full body, including nested lambda text.
            int prev = -1;
            for (const WScope& up : st) {
              if (up.fn < 0 || up.fn == prev) continue;
              prev = up.fn;
              HpFn& owner = fns_[size_t(up.fn)];
              if (sc.cold)
                owner.cold_ranges.push_back(Range{sc.body_start, i});
              else if (sc.hot_loop && !sc.cold_ctx)
                owner.loop_ranges.push_back(Range{sc.body_start, i});
            }
          }
          break;
        }
        default:
          buf.push_back(c);
          break;
      }
    }
  }

  // `virtual Ret name(...)...;` declared in a class body. Classes whose head
  // carries BKR_COLD are exempt from the hot-path-virtual rule.
  void harvest_virtual(const WScope& scope, const std::string& buf) {
    if (scope.kind != ScopeKind::Class || scope.cls_cold) return;
    const std::string h = normalize(buf);
    if (find_token(h, "virtual") == std::string::npos) return;
    const size_t open = h.find('(');
    if (open == std::string::npos) return;
    const std::string name = ident_before(h, open);
    if (!name.empty()) virtuals_.insert(name);
  }

  // ---- transitive hotness over the name-based call graph ----

  // The receiver chain left of a '.'/'->', subscript groups stripped:
  // `st.history[size_t(c)].push_back` and `st.history.reserve` both yield
  // `st.history`, so a reserve on the container covers subscripted growth.
  static std::string receiver_base(const std::string& s, size_t dot) {
    std::string out;
    size_t i = dot;  // exclusive end of the receiver
    bool after_dot = false;
    while (i > 0) {
      const char c = s[i - 1];
      if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        if (!after_dot) {
          // Whitespace binds only across a pending '.'/'->' (wrapped chain)
          // or just before one.
          size_t j = i - 1;
          while (j > 0 && std::isspace(static_cast<unsigned char>(s[j - 1])) != 0) --j;
          if (j == 0 || (s[j - 1] != '.' && !(s[j - 1] == '>' && j >= 2 && s[j - 2] == '-')))
            break;
        }
        --i;
        continue;
      }
      after_dot = false;
      if (c == ']') {
        int depth = 0;
        size_t j = i;
        while (j-- > 0) {
          if (s[j] == ']') ++depth;
          if (s[j] == '[' && --depth == 0) break;
        }
        i = j;  // subscript stripped from the chain
        continue;
      }
      if (is_ident(c)) {
        size_t b = i;
        while (b > 0 && is_ident(s[b - 1])) --b;
        out.insert(0, s.substr(b, i - b));
        i = b;
        continue;
      }
      if (c == '.') {
        out.insert(0, ".");
        --i;
        after_dot = true;
        continue;
      }
      if (c == '>' && i >= 2 && s[i - 2] == '-') {
        out.insert(0, "->");
        i -= 2;
        after_dot = true;
        continue;
      }
      break;
    }
    return out;
  }

  // Callee names (`ident(`) in [begin,end) of a function's body, skipping
  // BKR_COLD sub-ranges and exception construction (`throw X(...)`).
  // Member calls (`x.name(` / `p->name(`) do NOT emit edges: without type
  // information a name-based graph would conflate unrelated methods (every
  // `.resize(` would heat ThreadPool::resize, every `.load(` the recycle
  // cache). Methods on the per-iteration path carry BKR_HOT themselves.
  void mine_segment(const HpFn& fn, size_t begin, size_t end,
                    std::vector<std::string>& out) const {
    const std::string& s = files_[fn.file].blanked;
    std::string prev_word;
    for (size_t i = begin; i < end && i < s.size();) {
      if (!is_ident(s[i])) {
        ++i;
        continue;
      }
      const size_t b = i;
      while (i < end && is_ident(s[i])) ++i;
      const std::string w = s.substr(b, i - b);
      size_t j = i;
      while (j < end && std::isspace(static_cast<unsigned char>(s[j])) != 0) ++j;
      const bool member =
          b > 0 && (s[b - 1] == '.' || (s[b - 1] == '>' && b >= 2 && s[b - 2] == '-'));
      if (j < end && s[j] == '(' && !member && !in_ranges(fn.cold_ranges, b) &&
          prev_word != "throw")
        out.push_back(w);
      prev_word = w;
    }
  }

  // A bare call `name(` links only to non-member definitions of that name:
  // a hot kernel's free `store(` must not heat `Cache::store`.
  void propagate() {
    std::map<std::string, std::vector<size_t>> by_name;
    for (size_t i = 0; i < fns_.size(); ++i)
      if (!fns_[i].name.empty() && !fns_[i].member) by_name[fns_[i].name].push_back(i);
    std::vector<size_t> work;
    for (size_t i = 0; i < fns_.size(); ++i)
      if (!fns_[i].cold && (fns_[i].hot || !fns_[i].loop_ranges.empty())) work.push_back(i);
    while (!work.empty()) {
      const size_t idx = work.back();
      work.pop_back();
      HpFn& fn = fns_[idx];
      std::vector<std::string> callees;
      if (fn.hot) {
        if (fn.mined) continue;
        fn.mined = true;
        mine_segment(fn, fn.body_begin, fn.body_end, callees);
      } else {
        // Only the annotated loop bodies of a lukewarm function are hot.
        for (const Range& r : fn.loop_ranges) mine_segment(fn, r.first, r.second, callees);
      }
      for (const std::string& name : callees) {
        const auto it = by_name.find(name);
        if (it == by_name.end()) continue;
        for (const size_t t : it->second) {
          if (fns_[t].cold || fns_[t].hot) continue;
          fns_[t].hot = true;
          work.push_back(t);
        }
      }
    }
  }

  // ---- rule checks over hot text ----

  static bool is_growth_call(const std::string& w) {
    return w == "push_back" || w == "emplace_back" || w == "resize" || w == "assign" ||
           w == "insert" || w == "emplace";
  }

  static bool is_io_token(const std::string& w) {
    return w == "cout" || w == "cerr" || w == "clog" || w == "printf" || w == "fprintf" ||
           w == "puts" || w == "fputs" || w == "fopen" || w == "fwrite" || w == "ofstream" ||
           w == "ifstream" || w == "fstream" || w == "getline";
  }

  static bool is_owning_container(const std::string& w) {
    return w == "vector" || w == "deque" || w == "DenseMatrix" || w == "IncrementalQR" ||
           w == "DenseLU";
  }

  // Does the function body contain `<receiver>.reserve(` (modulo subscripts)?
  bool has_reserve(const HpFn& fn, const std::string& receiver) const {
    const std::string& s = files_[fn.file].blanked;
    size_t pos = fn.body_begin;
    while (pos < fn.body_end) {
      const size_t hit = s.find("reserve", pos);
      if (hit == std::string::npos || hit >= fn.body_end) return false;
      pos = hit + 7;
      if (hit == 0 || is_ident(s[hit - 1])) continue;  // part of a longer ident
      size_t j = pos;
      while (j < s.size() && std::isspace(static_cast<unsigned char>(s[j])) != 0) ++j;
      if (j >= s.size() || s[j] != '(') continue;
      size_t dot = hit;
      while (dot > 0 && std::isspace(static_cast<unsigned char>(s[dot - 1])) != 0) --dot;
      if (dot == 0 || (s[dot - 1] != '.' && s[dot - 1] != '>')) continue;
      const size_t anchor = s[dot - 1] == '.' ? dot - 1 : dot - 2;
      if (receiver_base(s, anchor) == receiver) return true;
    }
    return false;
  }

  void check_fn(const HpFn& fn) {
    if (fn.cold) return;
    const bool whole = fn.hot;
    if (!whole && fn.loop_ranges.empty()) return;
    const std::string& s = files_[fn.file].blanked;
    std::string prev_word;
    for (size_t i = fn.body_begin; i < fn.body_end && i < s.size();) {
      if (!is_ident(s[i])) {
        if (std::isspace(static_cast<unsigned char>(s[i])) == 0) prev_word.clear();
        ++i;
        continue;
      }
      const size_t b = i;
      while (i < fn.body_end && is_ident(s[i])) ++i;
      const std::string w = s.substr(b, i - b);
      if (in_ranges(fn.cold_ranges, b)) {
        prev_word = w;
        continue;
      }
      const bool in_loop = in_ranges(fn.loop_ranges, b);
      if (!whole && !in_loop) {
        prev_word = w;
        continue;
      }
      size_t j = i;
      while (j < fn.body_end && std::isspace(static_cast<unsigned char>(s[j])) != 0) ++j;
      const char next = j < fn.body_end ? s[j] : '\0';
      const bool member = b > 0 && (s[b - 1] == '.' || (s[b - 1] == '>' && b >= 2 && s[b - 2] == '-'));
      const long line_no = line_of(fn.file, b);

      if (w == "new" && prev_word != "operator") {
        add(fn.file, "hot-path-alloc", line_no);
      } else if ((w == "malloc" || w == "calloc" || w == "realloc" || w == "aligned_alloc") &&
                 next == '(') {
        add(fn.file, "hot-path-alloc", line_no);
      } else if (member && is_growth_call(w) && next == '(') {
        const size_t anchor = s[b - 1] == '.' ? b - 1 : b - 2;
        const std::string recv = receiver_base(s, anchor);
        if (recv.empty() || !has_reserve(fn, recv)) add(fn.file, "hot-path-alloc", line_no);
      } else if (in_loop && !member && is_owning_container(w) && next == '<') {
        // An owning container declared inside a hot loop: skip references /
        // pointers / nested-name uses of the type.
        int depth = 0;
        size_t k = j;
        for (; k < fn.body_end; ++k) {
          if (s[k] == '<') ++depth;
          if (s[k] == '>' && --depth == 0) break;
        }
        ++k;
        while (k < fn.body_end && std::isspace(static_cast<unsigned char>(s[k])) != 0) ++k;
        const char after = k < fn.body_end ? s[k] : '\0';
        if (after == '(' || is_ident(after)) add(fn.file, "hot-path-alloc", line_no);
      } else if (w == "lock_guard" || w == "unique_lock" || w == "scoped_lock") {
        add(fn.file, "hot-path-lock", line_no);
      } else if (member && (w == "lock" || w == "try_lock") && next == '(') {
        add(fn.file, "hot-path-lock", line_no);
      } else if (is_io_token(w)) {
        add(fn.file, "hot-path-io", line_no);
      } else if (prev_word == "throw" || (w == "throw" && next == ';')) {
        if (w != "BreakdownError") add(fn.file, "hot-path-throw", line_no);
      } else if (in_loop && member && next == '(' && virtuals_.count(w) != 0) {
        add(fn.file, "hot-path-virtual", line_no);
      } else if (in_loop && w == "now" && next == '(') {
        // Deadline checks belong in SolveContext::poll_cancel (BKR_HOT, straight-
        // line, once per outer iteration) — the one sanctioned clock/cancel
        // poll site in hot code. A raw clock read spelled out in the loop
        // body is unbounded timing traffic and gets flagged.
        add(fn.file, "hot-path-clock", line_no);
      }
      prev_word = w;
    }
  }

  std::vector<SourceFile> files_;
  std::vector<std::vector<size_t>> newlines_;  // '\n' offsets per file
  std::vector<HpFn> fns_;
  std::set<std::string> virtuals_;
  std::vector<Finding> findings_;
};

std::vector<Finding> hotpath_files(std::vector<SourceFile> files) {
  Hotpath hp(std::move(files));
  return hp.run();
}

std::vector<Finding> hotpath_tree(const fs::path& root) {
  return hotpath_files(load_project_files(root));
}

// ---------------------------------------------------------------------------
// bkr-fpflow: intra-function precision-flow & numerical-safety analysis
// (DESIGN.md §14). A def-use walk over every function body in src/ that
// tracks scalar precision (float / double / std::complex widths) through
// declarations, assignments, casts and returns, the precondition for the
// mixed-precision work of ROADMAP item 3. Five rules:
//
//   implicit-narrowing          double -> float (or complex<double> ->
//                               complex<float>) flow — initialization,
//                               assignment, cast or return — without a
//                               BKR_ALLOW_NARROWING on the statement or
//                               the function head.
//   low-precision-accumulation  a float accumulator receiving += / -= in
//                               a loop body: the classic error-growth bug;
//                               accumulate in double (or annotate).
//   unguarded-division          dividing by a computed norm / dot / pivot
//                               value with no visible zero or non-finite
//                               guard on the divisor anywhere in the
//                               function and no BKR_GUARDED_DIV — the cg
//                               dq breakdown fixed in PR 5 is this class.
//   mixed-literal               an f-suffixed and an unsuffixed fractional
//                               literal on one line: one of them is almost
//                               certainly the wrong precision.
//   oracle-mismatch             a narrowing component (class or function
//                               carrying BKR_ALLOW_NARROWING /
//                               BKR_PRECISION_BOUNDARY) referenced from
//                               src/core — i.e. reachable from a solver
//                               entry — with no BKR_TOLERANCE_ORACLE(c)
//                               covering it in tests/.
//
// Like the other stages this is lexical, not semantic: `auto` and template
// scalars stay Unknown and produce no findings (no false positives from
// generic code), so the rules bind exactly where precision is spelled out.

class Fpflow {
 public:
  Fpflow(std::vector<SourceFile> files, std::vector<SourceFile> test_files)
      : files_(std::move(files)), tests_(std::move(test_files)) {}

  std::vector<Finding> run() {
    newlines_.resize(files_.size());
    for (size_t i = 0; i < files_.size(); ++i) {
      for (size_t j = 0; j < files_[i].blanked.size(); ++j)
        if (files_[i].blanked[j] == '\n') newlines_[i].push_back(j);
      walk_file(i);
      check_mixed_literals(i);
    }
    for (const FpFn& fn : fns_) check_fn(fn);
    check_oracles();
    std::sort(findings_.begin(), findings_.end(), [](const Finding& a, const Finding& b) {
      return std::tie(a.path, a.line, a.rule) < std::tie(b.path, b.line, b.rule);
    });
    findings_.erase(std::unique(findings_.begin(), findings_.end(),
                                [](const Finding& a, const Finding& b) {
                                  return a.rule == b.rule && a.path == b.path && a.line == b.line;
                                }),
                    findings_.end());
    return std::move(findings_);
  }

 private:
  using Range = std::pair<size_t, size_t>;

  enum class Prec { Unknown, F32, F64, C32, C64 };
  static bool narrow(Prec p) { return p == Prec::F32 || p == Prec::C32; }
  static bool wide(Prec p) { return p == Prec::F64 || p == Prec::C64; }

  struct FpFn {
    std::string name;
    std::string cls;   // enclosing class, "" at namespace scope
    std::string head;  // normalized declarator head (params included)
    size_t file = 0;
    size_t body_begin = 0, body_end = 0;
    long open_line = 0;
    bool allow = false;  // BKR_ALLOW_NARROWING on the head
    std::vector<Range> loop_ranges;
  };

  struct ClassRange {
    std::string name;
    size_t file = 0;
    size_t begin = 0, end = 0;
  };

  struct WScope {
    ScopeKind kind = ScopeKind::Block;
    int fn = -1;
    bool owns_fn = false;
    bool loop = false;
    std::string cls;
    size_t body_start = 0;
    size_t cls_idx = size_t(-1);  // open ClassRange being built
    std::string saved_buf;        // Lambda: suspended outer statement
    int saved_paren = 0;
  };

  static bool in_ranges(const std::vector<Range>& rs, size_t off) {
    for (const Range& r : rs)
      if (off >= r.first && off < r.second) return true;
    return false;
  }

  void add(size_t file, const std::string& rule, long line_no) {
    const SourceFile& f = files_[file];
    if (f.file_allows.count(rule) != 0) return;
    const auto it = f.allows.find(line_no);
    if (it != f.allows.end() && it->second.count(rule) != 0) return;
    const std::string raw = (line_no >= 1 && size_t(line_no) <= f.raw_lines.size())
                                ? f.raw_lines[size_t(line_no) - 1]
                                : std::string();
    findings_.push_back(Finding{rule, f.path, line_no, normalize(raw)});
  }

  long line_of(size_t file, size_t off) const {
    const std::vector<size_t>& nl = newlines_[file];
    return long(std::upper_bound(nl.begin(), nl.end(), off) - nl.begin()) + 1;
  }

  // First statement token is a loop introducer (annotations skipped).
  static bool loop_head(const std::string& raw_head) {
    std::stringstream ts(normalize(raw_head));
    std::string tok;
    while (ts >> tok) {
      if (tok == "BKR_HOT_LOOP" || tok == "BKR_HOT" || tok == "BKR_COLD") continue;
      break;
    }
    if (tok == "do" || tok == "while") return true;
    return tok.rfind("for", 0) == 0 && (tok.size() == 3 || tok[3] == '(');
  }

  // ---- scope walk: function records, loop ranges, class ranges ----

  void walk_file(size_t file) {
    const SourceFile& f = files_[file];
    const std::string& s = f.blanked;
    std::vector<WScope> st(1);
    st[0].kind = ScopeKind::Namespace;
    std::string buf;
    int paren = 0;
    int init_depth = 0;
    long line = 1;
    bool line_has_code = false;
    for (size_t i = 0; i < s.size(); ++i) {
      const char c = s[i];
      if (c == '\n') {
        ++line;
        line_has_code = false;
        buf.push_back(' ');
        continue;
      }
      if (c == '#' && !line_has_code) {
        while (i < s.size()) {
          if (s[i] == '\n') {
            bool cont = false;
            for (size_t k = i; k-- > 0 && s[k] != '\n';) {
              if (std::isspace(static_cast<unsigned char>(s[k])) == 0) {
                cont = s[k] == '\\';
                break;
              }
            }
            ++line;
            if (!cont) break;
          }
          ++i;
        }
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c)) == 0) line_has_code = true;
      if (init_depth > 0) {
        if (c == '{') ++init_depth;
        if (c == '}') --init_depth;
        buf.push_back(c);
        continue;
      }
      switch (c) {
        case '(':
          ++paren;
          buf.push_back(c);
          break;
        case ')':
          --paren;
          buf.push_back(c);
          break;
        case ';':
          if (paren > 0)
            buf.push_back(c);
          else
            buf.clear();
          break;
        case ':': {
          const bool dbl = (i + 1 < s.size() && s[i + 1] == ':') || (i > 0 && s[i - 1] == ':');
          if (!dbl && paren == 0) {
            const std::string t = ident_before(buf, buf.size());
            const std::string h = normalize(buf);
            if (t == "public" || t == "private" || t == "protected" || t == "default" ||
                h.rfind("case ", 0) == 0 || h == "case") {
              buf.clear();
              break;
            }
          }
          buf.push_back(c);
          break;
        }
        case '{': {
          const OpenInfo info = classify_open(buf);
          if (info.kind == ScopeKind::Block && !normalize(buf).empty()) {
            init_depth = 1;
            buf.push_back(c);
            break;
          }
          WScope sc;
          sc.kind = info.kind;
          sc.fn = st.back().fn;
          sc.cls = st.back().cls;
          sc.body_start = i + 1;
          switch (info.kind) {
            case ScopeKind::Class:
              sc.cls = info.name;
              sc.fn = -1;
              sc.cls_idx = classes_.size();
              classes_.push_back(ClassRange{info.name, file, i + 1, 0});
              break;
            case ScopeKind::Function:
              if (st.back().fn < 0) {
                FpFn fn;
                fn.name = info.name;
                fn.cls = !info.qualifier.empty() ? info.qualifier : st.back().cls;
                fn.head = normalize(buf);
                fn.file = file;
                fn.body_begin = i + 1;
                fn.open_line = line;
                fn.allow = find_token(fn.head, "BKR_ALLOW_NARROWING") != std::string::npos;
                sc.fn = int(fns_.size());
                sc.owns_fn = true;
                fns_.push_back(std::move(fn));
              }
              break;
            case ScopeKind::Lambda:
              sc.saved_buf = buf;
              sc.saved_paren = paren;
              paren = 0;
              break;
            case ScopeKind::Control:
              sc.loop = loop_head(buf);
              break;
            default:
              break;
          }
          st.push_back(std::move(sc));
          buf.clear();
          break;
        }
        case '}': {
          buf.clear();
          if (st.size() <= 1) break;
          WScope sc = std::move(st.back());
          st.pop_back();
          if (sc.kind == ScopeKind::Lambda) {
            buf = std::move(sc.saved_buf);
            paren = sc.saved_paren;
          }
          if (sc.cls_idx != size_t(-1)) classes_[sc.cls_idx].end = i;
          if (sc.owns_fn)
            fns_[size_t(sc.fn)].body_end = i;
          else if (sc.loop && sc.fn >= 0)
            fns_[size_t(sc.fn)].loop_ranges.push_back(Range{sc.body_start, i});
          break;
        }
        default:
          buf.push_back(c);
          break;
      }
    }
  }

  // ---- precision lattice helpers ----

  // Unsuffixed fractional / exponent literal (0.1, 1e-14, 2.), i.e. a
  // double literal. The f-suffixed twin is has_float_literal above.
  static bool has_plain_double_literal(const std::string& text) {
    for (size_t i = 0; i < text.size(); ++i) {
      if (std::isdigit(static_cast<unsigned char>(text[i])) == 0) continue;
      if (i > 0 && (is_ident(text[i - 1]) || text[i - 1] == '.')) {
        while (i < text.size() && (is_ident(text[i]) || text[i] == '.')) ++i;
        continue;
      }
      size_t j = i;
      bool fractional = false;
      while (j < text.size() &&
             (std::isdigit(static_cast<unsigned char>(text[j])) != 0 || text[j] == '.')) {
        if (text[j] == '.') fractional = true;
        ++j;
      }
      if (j < text.size() && (text[j] == 'e' || text[j] == 'E')) {
        fractional = true;
        ++j;
        if (j < text.size() && (text[j] == '+' || text[j] == '-')) ++j;
        while (j < text.size() && std::isdigit(static_cast<unsigned char>(text[j])) != 0) ++j;
      }
      if (fractional && (j >= text.size() || (!is_ident(text[j]) && text[j] != '.'))) return true;
      i = j;
    }
    return false;
  }

  // Declared variable name following a type token, or "" when the token is
  // a cast / return type / template argument rather than a declaration.
  static std::string decl_ident_after(const std::string& t, size_t from) {
    size_t i = from;
    for (;;) {
      while (i < t.size() && std::isspace(static_cast<unsigned char>(t[i])) != 0) ++i;
      if (i < t.size() && (t[i] == '&' || t[i] == '*')) {
        ++i;
        continue;
      }
      if (find_token(t, "const", i) == i) {
        i += 5;
        continue;
      }
      break;
    }
    if (i >= t.size() || !is_ident(t[i]) ||
        std::isdigit(static_cast<unsigned char>(t[i])) != 0)
      return {};
    size_t e = i;
    while (e < t.size() && is_ident(t[e])) ++e;
    const std::string name = t.substr(i, e - i);
    if (is_cxx_keyword(name)) return {};
    return name;
  }

  // Harvest `float x` / `double y` / `std::complex<float> z` declarations
  // (including function parameters when `text` is a declarator head).
  static void harvest_decls(const std::string& text, std::map<std::string, Prec>& vars) {
    std::string t = text;
    for (size_t pos = find_token(t, "complex"); pos != std::string::npos;
         pos = find_token(t, "complex", pos + 1)) {
      size_t lt = pos + 7;
      while (lt < t.size() && std::isspace(static_cast<unsigned char>(t[lt])) != 0) ++lt;
      if (lt >= t.size() || t[lt] != '<') continue;
      int depth = 0;
      size_t gt = lt;
      for (; gt < t.size(); ++gt) {
        if (t[gt] == '<') ++depth;
        if (t[gt] == '>' && --depth == 0) break;
      }
      if (gt >= t.size()) break;
      const std::string arg = t.substr(lt + 1, gt - lt - 1);
      Prec p = Prec::Unknown;
      if (find_token(arg, "float") != std::string::npos) p = Prec::C32;
      if (find_token(arg, "double") != std::string::npos) p = Prec::C64;
      const std::string var = decl_ident_after(t, gt + 1);
      if (p != Prec::Unknown && !var.empty()) vars[var] = p;
      for (size_t k = pos; k <= gt; ++k) t[k] = ' ';  // hide the template arg
    }
    const std::pair<const char*, Prec> kScalars[] = {{"float", Prec::F32},
                                                     {"double", Prec::F64}};
    for (const auto& [kw, prec] : kScalars) {
      const size_t len = std::strlen(kw);
      for (size_t pos = find_token(t, kw); pos != std::string::npos;
           pos = find_token(t, kw, pos + len)) {
        const std::string var = decl_ident_after(t, pos + len);
        if (!var.empty()) vars[var] = prec;
      }
    }
  }

  // Return-type precision of a declarator head: the type tokens before the
  // function name.
  static Prec return_precision(const std::string& head, const std::string& name) {
    const size_t pos = name.empty() ? std::string::npos : find_token(head, name);
    if (pos == std::string::npos) return Prec::Unknown;
    const std::string before = head.substr(0, pos);
    const size_t cpos = find_token(before, "complex");
    if (cpos != std::string::npos) {
      const size_t lt = before.find('<', cpos);
      if (lt != std::string::npos) {
        if (find_token(before, "float", lt) != std::string::npos) return Prec::C32;
        if (find_token(before, "double", lt) != std::string::npos) return Prec::C64;
      }
      return Prec::Unknown;
    }
    if (find_token(before, "float") != std::string::npos) return Prec::F32;
    if (find_token(before, "double") != std::string::npos) return Prec::F64;
    return Prec::Unknown;
  }

  // A source of double-width values in an expression: a wide-declared
  // variable, an unsuffixed fractional literal, or a `double` cast.
  static bool wide_source(const std::string& expr, const std::map<std::string, Prec>& vars) {
    if (has_plain_double_literal(expr)) return true;
    if (find_token(expr, "double") != std::string::npos) return true;
    for (const auto& [name, prec] : vars) {
      if (!wide(prec)) continue;
      if (find_token(expr, name) != std::string::npos) return true;
    }
    return false;
  }

  // Computed-denominator vocabulary: names and producer calls whose result
  // can legitimately be zero (norms of zero columns, dots at breakdown,
  // pivots of singular blocks) and therefore must be guarded before use as
  // a divisor.
  static bool computed_name(const std::string& name) {
    std::string lower;
    for (const char c : name) lower.push_back(char(std::tolower(static_cast<unsigned char>(c))));
    return lower.find("norm") != std::string::npos || lower.find("pivot") != std::string::npos ||
           lower.find("denom") != std::string::npos;
  }

  static bool has_producer_call(const std::string& expr) {
    static const char* const kProducers[] = {
        "dot",  "cdot",  "vdot",  "tree_dot", "dot_products", "norm",          "norms",
        "nrm2", "norm2", "gram",  "pivot",    "pivots",       "column_norms",  "diagonal",
        "tree_column_norms"};
    for (const char* p : kProducers)
      if (find_token(expr, p) != std::string::npos) return true;
    return false;
  }

  // Visible guard on `var` anywhere in the function body: a comparison
  // touching it (possibly through a subscript), an isfinite() on it, a
  // max()-clamp around it, or a range-for sanitize pass over it.
  static bool guarded_in(const std::string& body, const std::string& var) {
    for (size_t pos = find_token(body, var); pos != std::string::npos;
         pos = find_token(body, var, pos + 1)) {
      size_t b = pos;
      while (b > 0 && std::isspace(static_cast<unsigned char>(body[b - 1])) != 0) --b;
      if (b > 0) {
        const char c1 = body[b - 1];
        const char c2 = b > 1 ? body[b - 2] : '\0';
        if (c1 == '<' || c1 == '>') return true;
        if (c1 == '=' && (c2 == '=' || c2 == '!' || c2 == '<' || c2 == '>')) return true;
        if (c1 == ':' && c2 != ':') return true;  // range-for sanitize pass
        if (c1 == '(') {
          const std::string callee = ident_before(body, b - 1);
          if (callee == "isfinite" || callee == "max" || callee == "fmax" || callee == "abs")
            return true;
        }
      }
      size_t e = pos + var.size();
      for (;;) {  // skip subscripts / call args to the comparator
        while (e < body.size() && std::isspace(static_cast<unsigned char>(body[e])) != 0) ++e;
        if (e < body.size() && (body[e] == '[' || body[e] == '(')) {
          const char open = body[e];
          const char close = open == '[' ? ']' : ')';
          int depth = 0;
          while (e < body.size()) {
            if (body[e] == open) ++depth;
            if (body[e] == close && --depth == 0) {
              ++e;
              break;
            }
            ++e;
          }
          continue;
        }
        break;
      }
      if (e < body.size()) {
        const char c = body[e];
        const char c2 = e + 1 < body.size() ? body[e + 1] : '\0';
        if (c == '<' || c == '>') return true;
        if ((c == '=' || c == '!') && c2 == '=') return true;
      }
    }
    return false;
  }

  // Identifier tokens of an expression, skipping keywords.
  static std::vector<std::string> idents_of(const std::string& expr) {
    std::vector<std::string> out;
    for (size_t i = 0; i < expr.size(); ++i) {
      if (!is_ident(expr[i]) || std::isdigit(static_cast<unsigned char>(expr[i])) != 0) {
        while (i < expr.size() && is_ident(expr[i])) ++i;
        continue;
      }
      size_t e = i;
      while (e < expr.size() && is_ident(expr[e])) ++e;
      const std::string w = expr.substr(i, e - i);
      if (!is_cxx_keyword(w) && w != "std") out.push_back(w);
      i = e;
    }
    return out;
  }

  // Divisor expression after a '/' at `slash`: the primary expression up to
  // the next top-level additive / separator boundary. Over-capture past a
  // comparison is harmless — extra identifiers only widen the guard search.
  static std::string divisor_expr(const std::string& stmt, size_t slash) {
    size_t j = slash + 1;
    if (j < stmt.size() && stmt[j] == '=') ++j;  // x /= d
    const size_t start = j;
    int depth = 0;
    for (; j < stmt.size(); ++j) {
      const char ch = stmt[j];
      if (ch == '(' || ch == '[') ++depth;
      if (ch == ')' || ch == ']') {
        if (depth == 0) break;
        --depth;
      }
      if (depth == 0 && (ch == '+' || ch == '-' || ch == '*' || ch == ',' || ch == ';' ||
                         ch == '?' || ch == '=' || ch == '/'))
        break;
    }
    return stmt.substr(start, j - start);
  }

  // ---- per-function def-use walk ----

  void check_fn(const FpFn& fn) {
    const std::string& s = files_[fn.file].blanked;
    if (fn.body_end <= fn.body_begin || fn.body_end > s.size()) return;
    const std::string body = s.substr(fn.body_begin, fn.body_end - fn.body_begin);
    std::map<std::string, Prec> vars;
    std::set<std::string> computed;
    harvest_decls(fn.head, vars);
    for (const auto& [name, prec] : vars)
      if (computed_name(name)) computed.insert(name);
    const Prec ret = return_precision(fn.head, fn.name);

    size_t stmt_begin = fn.body_begin;
    int paren = 0;
    for (size_t i = fn.body_begin; i <= fn.body_end; ++i) {
      const char c = i < fn.body_end ? s[i] : ';';
      if (c == '(') ++paren;
      if (c == ')' && paren > 0) --paren;
      const bool end = (c == ';' && paren == 0) || c == '{' || c == '}' || i == fn.body_end;
      if (!end) continue;
      if (i > stmt_begin) {
        const std::string stmt = s.substr(stmt_begin, i - stmt_begin);
        check_stmt(fn, stmt, stmt_begin, body, vars, computed, ret);
      }
      stmt_begin = i + 1;
      paren = 0;
    }
  }

  void check_stmt(const FpFn& fn, const std::string& stmt, size_t off, const std::string& body,
                  std::map<std::string, Prec>& vars, std::set<std::string>& computed, Prec ret) {
    size_t first = 0;
    while (first < stmt.size() && std::isspace(static_cast<unsigned char>(stmt[first])) != 0)
      ++first;
    if (first == stmt.size()) return;
    const long line = line_of(fn.file, off + first);
    const bool allow =
        fn.allow || find_token(stmt, "BKR_ALLOW_NARROWING") != std::string::npos;
    const bool div_ok = find_token(stmt, "BKR_GUARDED_DIV") != std::string::npos;

    // Declarations first: the RHS of a narrow declaration is checked
    // against the *previous* environment, then the new vars take effect.
    std::map<std::string, Prec> declared;
    harvest_decls(stmt, declared);

    bool narrowed = false;
    const size_t assign = first_plain_assign(stmt);
    const std::string rhs =
        assign == std::string::npos ? std::string() : stmt.substr(assign + 1);

    // implicit-narrowing: narrow declaration or assignment fed by a wide
    // source, a narrowing cast, or a wide return from a narrow function.
    if (!allow) {
      for (const auto& [name, prec] : declared) {
        if (!narrow(prec) || assign == std::string::npos) continue;
        if (find_token(stmt.substr(0, assign), name) == std::string::npos) continue;
        if (wide_source(rhs, vars)) {
          add(fn.file, "implicit-narrowing", line);
          narrowed = true;
          break;
        }
      }
      if (!narrowed && assign != std::string::npos && declared.empty()) {
        const std::string lhs = ident_before(stmt, assign);
        const auto it = vars.find(lhs);
        if (it != vars.end() && narrow(it->second) && wide_source(rhs, vars)) {
          add(fn.file, "implicit-narrowing", line);
          narrowed = true;
        }
      }
      if (!narrowed && has_narrowing_cast(stmt, vars)) {
        add(fn.file, "implicit-narrowing", line);
        narrowed = true;
      }
      if (!narrowed && narrow(ret)) {
        const std::string norm_stmt = normalize(stmt);
        if (norm_stmt.rfind("return", 0) == 0 && wide_source(norm_stmt.substr(6), vars))
          add(fn.file, "implicit-narrowing", line);
      }
    }

    // low-precision-accumulation: narrow += / -= inside a loop body.
    if (!allow && in_ranges(fn.loop_ranges, off)) {
      for (const char* op : {"+=", "-="}) {
        const size_t pos = stmt.find(op);
        if (pos == std::string::npos) continue;
        const std::string acc = ident_before(stmt, pos);
        const auto it = vars.find(acc);
        const auto dit = declared.find(acc);
        const Prec p = dit != declared.end() ? dit->second
                                             : it != vars.end() ? it->second : Prec::Unknown;
        if (narrow(p)) {
          add(fn.file, "low-precision-accumulation", line);
          break;
        }
      }
    }

    for (const auto& [name, prec] : declared) vars[name] = prec;
    for (const auto& [name, prec] : declared)
      if (computed_name(name)) computed.insert(name);

    // Track computed denominators through assignment. A max()/fmax()-clamped
    // RHS is sanitized at production (`max(norm2(x), tiny)`) and is safe to
    // divide by.
    if (assign != std::string::npos) {
      const std::string lhs = ident_before(stmt, assign);
      if (!lhs.empty() && !clamped_rhs(rhs)) {
        bool is_computed = has_producer_call(rhs);
        if (!is_computed)
          for (const std::string& w : idents_of(rhs))
            if (computed.count(w) != 0) {
              is_computed = true;
              break;
            }
        if (is_computed) computed.insert(lhs);
      }
    }

    // unguarded-division: a computed value in divisor position with no
    // visible guard anywhere in the function.
    if (!div_ok && !allow) {
      for (size_t i = 0; i < stmt.size(); ++i) {
        if (stmt[i] != '/') continue;
        const std::string expr = divisor_expr(stmt, i);
        bool flagged = false;
        for (const std::string& w : idents_of(expr)) {
          if (computed.count(w) == 0) continue;
          if (guarded_in(body, w)) continue;
          add(fn.file, "unguarded-division", line_of(fn.file, off + i));
          flagged = true;
          break;
        }
        if (flagged) break;
      }
    }
  }

  // RHS whose outermost call is a max/fmax clamp.
  static bool clamped_rhs(const std::string& rhs) {
    const std::string t = normalize(rhs);
    size_t i = 0;
    while (i < t.size() && !is_ident(t[i])) ++i;
    size_t e = i;
    while (e < t.size() && is_ident(t[e])) ++e;
    std::string w = t.substr(i, e - i);
    if (w == "std") {
      while (e < t.size() && (t[e] == ':' || t[e] == ' ')) ++e;
      i = e;
      while (e < t.size() && is_ident(t[e])) ++e;
      w = t.substr(i, e - i);
    }
    return w == "max" || w == "fmax";
  }

  // Position of the first top-level plain '=' (not ==, !=, <=, >=, +=, ...).
  static size_t first_plain_assign(const std::string& stmt) {
    int depth = 0;
    for (size_t i = 0; i < stmt.size(); ++i) {
      const char c = stmt[i];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') --depth;
      if (c != '=' || depth != 0) continue;
      const char prev = i > 0 ? stmt[i - 1] : '\0';
      const char next = i + 1 < stmt.size() ? stmt[i + 1] : '\0';
      if (next == '=') {
        ++i;
        continue;
      }
      if (prev == '=' || prev == '!' || prev == '<' || prev == '>' || prev == '+' ||
          prev == '-' || prev == '*' || prev == '/' || prev == '%' || prev == '&' ||
          prev == '|' || prev == '^')
        continue;
      return i;
    }
    return std::string::npos;
  }

  // `float(...)` / `static_cast<float>(...)` over a wide expression.
  static bool has_narrowing_cast(const std::string& stmt, const std::map<std::string, Prec>& vars) {
    for (size_t pos = find_token(stmt, "float"); pos != std::string::npos;
         pos = find_token(stmt, "float", pos + 5)) {
      size_t j = pos + 5;
      while (j < stmt.size() && std::isspace(static_cast<unsigned char>(stmt[j])) != 0) ++j;
      if (j >= stmt.size()) break;
      std::string inner;
      if (stmt[j] == '(') {
        inner = balanced(stmt, j);
      } else if (stmt[j] == '>' && pos >= 1) {
        // static_cast<float>(expr) / complex<float>(expr)
        const size_t call = stmt.find('(', j);
        if (call == std::string::npos) continue;
        inner = balanced(stmt, call);
      } else {
        continue;
      }
      if (wide_source(inner, vars)) return true;
    }
    return false;
  }

  static std::string balanced(const std::string& s, size_t open) {
    int depth = 0;
    for (size_t i = open; i < s.size(); ++i) {
      if (s[i] == '(') ++depth;
      if (s[i] == ')' && --depth == 0) return s.substr(open + 1, i - open - 1);
    }
    return s.substr(open + 1);
  }

  // ---- file-level rules ----

  void check_mixed_literals(size_t file) {
    const SourceFile& f = files_[file];
    for (size_t li = 0; li < f.lines.size(); ++li) {
      size_t where = 0;
      if (has_float_literal(f.lines[li], &where) && has_plain_double_literal(f.lines[li]))
        add(file, "mixed-literal", long(li) + 1);
    }
  }

  // ---- oracle coverage: annotated components reachable from src/core ----

  void check_oracles() {
    // component -> first annotation site
    std::map<std::string, std::pair<size_t, long>> components;
    for (size_t fi = 0; fi < files_.size(); ++fi) {
      const SourceFile& f = files_[fi];
      for (const char* marker : {"BKR_ALLOW_NARROWING", "BKR_PRECISION_BOUNDARY"}) {
        for (size_t pos = find_token(f.blanked, marker); pos != std::string::npos;
             pos = find_token(f.blanked, marker, pos + 1)) {
          const long line = line_of(fi, pos);
          if (line >= 1 && size_t(line) <= f.lines.size()) {
            const std::string norm_line = normalize(f.lines[size_t(line) - 1]);
            if (!norm_line.empty() && norm_line[0] == '#') continue;  // the #define itself
          }
          const std::string comp = component_of(fi, pos);
          if (comp.empty()) continue;
          if (components.count(comp) == 0) components[comp] = {fi, line};
        }
      }
    }
    if (components.empty()) return;

    std::set<std::string> oracles;
    for (const SourceFile& t : tests_) {
      for (size_t pos = find_token(t.blanked, "BKR_TOLERANCE_ORACLE"); pos != std::string::npos;
           pos = find_token(t.blanked, "BKR_TOLERANCE_ORACLE", pos + 1)) {
        const std::string arg = macro_arg(t.blanked, pos + std::strlen("BKR_TOLERANCE_ORACLE"));
        if (!arg.empty()) oracles.insert(arg);
      }
    }

    for (const auto& [comp, site] : components) {
      bool reachable = false;
      for (const SourceFile& f : files_) {
        if (f.path.rfind("src/core/", 0) != 0) continue;
        if (find_token(f.blanked, comp) != std::string::npos) {
          reachable = true;
          break;
        }
      }
      if (!reachable) continue;
      bool covered = false;
      for (const std::string& o : oracles)
        if (find_token(o, comp) != std::string::npos) {
          covered = true;
          break;
        }
      if (!covered) add(site.first, "oracle-mismatch", site.second);
    }
  }

  // Innermost named entity containing an offset: class range, else function.
  std::string component_of(size_t file, size_t off) const {
    std::string best;
    size_t best_size = size_t(-1);
    for (const ClassRange& cr : classes_) {
      if (cr.file != file || off < cr.begin || off >= cr.end) continue;
      if (cr.end - cr.begin < best_size) {
        best_size = cr.end - cr.begin;
        best = cr.name;
      }
    }
    if (!best.empty()) return best;
    for (const FpFn& fn : fns_) {
      // Head annotations sit before body_begin: accept a small window that
      // covers the declarator statement.
      if (fn.file != file) continue;
      const size_t head_begin = fn.body_begin > fn.head.size() + 64
                                    ? fn.body_begin - fn.head.size() - 64
                                    : 0;
      if (off >= head_begin && off < fn.body_end)
        return !fn.cls.empty() ? fn.cls : fn.name;
    }
    return {};
  }

  std::vector<SourceFile> files_;
  std::vector<SourceFile> tests_;
  std::vector<std::vector<size_t>> newlines_;
  std::vector<FpFn> fns_;
  std::vector<ClassRange> classes_;
  std::vector<Finding> findings_;
};

std::vector<Finding> fpflow_files(std::vector<SourceFile> files,
                                  std::vector<SourceFile> test_files) {
  Fpflow fp(std::move(files), std::move(test_files));
  return fp.run();
}

std::vector<SourceFile> load_tree_files(const fs::path& root, const char* sub);

std::vector<Finding> fpflow_tree(const fs::path& root) {
  return fpflow_files(load_project_files(root), load_tree_files(root, "tests"));
}

// ---------------------------------------------------------------------------
// Baseline handling.

std::set<std::string> load_baseline(const std::string& path) {
  std::set<std::string> entries;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    entries.insert(line);
  }
  return entries;
}

std::string baseline_key(const Finding& f) {
  return f.rule + "\t" + f.path + "\t" + f.content;
}

// ---------------------------------------------------------------------------
// Driver.

bool should_scan(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

std::vector<Finding> scan_tree(const fs::path& root, const std::vector<std::string>& subdirs) {
  std::vector<Finding> all;
  for (const std::string& sub : subdirs) {
    const fs::path dir = root / sub;
    if (!fs::exists(dir)) continue;
    std::vector<fs::path> files;
    for (const auto& entry : fs::recursive_directory_iterator(dir))
      if (entry.is_regular_file() && should_scan(entry.path())) files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const fs::path& file : files) {
      std::ifstream in(file, std::ios::binary);
      std::stringstream ss;
      ss << in.rdbuf();
      const std::string rel = fs::relative(file, root).generic_string();
      FileReport report = scan_content(rel, ss.str());
      all.insert(all.end(), report.findings.begin(), report.findings.end());
    }
  }
  return all;
}

// ---------------------------------------------------------------------------
// Self-test: one planted violation per rule plus clean fixtures that must
// stay silent.

int self_test() {
  struct Case {
    const char* name;
    const char* content;
    const char* expect_rule;  // nullptr = expect clean
  };
  const Case cases[] = {
      {"plant-new.cpp", "void f() { int* p = new int(3); }\n", "raw-new-delete"},
      {"plant-delete.cpp", "void f(int* p) { delete p; }\n", "raw-new-delete"},
      {"plant-using.hpp", "#pragma once\nusing namespace std;\n", "using-namespace-header"},
      {"plant-factor.cpp", "void f() { cholqr<double>(v, r); }\n", "unchecked-factor"},
      {"plant-factor-qualified.cpp", "void f() { bkr::detail::qr_block<double>(w, r, s, c); }\n",
       "unchecked-factor"},
      {"plant-rng.cpp", "#include <random>\nstd::mt19937 gen(42);\n", "non-central-rng"},
      {"plant-guard.hpp", "inline int f() { return 1; }\n", "missing-include-guard"},
      {"plant-float.cpp", "double x = 1.5f;\n", "float-literal"},
      {"plant-float-type.cpp", "float y = 2.0;\n", "float-literal"},
      {"plant-thread.cpp", "void f() { std::thread t([] {}); t.join(); }\n", "unpooled-thread"},
      {"plant-thread-vec.cpp", "std::vector<std::thread> workers;\n", "unpooled-thread"},
      {"src/core/plant-catch.cpp",
       "void f() { try { g(); } catch (const std::runtime_error& e) { h(); } }\n", "broad-catch"},
      {"src/core/plant-catch-all.cpp", "void f() { try { g(); } catch (...) { h(); } }\n",
       "broad-catch"},
      // Clean fixtures: constructs that look like violations but are not.
      {"clean-deleted-fn.hpp", "#pragma once\nstruct S { S(const S&) = delete; };\n", nullptr},
      {"clean-comment.cpp", "// new delete mt19937 using namespace cholqr( 1.0f\nint a;\n",
       nullptr},
      {"clean-string.cpp", "const char* s = \"new 1.5f mt19937 delete\";\n", nullptr},
      {"clean-checked-factor.cpp", "void f() { if (!cholqr<double>(v, r)) g(); bool ok = "
                                   "cholesky_upper(a); (void)ok; }\n",
       nullptr},
      {"clean-allow.cpp",
       "void f() { cholqr<double>(v, r); }  // bkr-lint: allow(unchecked-factor)\n", nullptr},
      {"clean-guard-comment.hpp", "// leading comment\n// more comment\n#pragma once\nint f();\n",
       nullptr},
      {"clean-ifndef.hpp", "#ifndef X_H_\n#define X_H_\n#endif\n", nullptr},
      {"clean-double.cpp", "double x = 1.5; double y = 1e-14; auto z = 0.0;\n", nullptr},
      {"clean-raw-string.cpp", "const char* s = R\"(new delete 1.0f)\";\n", nullptr},
      {"src/parallel/clean-pool-home.cpp", "std::thread worker([] {});\n", nullptr},
      {"clean-thread-scope.cpp", "const auto hw = std::thread::hardware_concurrency();\n",
       nullptr},
      {"clean-thread-comment.cpp", "// std::thread is banned here\nint a;\n", nullptr},
      {"clean-thread-allow.cpp",
       "std::thread t([] {});  // bkr-lint: allow(unpooled-thread)\n", nullptr},
      {"src/core/clean-typed-catch.cpp",
       "void f() { try { g(); } catch (const EigFailure& e) { h(); } }\n", nullptr},
      {"src/capi/clean-catch-outside-core.cpp",
       "void f() { try { g(); } catch (...) { h(); } }\n", nullptr},
      {"src/core/clean-catch-comment.cpp", "// catch (...) is banned in core\nint a;\n", nullptr},
      // .h files are headers too (regression for the short-path skip).
      {"a.h", "int f();\n", "missing-include-guard"},
      {"clean-short.h", "#pragma once\nint f();\n", nullptr},
      // File-scope suppression: the mixed-precision scope stores fp32 on
      // purpose; allow-file lifts float-literal for the whole file.
      {"clean-allow-file.cpp",
       "// bkr-lint: allow-file(float-literal) fp32 storage scope\n"
       "float x = 1.5f;\nfloat y = 2.5f;\n",
       nullptr},
  };
  int failures = 0;
  for (const Case& c : cases) {
    const FileReport report = scan_content(c.name, c.content);
    if (c.expect_rule == nullptr) {
      if (!report.findings.empty()) {
        std::printf("SELF-TEST FAIL %s: expected clean, got %s at line %ld\n", c.name,
                    report.findings[0].rule.c_str(), report.findings[0].line);
        ++failures;
      }
    } else {
      const bool hit = std::any_of(report.findings.begin(), report.findings.end(),
                                   [&](const Finding& f) { return f.rule == c.expect_rule; });
      if (!hit) {
        std::printf("SELF-TEST FAIL %s: rule %s not detected\n", c.name, c.expect_rule);
        ++failures;
      }
    }
  }
  // Project-model fixtures: each is a miniature multi-file src/ tree with
  // one planted cross-TU violation (or a near-miss that must stay clean).
  struct AnalyzeCase {
    const char* name;
    std::vector<std::pair<std::string, std::string>> files;
    const char* expect_rule;  // nullptr = expect clean
    double floor_value;
    bool hotpath = false;  // run the bkr-hotpath stage instead of bkr-analyze
  };
  const char* kGuardedHeader =
      "#pragma once\nclass S {\n public:\n  void bump();\n private:\n  std::mutex mu_;\n"
      "  long count_ BKR_GUARDED_BY(mu_);\n};\n";
  const char* kConfinedHeader =
      "#pragma once\nclass THolder {\n public:\n  void tick();\n private:\n"
      "  long hits_ BKR_THREAD_CONFINED;\n};\n";
  const char* kCovHeader =
      "#pragma once\nclass Cov {\n public:\n  void apply(MatrixView<const double> r);\n};\n";
  const std::vector<AnalyzeCase> pcases = {
      {"layer-upward",
       {{"src/la/up.hpp", "#pragma once\n#include \"core/solver.hpp\"\nint f();\n"}},
       "layer-upward-include", 0.0},
      {"layer-downward-clean",
       {{"src/core/down.hpp", "#pragma once\n#include \"la/blas.hpp\"\nint f();\n"}},
       nullptr, 0.0},
      {"layer-same-rank-clean",
       {{"src/parallel/x.hpp", "#pragma once\n#include \"obs/trace.hpp\"\nint f();\n"}},
       nullptr, 0.0},
      {"include-cycle",
       {{"src/la/a.hpp", "#pragma once\n#include \"la/b.hpp\"\n"},
        {"src/la/b.hpp", "#pragma once\n#include \"la/a.hpp\"\n"}},
       "include-cycle", 0.0},
      {"unguarded-member",
       {{"src/core/s.hpp", kGuardedHeader},
        {"src/core/s.cpp", "#include \"core/s.hpp\"\nvoid S::bump() { ++count_; }\n"}},
       "unguarded-member-access", 0.0},
      {"guarded-clean",
       {{"src/core/s.hpp", kGuardedHeader},
        {"src/core/s.cpp",
         "#include \"core/s.hpp\"\nvoid S::bump() {\n"
         "  std::lock_guard<std::mutex> lock(mu_);\n  ++count_;\n}\n"}},
       nullptr, 0.0},
      {"requires-lock-seed-clean",
       {{"src/core/s.hpp",
         "#pragma once\nclass S {\n public:\n  void bump() BKR_REQUIRES_LOCK(mu_);\n"
         " private:\n  std::mutex mu_;\n  long count_ BKR_GUARDED_BY(mu_);\n};\n"},
        {"src/core/s.cpp", "#include \"core/s.hpp\"\nvoid S::bump() { ++count_; }\n"}},
       nullptr, 0.0},
      {"requires-lock-not-held",
       {{"src/core/s.hpp",
         "#pragma once\nclass S {\n public:\n  void bump() BKR_REQUIRES_LOCK(mu_);\n"
         "  void outer();\n private:\n  std::mutex mu_;\n};\n"},
        {"src/core/s.cpp", "#include \"core/s.hpp\"\nvoid S::outer() { bump(); }\n"}},
       "requires-lock-not-held", 0.0},
      {"unlock-then-access",
       {{"src/core/s.hpp", kGuardedHeader},
        {"src/core/s.cpp",
         "#include \"core/s.hpp\"\nvoid S::bump() {\n"
         "  std::unique_lock<std::mutex> lk(mu_);\n  ++count_;\n  lk.unlock();\n  ++count_;\n}\n"}},
       "unguarded-member-access", 0.0},
      {"lock-order-inversion",
       {{"src/core/p.hpp",
         "#pragma once\nclass P {\n public:\n  void work();\n private:\n"
         "  std::mutex a_ BKR_ACQUIRED_BEFORE(b_);\n  std::mutex b_;\n};\n"},
        {"src/core/p.cpp",
         "#include \"core/p.hpp\"\nvoid P::work() {\n  std::lock_guard<std::mutex> l1(b_);\n"
         "  std::lock_guard<std::mutex> l2(a_);\n}\n"}},
       "lock-order-inversion", 0.0},
      {"lock-order-clean",
       {{"src/core/p.hpp",
         "#pragma once\nclass P {\n public:\n  void work();\n private:\n"
         "  std::mutex a_ BKR_ACQUIRED_BEFORE(b_);\n  std::mutex b_;\n};\n"},
        {"src/core/p.cpp",
         "#include \"core/p.hpp\"\nvoid P::work() {\n  std::lock_guard<std::mutex> l1(a_);\n"
         "  std::lock_guard<std::mutex> l2(b_);\n}\n"}},
       nullptr, 0.0},
      {"lock-free-not-atomic",
       {{"src/core/q.hpp", "#pragma once\nclass Q {\n  long n_ BKR_LOCK_FREE;\n};\n"}},
       "lock-free-not-atomic", 0.0},
      {"lock-free-atomic-clean",
       {{"src/core/q.hpp",
         "#pragma once\nclass Q {\n  std::atomic<long> n_ BKR_LOCK_FREE{0};\n};\n"}},
       nullptr, 0.0},
      {"lane-dependent-body",
       {{"src/parallel/k.cpp",
         "void f(KernelExecutor* ex) {\n  ex->run(Kernel::Spmv, 8, [&](index_t t) {\n"
         "    index_t w = ex->lanes() * 2;\n    use(w, t);\n  });\n}\n"}},
       "lane-dependent-body", 0.0},
      {"lane-clean",
       {{"src/parallel/k.cpp",
         "void f(KernelExecutor* ex) {\n  ex->run(Kernel::Spmv, 8, [&](index_t t) {\n"
         "    use(t);\n  });\n}\n"}},
       nullptr, 0.0},
      {"nonshared-reduce-chunk",
       {{"src/parallel/r.cpp",
         "void g(KernelExecutor* ex) {\n  ex->run(Kernel::Dot, 4, [&](index_t c) {\n"
         "    index_t chunk = 1024;\n    use(chunk, c);\n  });\n}\n"}},
       "nonshared-reduce-chunk", 0.0},
      {"reduce-chunk-clean",
       {{"src/parallel/r.cpp",
         "void g(KernelExecutor* ex) {\n  ex->run(Kernel::Dot, 4, [&](index_t c) {\n"
         "    const index_t begin = c * kReduceChunk;\n    use(begin);\n  });\n}\n"}},
       nullptr, 0.0},
      {"float-atomic",
       {{"src/parallel/fa.cpp", "std::atomic<double> sum{0};\n"}},
       "float-atomic-accumulation", 0.0},
      {"float-atomic-outside-scope-clean",
       {{"src/core/fa.cpp", "std::atomic<double> sum{0};\n"}},
       nullptr, 0.0},
      {"confined-member-in-parallel",
       {{"src/core/t.hpp", kConfinedHeader},
        {"src/core/t.cpp",
         "#include \"core/t.hpp\"\nvoid THolder::tick() {\n"
         "  pool.parallel_for(4, [&](index_t i) {\n    ++hits_;\n    use(i);\n  });\n}\n"}},
       "confined-member-in-parallel", 0.0},
      {"confined-serial-clean",
       {{"src/core/t.hpp", kConfinedHeader},
        {"src/core/t.cpp",
         "#include \"core/t.hpp\"\nvoid THolder::tick() { ++hits_; }\n"}},
       nullptr, 0.0},
      {"contract-coverage-below-floor",
       {{"src/la/cov.hpp", kCovHeader}},
       "contract-coverage", 0.9},
      {"contract-coverage-met",
       {{"src/la/cov.hpp", kCovHeader},
        {"src/la/cov.cpp",
         "#include \"la/cov.hpp\"\nvoid Cov::apply(MatrixView<const double> r) {\n"
         "  BKR_REQUIRE(r.rows() >= 0, \"rows\");\n}\n"}},
       nullptr, 0.9},
      {"contract-coverage-delegation",
       {{"src/la/cov.hpp",
         "#pragma once\nclass Cov {\n public:\n  void apply(MatrixView<const double> r);\n"
         "  void apply_impl(MatrixView<const double> r);\n};\n"},
        {"src/la/cov.cpp",
         "#include \"la/cov.hpp\"\nvoid Cov::apply(MatrixView<const double> r) { apply_impl(r); }\n"
         "void Cov::apply_impl(MatrixView<const double> r) {\n"
         "  BKR_REQUIRE(r.rows() >= 0, \"rows\");\n}\n"}},
       nullptr, 0.9},
      // The session/recycle-cache service layer lives in src/core and fans
      // out over sparse (CSR fingerprinting), la (dense payloads) and obs
      // (cache trace events) — all strictly downward includes, so the model
      // must accept the shape the real session.hpp / recycle_cache.hpp use.
      {"session-core-layer-clean",
       {{"src/core/sess.hpp",
         "#pragma once\n#include \"la/dense.hpp\"\n#include \"obs/trace.hpp\"\n"
         "#include \"sparse/csr.hpp\"\nclass Sess {\n public:\n  int solve();\n};\n"},
        {"src/core/sess.cpp", "#include \"core/sess.hpp\"\nint Sess::solve() { return 0; }\n"}},
       nullptr, 0.0},
      // ...and the reverse direction stays illegal: the data-plane layers
      // must never reach up into the session service.
      {"session-upward-from-sparse",
       {{"src/sparse/bad.hpp", "#pragma once\n#include \"core/recycle_cache.hpp\"\nint f();\n"}},
       "layer-upward-include", 0.0},
      {"session-upward-from-obs",
       {{"src/obs/bad.hpp", "#pragma once\n#include \"core/session.hpp\"\nint f();\n"}},
       "layer-upward-include", 0.0},
      // The cache's lock discipline as the scope walker sees it: the map is
      // guarded, every touch goes through a lock_guard, and the private
      // helpers carry BKR_REQUIRES_LOCK instead of re-locking.
      {"session-cache-lock-clean",
       {{"src/core/rc.hpp",
         "#pragma once\nclass Rc {\n public:\n  bool fetch(int k);\n private:\n"
         "  void emit(int k) BKR_REQUIRES_LOCK(mu_);\n  mutable std::mutex mu_;\n"
         "  long hits_ BKR_GUARDED_BY(mu_);\n};\n"},
        {"src/core/rc.cpp",
         "#include \"core/rc.hpp\"\nbool Rc::fetch(int k) {\n"
         "  std::lock_guard<std::mutex> lock(mu_);\n  ++hits_;\n  emit(k);\n  return true;\n}\n"
         "void Rc::emit(int k) { use(k, hits_); }\n"}},
       nullptr, 0.0},
      {"session-cache-unlocked-counter",
       {{"src/core/rc.hpp",
         "#pragma once\nclass Rc {\n public:\n  bool fetch(int k);\n private:\n"
         "  mutable std::mutex mu_;\n  long hits_ BKR_GUARDED_BY(mu_);\n};\n"},
        {"src/core/rc.cpp",
         "#include \"core/rc.hpp\"\nbool Rc::fetch(int k) { ++hits_; return k != 0; }\n"}},
       "unguarded-member-access", 0.0},
      // bkr-hotpath fixtures: hot-region seeding, propagation, and one
      // positive plus one allowed-negative per rule.
      {"hotpath-new",
       {{"src/la/h.cpp", "BKR_HOT void f(double* p) { auto* q = new double[8]; use(p, q); }\n"}},
       "hot-path-alloc", 0.0, true},
      {"hotpath-transitive-alloc",
       {{"src/la/h.cpp",
         "void helper(std::vector<double>& v) { v.push_back(1.0); }\n"
         "BKR_HOT void f(std::vector<double>& v) { helper(v); }\n"}},
       "hot-path-alloc", 0.0, true},
      {"hotpath-reserve-clean",
       {{"src/la/h.cpp",
         "BKR_HOT void f(std::vector<double>& v, int n) {\n  v.reserve(size_t(n));\n"
         "  for (int i = 0; i < n; ++i) v.push_back(double(i));\n}\n"}},
       nullptr, 0.0, true},
      {"hotpath-subscript-reserve-clean",
       {{"src/la/h.cpp",
         "BKR_HOT void f(State& st, int c, int n) {\n  st.history[size_t(c)].reserve(size_t(n));\n"
         "  for (int i = 0; i < n; ++i) st.history[size_t(c)].push_back(double(i));\n}\n"}},
       nullptr, 0.0, true},
      // A bare call links to free functions only: the kernel's free
      // `store(` leaves both member `store`s (in-class and out-of-class)
      // cold, so their locks are not hot-path findings.
      {"hotpath-bare-call-skips-members-clean",
       {{"src/core/h.hpp",
         "#pragma once\nclass Cache {\n public:\n  void store(int k) {\n"
         "    std::lock_guard<std::mutex> lk(mu_);\n    use(k);\n  }\n  void load(int k);\n"
         " private:\n  std::mutex mu_;\n};\n"},
        {"src/core/h.cpp",
         "#include \"core/h.hpp\"\nvoid Cache::load(int k) {\n"
         "  std::lock_guard<std::mutex> lk(mu_);\n  use(k);\n}\n"
         "inline void store(double* p, double v) { p[0] = v; }\n"
         "inline void load(double* p) { use(p[0]); }\n"
         "BKR_HOT void kernel(double* p) {\n  store(p, 1.0);\n  load(p);\n}\n"}},
       nullptr, 0.0, true},
      {"hotpath-cold-callee-stops",
       {{"src/la/h.cpp",
         "BKR_COLD void setup(std::vector<double>& v) { v.push_back(0.0); }\n"
         "BKR_HOT void f(std::vector<double>& v) { setup(v); }\n"}},
       nullptr, 0.0, true},
      {"hotpath-lock-in-loop",
       {{"src/core/h.cpp",
         "void f(std::mutex& m, int n) {\n  BKR_HOT_LOOP while (n-- > 0) {\n"
         "    std::lock_guard<std::mutex> lk(m);\n  }\n}\n"}},
       "hot-path-lock", 0.0, true},
      {"hotpath-cold-block-clean",
       {{"src/core/h.cpp",
         "BKR_HOT void f(std::mutex& m) {\n  BKR_COLD {\n"
         "    std::lock_guard<std::mutex> lk(m);\n  }\n}\n"}},
       nullptr, 0.0, true},
      {"hotpath-dispatch-lambda-io",
       {{"src/parallel/h.cpp",
         "void f(KernelExecutor* ex) {\n  ex->run(Kernel::Spmv, 8, [&](index_t t) {\n"
         "    std::printf(\"%ld\", long(t));\n  });\n}\n"}},
       "hot-path-io", 0.0, true},
      {"hotpath-cold-lambda-clean",
       {{"src/parallel/h.cpp",
         "void f(ThreadPool& pool) {\n  pool.parallel_for(8, [&](index_t t) BKR_COLD {\n"
         "    std::printf(\"%ld\", long(t));\n  });\n}\n"}},
       nullptr, 0.0, true},
      {"hotpath-throw",
       {{"src/core/h.cpp",
         "BKR_HOT void f(int n) { if (n < 0) throw std::runtime_error(\"n\"); use(n); }\n"}},
       "hot-path-throw", 0.0, true},
      {"hotpath-breakdown-throw-clean",
       {{"src/core/h.cpp",
         "BKR_HOT void f(int n) { if (n < 0) throw BreakdownError(\"gamma\"); use(n); }\n"}},
       nullptr, 0.0, true},
      {"hotpath-virtual-in-loop",
       {{"src/obs/h.hpp",
         "#pragma once\nclass Sink {\n public:\n  virtual void emit(int i) = 0;\n};\n"},
        {"src/obs/h.cpp",
         "#include \"obs/h.hpp\"\nvoid f(Sink* s, int n) {\n"
         "  BKR_HOT_LOOP for (int i = 0; i < n; ++i) {\n    s->emit(i);\n  }\n}\n"}},
       "hot-path-virtual", 0.0, true},
      {"hotpath-virtual-cold-class-clean",
       {{"src/obs/h.hpp",
         "#pragma once\nclass BKR_COLD Sink {\n public:\n  virtual void emit(int i) = 0;\n};\n"},
        {"src/obs/h.cpp",
         "#include \"obs/h.hpp\"\nvoid f(Sink* s, int n) {\n"
         "  BKR_HOT_LOOP for (int i = 0; i < n; ++i) {\n    s->emit(i);\n  }\n}\n"}},
       nullptr, 0.0, true},
      {"hotpath-loop-decl",
       {{"src/core/h.cpp",
         "void f(int n) {\n  BKR_HOT_LOOP for (int i = 0; i < n; ++i) {\n"
         "    std::vector<double> tmp(size_t(n));\n    use(tmp, i);\n  }\n}\n"}},
       "hot-path-alloc", 0.0, true},
      {"hotpath-workspace-ref-clean",
       {{"src/core/h.cpp",
         "void f(SolverWorkspace<double>& ws, int n) {\n"
         "  BKR_HOT_LOOP for (int i = 0; i < n; ++i) {\n"
         "    std::vector<double>& t = ws.vec(0, size_t(n));\n    use(t, i);\n  }\n}\n"}},
       nullptr, 0.0, true},
      {"hotpath-inline-allow-clean",
       {{"src/la/h.cpp",
         "BKR_HOT void f(double* p) {\n"
         "  auto* q = new double[8];  // bkr-lint: allow(hot-path-alloc)\n  use(p, q);\n}\n"}},
       nullptr, 0.0, true},
      // The cancellation poll (DESIGN.md §15) is the sanctioned abort check
      // in hot loops: a relaxed atomic load, one steady_clock compare and a
      // BreakdownError escalation, packaged as detail::poll_cancel. The
      // whole idiom must lint clean inside a BKR_HOT_LOOP...
      {"hotpath-cancel-poll-call-clean",
       {{"src/core/h.cpp",
         "BKR_HOT inline void poll_cancel(const SolverOptions& opts) {\n"
         "  if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed))\n"
         "    throw BreakdownError(SolveStatus::Cancelled, \"cancelled\");\n"
         "  if (deadline_enabled(opts) && std::chrono::steady_clock::now() >= opts.deadline)\n"
         "    throw BreakdownError(SolveStatus::DeadlineExceeded, \"deadline\");\n"
         "}\n"
         "void f(const SolverOptions& opts, int n) {\n"
         "  BKR_HOT_LOOP while (n-- > 0) {\n    poll_cancel(opts);\n    use(n);\n  }\n}\n"}},
       nullptr, 0.0, true},
      // ...including the flag check written inline at the loop top.
      {"hotpath-cancel-flag-inline-clean",
       {{"src/core/h.cpp",
         "void f(const SolverOptions& opts, int n) {\n"
         "  BKR_HOT_LOOP while (n-- > 0) {\n"
         "    if (opts.cancel != nullptr && opts.cancel->load(std::memory_order_relaxed))\n"
         "      throw BreakdownError(SolveStatus::Cancelled, \"cancelled\");\n"
         "    use(n);\n  }\n}\n"}},
       nullptr, 0.0, true},
      // The boundary of the allowance: ad-hoc clock math spelled out in the
      // loop body (instead of delegating to the poll helper) is flagged...
      {"hotpath-raw-clock-in-loop",
       {{"src/core/h.cpp",
         "void f(Deadline d, int n) {\n  BKR_HOT_LOOP while (n-- > 0) {\n"
         "    if (std::chrono::steady_clock::now() >= d.when) break;\n    use(n);\n  }\n}\n"}},
       "hot-path-clock", 0.0, true},
      // ...and so is a mutex-guarded cancellation flag: only the lock-free
      // poll is sanctioned in hot code.
      {"hotpath-locked-cancel-flag-in-loop",
       {{"src/core/h.cpp",
         "void f(std::mutex& m, bool* flag, int n) {\n  BKR_HOT_LOOP while (n-- > 0) {\n"
         "    std::lock_guard<std::mutex> lk(m);\n    if (*flag) break;\n  }\n}\n"}},
       "hot-path-lock", 0.0, true},
  };
  for (const AnalyzeCase& c : pcases) {
    std::vector<SourceFile> fv;
    fv.reserve(c.files.size());
    for (const auto& [p, content] : c.files) fv.push_back(make_source(p, content));
    const std::vector<Finding> fnd = c.hotpath ? hotpath_files(std::move(fv))
                                               : analyze_files(std::move(fv), c.floor_value);
    if (c.expect_rule == nullptr) {
      if (!fnd.empty()) {
        std::printf("SELF-TEST FAIL %s: expected clean, got %s at %s:%ld\n", c.name,
                    fnd[0].rule.c_str(), fnd[0].path.c_str(), fnd[0].line);
        ++failures;
      }
    } else {
      const bool hit = std::any_of(fnd.begin(), fnd.end(),
                                   [&](const Finding& f) { return f.rule == c.expect_rule; });
      if (!hit) {
        std::printf("SELF-TEST FAIL %s: rule %s not detected\n", c.name, c.expect_rule);
        ++failures;
      }
    }
  }
  // bkr-fpflow fixtures: each is a miniature src/ (+ optional tests/) tree
  // with one planted precision-flow violation or a near-miss that must stay
  // clean.
  struct FpflowCase {
    const char* name;
    std::vector<std::pair<std::string, std::string>> files;   // src/ tree
    std::vector<std::pair<std::string, std::string>> tests;   // tests/ tree
    const char* expect_rule;  // nullptr = expect clean
  };
  const std::vector<FpflowCase> fcases = {
      {"narrowing-init",
       {{"src/la/f.cpp", "void f(double d) { float x = d; use(x); }\n"}},
       {},
       "implicit-narrowing"},
      {"narrowing-assign",
       {{"src/la/f.cpp", "void f(double d) { float x = 0; x = d; use(x); }\n"}},
       {},
       "implicit-narrowing"},
      {"narrowing-literal",
       {{"src/la/f.cpp", "void f() { float x = 0.1; use(x); }\n"}},
       {},
       "implicit-narrowing"},
      {"narrowing-static-cast",
       {{"src/la/f.cpp", "void f(double d) { g(static_cast<float>(d)); }\n"}},
       {},
       "implicit-narrowing"},
      {"narrowing-functional-cast",
       {{"src/la/f.cpp", "void f(double d) { g(float(d)); }\n"}},
       {},
       "implicit-narrowing"},
      {"narrowing-complex",
       {{"src/la/f.cpp",
         "void f(std::complex<double> z) { std::complex<float> w = z; use(w); }\n"}},
       {},
       "implicit-narrowing"},
      {"narrowing-return",
       {{"src/la/f.cpp", "float f(double d) { return d; }\n"}},
       {},
       "implicit-narrowing"},
      {"narrowing-allowed-line-clean",
       {{"src/la/f.cpp",
         "void f(double d) { BKR_ALLOW_NARROWING const float x = float(d); use(x); }\n"}},
       {},
       nullptr},
      {"narrowing-allowed-head-clean",
       {{"src/la/f.cpp",
         "BKR_ALLOW_NARROWING void f(double d) { float x = float(d); use(x); }\n"}},
       {},
       nullptr},
      {"widening-clean",
       {{"src/la/f.cpp", "void f(float x) { double d = x; use(d); }\n"}},
       {},
       nullptr},
      {"accumulation-in-loop",
       {{"src/la/f.cpp",
         "void f(const float* v, int n) {\n  float s = 0;\n"
         "  for (int i = 0; i < n; ++i) {\n    s += v[i];\n  }\n  use(s);\n}\n"}},
       {},
       "low-precision-accumulation"},
      {"accumulation-double-clean",
       {{"src/la/f.cpp",
         "void f(const float* v, int n) {\n  double s = 0;\n"
         "  for (int i = 0; i < n; ++i) {\n    s += v[i];\n  }\n  use(s);\n}\n"}},
       {},
       nullptr},
      {"accumulation-outside-loop-clean",
       {{"src/la/f.cpp",
         "void f(float a, float b) { float s = 0; s += a; s += b; use(s); }\n"}},
       {},
       nullptr},
      {"unguarded-div-norm",
       {{"src/la/f.cpp",
         "void f(const V& x, const V& y) {\n  double xnorm = norm2(x);\n"
         "  double t = dot(x, y) / xnorm;\n  use(t);\n}\n"}},
       {},
       "unguarded-division"},
      {"guarded-div-if-clean",
       {{"src/la/f.cpp",
         "double f(const V& x) {\n  double nrm = norm2(x);\n"
         "  if (nrm == 0.0) return 0.0;\n  return 1.0 / nrm;\n}\n"}},
       {},
       nullptr},
      {"unguarded-div-pivot",
       {{"src/la/f.cpp",
         "void f(double pivot) { double inv = 1.0 / pivot; use(inv); }\n"}},
       {},
       "unguarded-division"},
      {"guarded-div-annotated-clean",
       {{"src/la/f.cpp",
         "void f(double pivot) { BKR_GUARDED_DIV double inv = 1.0 / pivot; use(inv); }\n"}},
       {},
       nullptr},
      {"clamped-producer-clean",
       {{"src/la/f.cpp",
         "void f(const V& x) {\n  double un = std::max(norm2(x), 1e-300);\n"
         "  double s = 1.0 / un;\n  use(s);\n}\n"}},
       {},
       nullptr},
      {"mixed-literal",
       {{"src/la/f.cpp", "void f() { double x = 0.5f * 0.5; use(x); }\n"}},
       {},
       "mixed-literal"},
      {"mixed-literal-clean",
       {{"src/la/f.cpp", "void f() { double x = 0.5 * 2.0; use(x); }\n"}},
       {},
       nullptr},
      {"oracle-mismatch",
       {{"src/la/nf.hpp",
         "#pragma once\nclass Narrower {\n public:\n  BKR_ALLOW_NARROWING void apply();\n};\n"},
        {"src/core/use.cpp",
         "#include \"la/nf.hpp\"\nvoid g(Narrower& n) { n.apply(); }\n"}},
       {},
       "oracle-mismatch"},
      {"oracle-covered-clean",
       {{"src/la/nf.hpp",
         "#pragma once\nclass Narrower {\n public:\n  BKR_ALLOW_NARROWING void apply();\n};\n"},
        {"src/core/use.cpp",
         "#include \"la/nf.hpp\"\nvoid g(Narrower& n) { n.apply(); }\n"}},
       {{"tests/test_nf.cpp",
         "BKR_TOLERANCE_ORACLE(Narrower);\nTEST(NarrowerTolerance, Converges) {}\n"}},
       nullptr},
      {"oracle-unreachable-clean",
       {{"src/la/nf.hpp",
         "#pragma once\nclass Narrower {\n public:\n  BKR_ALLOW_NARROWING void apply();\n};\n"}},
       {},
       nullptr},
  };
  for (const FpflowCase& c : fcases) {
    std::vector<SourceFile> fv;
    fv.reserve(c.files.size());
    for (const auto& [p, content] : c.files) fv.push_back(make_source(p, content));
    std::vector<SourceFile> tv;
    tv.reserve(c.tests.size());
    for (const auto& [p, content] : c.tests) tv.push_back(make_source(p, content));
    const std::vector<Finding> fnd = fpflow_files(std::move(fv), std::move(tv));
    if (c.expect_rule == nullptr) {
      if (!fnd.empty()) {
        std::printf("SELF-TEST FAIL fpflow/%s: expected clean, got %s at %s:%ld\n", c.name,
                    fnd[0].rule.c_str(), fnd[0].path.c_str(), fnd[0].line);
        ++failures;
      }
    } else {
      const bool hit = std::any_of(fnd.begin(), fnd.end(),
                                   [&](const Finding& f) { return f.rule == c.expect_rule; });
      if (!hit) {
        std::printf("SELF-TEST FAIL fpflow/%s: rule %s not detected\n", c.name, c.expect_rule);
        ++failures;
      }
    }
  }
  if (failures == 0) {
    std::printf("bkr-lint self-test: %zu fixtures OK\n",
                std::size(cases) + pcases.size() + fcases.size());
    return 0;
  }
  return 1;
}

// SARIF 2.1.0 export (one run, one driver) so findings can render as CI
// annotations. Only unsuppressed findings are emitted — baselined debt is
// deliberate and must not resurface as annotations.
void write_sarif(const std::string& path, const char* tool,
                 const std::vector<Finding>& findings) {
  std::set<std::string> rules;
  for (const Finding& f : findings) rules.insert(f.rule);
  std::ofstream out(path);
  out << "{\n"
      << "  \"version\": \"2.1.0\",\n"
      << "  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      << "  \"runs\": [\n    {\n"
      << "      \"tool\": {\n        \"driver\": {\n"
      << "          \"name\": \"" << bkr::json::escape(tool) << "\",\n"
      << "          \"informationUri\": \"https://example.invalid/bkr/DESIGN.md\",\n"
      << "          \"rules\": [";
  bool first = true;
  for (const std::string& r : rules) {
    out << (first ? "" : ",") << "\n            {\"id\": \"" << bkr::json::escape(r) << "\"}";
    first = false;
  }
  out << (rules.empty() ? "" : "\n          ") << "]\n        }\n      },\n"
      << "      \"results\": [";
  first = true;
  for (const Finding& f : findings) {
    out << (first ? "" : ",") << "\n        {\n"
        << "          \"ruleId\": \"" << bkr::json::escape(f.rule) << "\",\n"
        << "          \"level\": \"error\",\n"
        << "          \"message\": {\"text\": \"" << bkr::json::escape(f.content) << "\"},\n"
        << "          \"locations\": [{\"physicalLocation\": {\"artifactLocation\": "
        << "{\"uri\": \"" << bkr::json::escape(f.path) << "\"}, \"region\": {\"startLine\": "
        << (f.line >= 1 ? f.line : 1) << "}}}]\n        }";
    first = false;
  }
  out << (findings.empty() ? "" : "\n      ") << "]\n    }\n  ]\n}\n";
}

// --baseline-check: the baseline is debt, and debt lists rot. Fail on
// duplicate entries (copy-paste) and on stale entries that no longer match
// any finding (the debt was paid but the entry kept suppressing).
int baseline_check(const char* stage, const std::string& baseline_path,
                   const std::vector<Finding>& findings) {
  std::vector<std::string> entries;
  std::ifstream in(baseline_path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    entries.push_back(line);
  }
  std::set<std::string> live;
  for (const Finding& f : findings) live.insert(baseline_key(f));
  std::set<std::string> seen;
  int bad = 0;
  for (const std::string& e : entries) {
    if (!seen.insert(e).second) {
      std::printf("%s: duplicate baseline entry: %s\n", stage, normalize(e).c_str());
      ++bad;
    } else if (live.count(e) == 0) {
      std::printf("%s: stale baseline entry (no longer fires): %s\n", stage,
                  normalize(e).c_str());
      ++bad;
    }
  }
  if (bad == 0) {
    std::printf("%s: baseline %s clean (%zu entries, all live, no duplicates)\n", stage,
                baseline_path.c_str(), entries.size());
    return 0;
  }
  std::printf("%s: %d baseline hygiene issue(s) in %s\n", stage, bad, baseline_path.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_path;
  std::string sarif_path;
  std::string root = ".";
  bool run_self_test = false;
  bool update_baseline = false;
  bool check_baseline = false;
  bool analyze_only = false;
  bool hotpath_only = false;
  bool fpflow_only = false;
  bool coverage_report = false;
  bool json = false;
  double coverage_floor = kDefaultCoverageFloor;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      run_self_test = true;
    } else if (arg == "--analyze") {
      analyze_only = true;
    } else if (arg == "--hotpath") {
      hotpath_only = true;
    } else if (arg == "--fpflow") {
      fpflow_only = true;
    } else if (arg == "--coverage-report") {
      coverage_report = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--coverage-floor" && i + 1 < argc) {
      coverage_floor = std::strtod(argv[++i], nullptr);
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--update-baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
      update_baseline = true;
    } else if (arg == "--baseline-check" && i + 1 < argc) {
      baseline_path = argv[++i];
      check_baseline = true;
    } else if (arg == "--sarif" && i + 1 < argc) {
      sarif_path = argv[++i];
    } else if (arg == "--help") {
      std::printf("usage: bkr_lint [--self-test] [--analyze] [--hotpath] [--fpflow] "
                  "[--coverage-report] [--json] [--sarif FILE] [--coverage-floor F] "
                  "[--baseline FILE | --update-baseline FILE | --baseline-check FILE] "
                  "[ROOT]\n"
                  "  default: per-file rules over src/ bench/ tests/ plus the cross-TU\n"
                  "  project model, hot-path call-graph and precision-flow analysis\n"
                  "  over src/; --analyze / --hotpath / --fpflow restrict to those\n"
                  "  stages (combinable). --baseline-check fails on duplicate or\n"
                  "  stale baseline entries; --sarif also writes SARIF 2.1.0.\n");
      return 0;
    } else {
      root = arg;
    }
  }
  if (run_self_test) return self_test();
  if (coverage_report) return coverage_report_tree(root, coverage_floor);

  std::vector<Finding> findings;
  const bool all_stages = !analyze_only && !hotpath_only && !fpflow_only;
  if (all_stages) {
    const std::vector<std::string> subdirs = {"src", "bench", "tests"};
    findings = scan_tree(root, subdirs);
  }
  if (all_stages || analyze_only) {
    const std::vector<Finding> project = analyze_tree(root, coverage_floor);
    findings.insert(findings.end(), project.begin(), project.end());
  }
  if (all_stages || hotpath_only) {
    const std::vector<Finding> hot = hotpath_tree(root);
    findings.insert(findings.end(), hot.begin(), hot.end());
  }
  if (all_stages || fpflow_only) {
    const std::vector<Finding> fp = fpflow_tree(root);
    findings.insert(findings.end(), fp.begin(), fp.end());
  }
  const char* stage = all_stages      ? "bkr-lint"
                      : analyze_only  ? "bkr-analyze"
                      : hotpath_only  ? "bkr-hotpath"
                                      : "bkr-fpflow";

  if (check_baseline) return baseline_check(stage, baseline_path, findings);

  if (update_baseline) {
    std::ofstream out(baseline_path);
    out << "# bkr-lint baseline: rule<TAB>path<TAB>normalized line content.\n"
        << "# Every entry needs a justification comment above it.\n";
    for (const Finding& f : findings) out << baseline_key(f) << "\n";
    std::printf("%s: wrote %zu baseline entries to %s\n", stage, findings.size(),
                baseline_path.c_str());
    return 0;
  }

  std::set<std::string> baseline;
  if (!baseline_path.empty()) baseline = load_baseline(baseline_path);
  std::vector<Finding> visible;
  for (const Finding& f : findings)
    if (baseline.count(baseline_key(f)) == 0) visible.push_back(f);
  if (!sarif_path.empty()) write_sarif(sarif_path, stage, visible);
  for (const Finding& f : visible) {
    if (json)
      std::printf("{\"rule\":\"%s\",\"file\":\"%s\",\"line\":%ld,\"content\":\"%s\"}\n",
                  bkr::json::escape(f.rule).c_str(), bkr::json::escape(f.path).c_str(), f.line,
                  bkr::json::escape(f.content).c_str());
    else
      std::printf("%s:%ld: [%s] %s\n", f.path.c_str(), f.line, f.rule.c_str(),
                  f.content.c_str());
  }
  // In --json mode the summary goes to stderr so stdout stays pure JSONL.
  std::FILE* sum = json ? stderr : stdout;
  if (visible.empty()) {
    std::fprintf(sum, "%s: clean (%zu finding(s) baselined)\n", stage, findings.size());
    return 0;
  }
  std::fprintf(sum, "%s: %zu unsuppressed finding(s)\n", stage, visible.size());
  return 1;
}
