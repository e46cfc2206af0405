// Tests of the one JSON reader and escaper (src/common/json.hpp): the
// accept/reject table of the bkr_serve request protocol, the escape ->
// parse round trip over every byte, and a seeded mutation fuzzer over both
// parse modes. scripts/tier1.sh runs them under ASan+UBSan.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/rng.hpp"

namespace {

namespace json = bkr::json;
using bkr::index_t;

TEST(Json, ServeProtocolAcceptRejectTable) {
  // Numbers are what strtod reads: NaN and out-of-range values parse, and
  // the server's admission checks answer them `bad solve request`.
  struct NumberCase {
    const char* line;
    const char* key;
    double want;
  };
  for (const NumberCase& c : {NumberCase{R"({"tol":nan})", "tol", NAN},
                              NumberCase{R"({"nrhs":1e30})", "nrhs", 1e30},
                              NumberCase{R"({"k":-1e300})", "k", -1e300}}) {
    json::Value v;
    ASSERT_TRUE(json::parse_flat(c.line, &v)) << c.line;
    const json::Value* f = v.get(c.key, json::Type::Number);
    ASSERT_NE(f, nullptr) << c.line;
    if (std::isnan(c.want)) {
      EXPECT_TRUE(std::isnan(f->number)) << c.line;
    } else {
      EXPECT_EQ(f->number, c.want) << c.line;
    }
  }
  // A nested value and a \u escape are outside the request subset; both
  // are valid JSON.
  for (const char* line : {R"({"a":{"b":1}})", R"({"a":[1,2]})", R"({"id":"\u0041"})"}) {
    json::Value v;
    std::string err;
    EXPECT_FALSE(json::parse_flat(line, &v, &err)) << line;
    EXPECT_FALSE(err.empty()) << line;
    EXPECT_TRUE(json::parse(line, &v)) << line;
  }
  json::Value u;
  ASSERT_TRUE(json::parse(R"({"id":"\u0041\u00e9\ud83d\ude00"})", &u));
  EXPECT_EQ(u.get("id", json::Type::String)->text, "A\xC3\xA9\xF0\x9F\x98\x80");
  // A repeated key keeps its last value.
  json::Value dup;
  ASSERT_TRUE(json::parse_flat(R"({"id":"first","id":"last"})", &dup));
  EXPECT_EQ(dup.fields.size(), 1u);
  EXPECT_EQ(dup.get("id", json::Type::String)->text, "last");
  // Deep nesting fails at the bound rather than by exhausting the stack.
  std::string err;
  json::Value deep;
  EXPECT_FALSE(json::parse(std::string(10000, '['), &deep, &err));
  EXPECT_NE(err.find("nesting deeper than kMaxDepth"), std::string::npos) << err;
  EXPECT_FALSE(json::parse_flat(std::string(10000, '['), &deep));
  const std::string at_bound =
      std::string(json::kMaxDepth, '[') + std::string(json::kMaxDepth, ']');
  EXPECT_TRUE(json::parse(at_bound, &deep));
  EXPECT_FALSE(json::parse("[" + at_bound + "]", &deep));
  // Truncated and trailing input.
  for (const char* line : {"", "{", R"({"id":"x)", R"({"id":"x"} trailing)", "this is not json"})
    EXPECT_FALSE(json::parse_flat(line, &deep)) << line;
}

TEST(Json, EscapeParseRoundTripsEveryByte) {
  std::string every;
  for (int b = 0; b < 256; ++b) {
    const std::string one(1, static_cast<char>(b));
    const std::string escaped = json::escape(one);
    for (const char c : escaped) EXPECT_GE(static_cast<unsigned char>(c), 0x20) << b;
    json::Value v;
    ASSERT_TRUE(json::parse('"' + escaped + '"', &v)) << b;
    EXPECT_EQ(v.text, one) << b;
    every += one;
  }
  json::Value v;
  ASSERT_TRUE(json::parse('"' + json::escape(every) + '"', &v));
  EXPECT_EQ(v.text, every);
  EXPECT_EQ(json::escape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
}

// Seeds: one request of every serve op, one carrying every field the
// server's admission reads, and the head of each committed BENCH_*.json.
const char* const kSeeds[] = {
    R"({"op":"solve","id":"r1","matrix":"poisson2d:16","method":"gcrodr"})",
    R"({"op":"flush"})",
    R"({"op":"cancel","id":"r1"})",
    R"({"op":"stats"})",
    R"({"op":"degrade","level":2})",
    R"({"op":"shutdown"})",
    R"({"op":"solve","id":"all","tenant":"a","matrix":"varcoef:32:100:8","method":"pseudo_gcrodr",)"
    R"("nrhs":2,"nu":0.25,"tol":1e-8,"m":30,"k":10,"coarse":4,"max_iterations":500,)"
    R"("deadline_ms":1000,"return_x":true,"hold":false})",
    R"({
  "schema": "bkr-bench-kernels-1",
  "mode": "full",
  "hardware_lanes": 1,
  "calibration_seconds": 8.833140000e-04,
  "entries": [
    {"kernel": "spmv", "shape": "poisson96 p=1", "threads": 0, "median_seconds": 3.603100000e-05, "reps": 9},
    {"kernel": "spmv", "shape": "poisson96 p=1", "threads": 1, "median_seconds": 3.835000000e-05, "reps": 9}
  ]
}
)",
    R"({
  "schema": "bkr-bench-sharded-1",
  "mode": "full",
  "entries": [
    {"case": "poisson2d-64", "shards": 1, "coarse": 0, "iterations": 45, "converged": true, "setup_seconds": 4.880733000e-03, "solve_seconds": 2.442783400e-02},
    {"case": "poisson2d-64", "shards": 2, "coarse": 0, "iterations": 45, "converged": true, "setup_seconds": 4.590125000e-03, "solve_seconds": 2.410311000e-02}
  ]
}
)",
};

// Byte flips, truncations and splices of the seeds through both parse
// modes. Nothing may crash (the sanitizer build turns any out-of-bounds
// read into a failure), and a line the flat parse accepts must be a flat
// object the full parse accepts too.
TEST(JsonFuzz, SeededMutations) {
  const index_t nseeds = index_t(std::size(kSeeds));
  for (const char* seed : kSeeds) {
    json::Value v;
    ASSERT_TRUE(json::parse(seed, &v)) << seed;
  }
  // Bytes that steer the reader into its less common branches.
  const std::string grammar = "{}[]\":,\\/untfr0123456789eE+-. \t";
  bkr::Rng rng(0x15011);
  int accepted = 0, rejected = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::string s = kSeeds[rng.index(0, nseeds - 1)];
    const index_t edits = rng.index(1, 4);
    for (index_t e = 0; e < edits && !s.empty(); ++e) {
      const size_t at = size_t(rng.index(0, index_t(s.size()) - 1));
      switch (rng.index(0, 3)) {
        case 0:  // flip to an arbitrary byte
          s[at] = static_cast<char>(rng.index(0, 255));
          break;
        case 1:  // flip to a grammar byte
          s[at] = grammar[size_t(rng.index(0, index_t(grammar.size()) - 1))];
          break;
        case 2:  // truncate
          s.resize(at);
          break;
        default: {  // splice the tail of another seed
          const std::string other = kSeeds[rng.index(0, nseeds - 1)];
          s = s.substr(0, at) + other.substr(size_t(rng.index(0, index_t(other.size()) - 1)));
        }
      }
    }
    json::Value full, flat;
    std::string err;
    const bool full_ok = json::parse(s, &full, &err);
    EXPECT_EQ(full_ok, err.empty()) << s;
    if (json::parse_flat(s, &flat)) {
      ++accepted;
      EXPECT_TRUE(full_ok) << s;
      EXPECT_EQ(flat.type, json::Type::Object) << s;
      for (const auto& [key, value] : flat.fields)
        EXPECT_TRUE(value.type != json::Type::Object && value.type != json::Type::Array) << s;
    } else {
      ++rejected;
    }
  }
  // Both outcomes must be exercised, or the mutator tests nothing.
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 100);
}

}  // namespace
