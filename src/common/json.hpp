// The project's one JSON reader and string escaper. Every JSON surface goes
// through it: the bkr_serve request protocol, the BENCH_*.json documents
// tools/bench_check gates, the solver trace and bkr-lint's reports.
//
// Header-only and dependency-free, so tools that do not link the bkr
// library (bench_check, bkr_lint) use it too.
//
// The reader follows the JSON grammar with two leniencies the project's
// readers have always had: numbers are whatever strtod reads (so `nan`,
// `inf` and `1e999` are numbers, and a protocol's admission checks decide
// what to do with them), and raw control bytes inside strings are kept.
// Nesting is bounded by kMaxDepth, so untrusted input cannot drive the
// recursive descent without limit.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace bkr::json {

// Deepest array/object nesting parse() accepts; the top-level value is
// depth 1. The deepest document the project writes, the solver trace, is 6.
inline constexpr int kMaxDepth = 64;

enum class Type { Null, Bool, Number, String, Array, Object };

struct Value {
  Type type = Type::Null;
  bool boolean = false;
  double number = 0;
  std::string text;
  std::vector<Value> items;
  std::map<std::string, Value> fields;  // a repeated key keeps its last value

  // Field `key` of an object when it holds a `want`, else nullptr.
  [[nodiscard]] const Value* get(const std::string& key, Type want) const {
    const auto it = fields.find(key);
    return it != fields.end() && it->second.type == want ? &it->second : nullptr;
  }
};

namespace detail {

class Reader {
 public:
  Reader(const std::string& s, bool flat) : s_(s), flat_(flat) {}

  bool document(Value* out, std::string* err) {
    *out = Value();
    bool ok = value(out, 1);
    if (ok) {
      skip_ws();
      ok = pos_ == s_.size() || fail("trailing content");
    }
    if (!ok && err != nullptr) *err = error_;
    return ok;
  }

 private:
  const std::string& s_;
  const bool flat_;
  size_t pos_ = 0;
  std::string error_;

  bool fail(const char* what) {
    if (error_.empty()) error_ = std::string(what) + " at offset " + std::to_string(pos_);
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) ++pos_;
  }

  bool literal(std::string_view word) {
    if (s_.compare(pos_, word.size(), word) != 0) return false;
    pos_ += word.size();
    return true;
  }

  bool value(Value* out, int depth) {
    skip_ws();
    if (pos_ >= s_.size()) return fail("truncated value");
    const char c = s_[pos_];
    if (flat_ && depth == 1 && c != '{') return fail("expected object");
    if (c == '{' || c == '[') {
      if (flat_ && depth > 1) return fail("nested values not supported");
      if (depth > kMaxDepth) return fail("nesting deeper than kMaxDepth");
      return c == '{' ? object(out, depth) : array(out, depth);
    }
    if (c == '"') {
      out->type = Type::String;
      return string(&out->text);
    }
    if (literal("true") || literal("false")) {
      out->type = Type::Bool;
      out->boolean = c == 't';
      return true;
    }
    if (literal("null")) {
      out->type = Type::Null;
      return true;
    }
    char* end = nullptr;
    out->number = std::strtod(s_.c_str() + pos_, &end);
    if (end == s_.c_str() + pos_) return fail("bad number");
    out->type = Type::Number;
    pos_ = size_t(end - s_.c_str());
    return true;
  }

  // Four hex digits at pos_ (after "\u").
  bool hex4(unsigned* code) {
    if (s_.size() - pos_ < 4) return fail("bad \\u escape");
    *code = 0;
    for (int k = 0; k < 4; ++k) {
      const unsigned char h = static_cast<unsigned char>(s_[pos_++]);
      if (std::isxdigit(h) == 0) return fail("bad \\u escape");
      *code = *code * 16 + unsigned(std::isdigit(h) != 0 ? h - '0' : (h | 0x20) - 'a' + 10);
    }
    return true;
  }

  // \uXXXX (a surrogate pair when XXXX is a high surrogate), as UTF-8.
  bool unicode_escape(std::string* out) {
    unsigned code = 0;
    if (!hex4(&code)) return false;
    if (code >= 0xDC00 && code <= 0xDFFF) return fail("lone low surrogate");
    if (code >= 0xD800 && code <= 0xDBFF) {
      unsigned low = 0;
      if (!literal("\\u") || !hex4(&low) || low < 0xDC00 || low > 0xDFFF)
        return fail("unpaired high surrogate");
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    // UTF-8: a lead byte, then six bits per continuation byte.
    const int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    constexpr unsigned kLead[] = {0x00, 0xC0, 0xE0, 0xF0};
    out->push_back(char(kLead[tail] | (code >> (6 * tail))));
    for (int k = tail - 1; k >= 0; --k) out->push_back(char(0x80 | ((code >> (6 * k)) & 0x3F)));
    return true;
  }

  bool string(std::string* out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return fail("expected string");
    ++pos_;
    out->clear();
    while (pos_ < s_.size() && s_[pos_] != '"') {
      const char c = s_[pos_++];
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) break;
      const char e = s_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'n': out->push_back('\n'); break;
        case 't': out->push_back('\t'); break;
        default:
          // A flat request takes only the escapes above, as the serve
          // protocol always has.
          if (flat_) return fail("unsupported escape");
          if (e == 'b') out->push_back('\b');
          else if (e == 'f') out->push_back('\f');
          else if (e == 'r') out->push_back('\r');
          else if (e != 'u' || !unicode_escape(out)) return fail("bad escape");
      }
    }
    if (pos_ >= s_.size()) return fail("unterminated string");
    ++pos_;  // closing quote
    return true;
  }

  bool array(Value* out, int depth) {
    out->type = Type::Array;
    ++pos_;  // '['
    skip_ws();
    if (literal("]")) return true;
    for (;;) {
      out->items.emplace_back();
      if (!value(&out->items.back(), depth + 1)) return false;
      skip_ws();
      if (literal(",")) continue;
      if (literal("]")) return true;
      return fail("expected ',' or ']'");
    }
  }

  bool object(Value* out, int depth) {
    out->type = Type::Object;
    ++pos_;  // '{'
    skip_ws();
    if (literal("}")) return true;
    for (;;) {
      skip_ws();
      std::string key;
      if (!string(&key)) return false;
      skip_ws();
      if (!literal(":")) return fail("expected ':'");
      Value v;
      if (!value(&v, depth + 1)) return false;
      out->fields.insert_or_assign(std::move(key), std::move(v));
      skip_ws();
      if (literal(",")) continue;
      if (literal("}")) return true;
      return fail("expected ',' or '}'");
    }
  }
};

}  // namespace detail

// Parses `text` as one JSON value, surrounded by optional whitespace, into
// `*out` (replacing what it held). On failure returns false and, when
// `err` is given, says what failed at which byte offset.
inline bool parse(const std::string& text, Value* out, std::string* err = nullptr) {
  return detail::Reader(text, false).document(out, err);
}

// Parses one flat request object, the subset the bkr_serve protocol reads:
// an object whose values are strings, numbers, bools or null. A nested
// array or object, and any string escape other than \" \\ \/ \n \t (so
// every \u escape), is rejected.
inline bool parse_flat(const std::string& text, Value* out, std::string* err = nullptr) {
  return detail::Reader(text, true).document(out, err);
}

// `s` as the body of a JSON string (no quotes): '"' and '\' escaped, \n
// and \t by name, every other byte below 0x20 as \u00xx; all other bytes,
// UTF-8 sequences included, pass through.
inline std::string escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned char>(c));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

}  // namespace bkr::json
