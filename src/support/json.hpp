// Minimal JSON reader and writer for the repo's own machine-readable
// artifacts.
//
// Writer: every JSON document the library and tools emit (ctl envelopes,
// telemetry export, flight records, alert and link tables, muerpd's pages)
// formats its strings with quote() and its numbers with number(), so one
// escaping rule and one number format hold everywhere. Documents are
// assembled by appending to a std::string; there is no DOM builder.
//
// Reader: tools that read those documents back — bench_diff comparing a
// fresh perf run against the committed BENCH_routing.json, tests
// round-tripping exporter output — parse with this instead of growing a
// third-party dependency. It is a strict recursive-descent parser for the
// JSON actually produced here: all value kinds, nested containers, string
// escapes (\" \\ \/ \b \f \n \r \t and \uXXXX for the Basic Multilingual
// Plane; surrogate pairs are rejected), with object member order preserved.
// It is not a streaming parser.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace muerp::support::json {

/// One parsed JSON value. A tagged struct rather than std::variant so the
/// accessors read naturally at call sites (v["algorithms"][0]["name"]).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0.0;
  std::string string_value;
  std::vector<Value> elements;                            // kArray
  std::vector<std::pair<std::string, Value>> members;     // kObject

  bool is_null() const noexcept { return kind == Kind::kNull; }
  bool is_bool() const noexcept { return kind == Kind::kBool; }
  bool is_number() const noexcept { return kind == Kind::kNumber; }
  bool is_string() const noexcept { return kind == Kind::kString; }
  bool is_array() const noexcept { return kind == Kind::kArray; }
  bool is_object() const noexcept { return kind == Kind::kObject; }

  /// Member lookup (first match); nullptr when absent or not an object.
  const Value* find(std::string_view key) const noexcept;

  /// find() that dies gracefully: a shared null value when absent, so
  /// chained lookups (`v["a"]["b"].number_value`) never dereference null.
  const Value& operator[](std::string_view key) const noexcept;

  /// Element access with the same null-on-miss behavior.
  const Value& operator[](std::size_t index) const noexcept;
};

struct ParseResult {
  Value value;
  /// Empty on success; else "offset N: message".
  std::string error;
  bool ok() const noexcept { return error.empty(); }
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage is an error).
ParseResult parse(std::string_view text);

/// Appends `s` as a quoted JSON string literal. \" \\ \n \r \t are escaped
/// by name, every other byte below 0x20 as \u00xx; all other bytes (UTF-8
/// included) pass through, so parse(quote(s)) == s for any byte string.
void append_quoted(std::string& out, std::string_view s);
std::string quote(std::string_view s);

/// Appends `v` with max_digits10 significant digits (%.17g), which parse()
/// reads back bit for bit. NaN and +-Inf become null: JSON has no literal
/// for them.
void append_number(std::string& out, double v);
std::string number(double v);

}  // namespace muerp::support::json
