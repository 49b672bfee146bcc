// A minimal JSON reader (and the one string escaper every writer shares)
// for the observability sinks this repo emits —
// metrics registry dumps, Chrome trace_event documents, and bench
// reports. It exists so obs::merge / obs::profile / `rlbf_run bench
// --compare` can consume those files without an external dependency,
// and it stays inside obs (standard library only) so the layering
// contract in obs/metrics.h holds.
//
// Scope: full JSON syntax (objects, arrays, strings with escapes,
// numbers, bools, null), source-order-preserving objects, and
// locale-independent number parsing (std::from_chars). Errors are
// std::runtime_error naming the document origin and byte offset, so a
// truncated worker sidecar fails with a message, never a crash.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rlbf::obs::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Kind kind = Kind::Null;
  bool boolean = false;
  double number = 0.0;
  std::string text;                                    // String payload
  std::vector<Value> items;                            // Array elements
  std::vector<std::pair<std::string, Value>> members;  // Object, source order

  bool is_null() const { return kind == Kind::Null; }
  bool is_number() const { return kind == Kind::Number; }
  bool is_string() const { return kind == Kind::String; }
  bool is_array() const { return kind == Kind::Array; }
  bool is_object() const { return kind == Kind::Object; }

  /// First member with this key, or nullptr when absent (or when this
  /// value is not an object at all).
  const Value* find(const std::string& key) const;

  /// find(), but a named std::runtime_error when the key is missing.
  const Value& at(const std::string& key) const;

  /// at(key).number, throwing when the member is not a number.
  double number_at(const std::string& key) const;

  /// at(key).text, throwing when the member is not a string.
  const std::string& string_at(const std::string& key) const;
};

/// Parse one complete JSON document (trailing whitespace allowed,
/// trailing garbage is an error). `origin` names the document in every
/// error message — pass the file path.
Value parse(const std::string& text, const std::string& origin = "json");

/// JSON string-content escaping: quotes, backslashes, and every control
/// byte (\n, \t, \r as short escapes, the rest as \u00XX), so no name,
/// label, tag or path can make a writer emit invalid JSON.
std::string escape(const std::string& text);

}  // namespace rlbf::obs::json
