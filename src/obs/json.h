// The one JSON reader and the one JSON writer for the observability
// sinks this repo emits — metrics registry dumps, Chrome trace_event
// documents, series files and training curves — plus the
// artifact-file helpers (read_file / write_file / csv_field) every obs
// and CLI sink goes through. It exists so obs::merge / obs::profile /
// `rlbf_run curves` can consume those files without an external
// dependency, and it stays inside obs (standard library only) so the
// layering contract in obs/metrics.h holds.
//
// Reader scope: full JSON syntax (objects, arrays, strings with
// escapes, numbers, bools, null), source-order-preserving objects, and
// locale-independent number parsing (std::from_chars; a literal past a
// double's range reads as ±inf, one below it as ±0). Strings must be
// well-formed: raw control bytes and unpaired \u surrogates are errors.
// Errors are std::runtime_error naming the document origin and byte
// offset, so a truncated worker sidecar fails with a message, never a
// crash.
#pragma once

#include <charconv>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <type_traits>
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

/// Streaming JSON writer. Every obs and CLI document is laid out by it,
/// so separators, indentation and empty containers follow one rule set:
///
///   * a compact container separates its elements with ", ";
///   * a line-layout container (`lines = true`) puts each element on its
///     own line, indented two spaces per enclosing line-layout
///     container, and closes on a line of its own;
///   * an empty container prints as {} or [] in either layout;
///   * strings (keys included) go through escape(), doubles through
///     obs::format_number, integers print exactly in the C locale;
///     raw() emits a pre-formatted token (exp::format_double_exact,
///     "null") verbatim.
///
/// The writer emits no trailing newline; a document's caller adds it.
/// Several top-level values may follow one another (one per JSONL
/// line), with the caller writing the line breaks between them.
class Writer {
 public:
  explicit Writer(std::ostream& os) : os_(os) {}

  Writer& object(bool lines = false) { return open('{', lines); }
  Writer& array(bool lines = false) { return open('[', lines); }
  /// Close the innermost open container.
  Writer& end();

  /// The next object member's key; its value comes from the next call.
  Writer& key(const std::string& name);

  Writer& value(const std::string& text);
  Writer& value(const char* text) { return value(std::string(text)); }
  Writer& value(double number);
  Writer& value(bool flag) { return raw(flag ? "true" : "false"); }
  template <typename T,
            std::enable_if_t<std::is_integral_v<T> && !std::is_same_v<T, bool>,
                             int> = 0>
  Writer& value(T number) {
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof(buf), number);
    return raw(std::string(buf, res.ptr));
  }

  /// A pre-formatted token, written as is.
  Writer& raw(const std::string& token);

 private:
  struct Frame {
    char close;
    bool lines;
    std::size_t count = 0;
  };

  Writer& open(char bracket, bool lines);
  /// Separator and indentation ahead of the next element (a key, or a
  /// value outside an object).
  void begin_element();
  void newline_indent();

  std::ostream& os_;
  std::vector<Frame> stack_;
  std::size_t line_depth_ = 0;  // open line-layout containers
  bool after_key_ = false;
};

}  // namespace rlbf::obs::json

namespace rlbf::obs {

/// The whole file as a string. Throws std::runtime_error "cannot open
/// <what>: <path>", "cannot read <what>: <path>" or "<what> is empty:
/// <path>" — `what` names the artifact ("sidecar file", "series file").
std::string read_file(const std::string& path, const std::string& what);

/// Open `path` binary and truncating, hand the stream to `write`, then
/// flush. False on any I/O error (cannot open, failed write or flush).
bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write);

/// RFC 4180 CSV field: quoted (inner quotes doubled) only when it holds
/// a comma, a quote or a newline.
std::string csv_field(const std::string& text);

}  // namespace rlbf::obs
