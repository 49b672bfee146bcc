#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "obs/metrics.h"

namespace rlbf::obs::json {

namespace {

/// Whether a number literal from_chars found out of range is too small
/// rather than too large: the place of its leading significant digit,
/// exponent included, is negative. Doubles span about 1e-324..1e308, so
/// that sign alone decides.
bool underflows(std::string_view literal) {
  const auto digit = [&](std::size_t i) {
    return i < literal.size() && std::isdigit(static_cast<unsigned char>(literal[i]));
  };
  std::size_t i = literal.find_first_not_of("+-");
  std::int64_t lead = -1;
  for (; digit(i); ++i) {
    if (lead >= 0 || literal[i] != '0') ++lead;
  }
  if (i < literal.size() && literal[i] == '.') {
    // No significant integer digit: each leading fraction zero moves the
    // leading digit one place further down.
    for (++i; lead < 0 && i < literal.size() && literal[i] == '0'; ++i) --lead;
  }
  i = literal.find_first_of("eE");
  std::int64_t exponent = 0;
  if (i != std::string_view::npos) {
    const bool negative = i + 1 < literal.size() && literal[i + 1] == '-';
    i = literal.find_first_not_of("+-", i + 1);
    // Saturate: an exponent this large is out of range either way.
    for (; digit(i) && exponent < 100000; ++i) exponent = exponent * 10 + (literal[i] - '0');
    if (negative) exponent = -exponent;
  }
  return lead + exponent < 0;
}

class Parser {
 public:
  Parser(const std::string& text, const std::string& origin)
      : text_(text), origin_(origin) {}

  Value parse_document() {
    Value value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error(origin_ + ": " + what + " at byte " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    skip_ws();
    if (pos_ >= text_.size()) fail("unexpected end of document");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "', got '" + text_[pos_] + "'");
    }
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t len = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, len, literal) != 0) return false;
    pos_ += len;
    return true;
  }

  Value parse_value() {
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Value v;
        v.kind = Value::Kind::String;
        v.text = parse_string();
        return v;
      }
      case 't':
        if (consume_literal("true")) {
          Value v;
          v.kind = Value::Kind::Bool;
          v.boolean = true;
          return v;
        }
        fail("malformed literal");
      case 'f':
        if (consume_literal("false")) {
          Value v;
          v.kind = Value::Kind::Bool;
          return v;
        }
        fail("malformed literal");
      case 'n':
        if (consume_literal("null")) return Value{};
        fail("malformed literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    Value v;
    v.kind = Value::Kind::Object;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      if (peek() != '"') fail("expected a string object key");
      std::string key = parse_string();
      expect(':');
      v.members.emplace_back(std::move(key), parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == '}') {
        ++pos_;
        return v;
      }
      fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    Value v;
    v.kind = Value::Kind::Array;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(parse_value());
      const char next = peek();
      if (next == ',') {
        ++pos_;
        continue;
      }
      if (next == ']') {
        ++pos_;
        return v;
      }
      fail("expected ',' or ']' in array");
    }
  }

  /// UTF-8-encode one code point (what \uXXXX escapes decode to).
  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  std::uint32_t parse_hex4() {
    if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
    std::uint32_t cp = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      cp <<= 4;
      if (c >= '0' && c <= '9') cp |= static_cast<std::uint32_t>(c - '0');
      else if (c >= 'a' && c <= 'f') cp |= static_cast<std::uint32_t>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') cp |= static_cast<std::uint32_t>(c - 'A' + 10);
      else fail("malformed \\u escape");
    }
    return cp;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        --pos_;
        fail("raw control byte in string");
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          std::uint32_t cp = parse_hex4();
          if (cp >= 0xDC00 && cp <= 0xDFFF) fail("lone low surrogate in \\u escape");
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // A high surrogate is half a code point: the low half must
            // follow as the next escape.
            if (text_.compare(pos_, 2, "\\u") != 0) {
              fail("lone high surrogate in \\u escape");
            }
            pos_ += 2;
            const std::uint32_t low = parse_hex4();
            if (low < 0xDC00 || low > 0xDFFF) {
              fail("high surrogate followed by a non-low-surrogate \\u escape");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          }
          append_utf8(out, cp);
          break;
        }
        default: fail("unknown string escape");
      }
    }
  }

  Value parse_number() {
    skip_ws();
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    Value v;
    v.kind = Value::Kind::Number;
    // from_chars: locale-independent, exact round trip of the shortest
    // representations the obs dumps emit. "1e999" (the dumps' +inf
    // rendering) overflows to result_out_of_range — map it back to inf;
    // a literal too small for a double (1e-400) underflows to zero.
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_,
                                     v.number);
    if (res.ec == std::errc::result_out_of_range) {
      const double magnitude =
          underflows(std::string_view(text_).substr(start, pos_ - start))
              ? 0.0
              : std::numeric_limits<double>::infinity();
      v.number = text_[start] == '-' ? -magnitude : magnitude;
    } else if (res.ec != std::errc() ||
               res.ptr != text_.data() + pos_ || start == pos_) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  const std::string& text_;
  const std::string& origin_;
  std::size_t pos_ = 0;
};

}  // namespace

const Value* Value::find(const std::string& key) const {
  if (kind != Kind::Object) return nullptr;
  for (const auto& [name, value] : members) {
    if (name == key) return &value;
  }
  return nullptr;
}

const Value& Value::at(const std::string& key) const {
  const Value* value = find(key);
  if (value == nullptr) {
    throw std::runtime_error("missing JSON member '" + key + "'");
  }
  return *value;
}

double Value::number_at(const std::string& key) const {
  const Value& value = at(key);
  if (!value.is_number()) {
    throw std::runtime_error("JSON member '" + key + "' is not a number");
  }
  return value.number;
}

const std::string& Value::string_at(const std::string& key) const {
  const Value& value = at(key);
  if (!value.is_string()) {
    throw std::runtime_error("JSON member '" + key + "' is not a string");
  }
  return value.text;
}

Value parse(const std::string& text, const std::string& origin) {
  return Parser(text, origin).parse_document();
}

std::string escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// ------------------------------------------------------------- Writer

Writer& Writer::open(char bracket, bool lines) {
  begin_element();
  os_ << bracket;
  stack_.push_back({bracket == '{' ? '}' : ']', lines});
  if (lines) ++line_depth_;
  return *this;
}

Writer& Writer::end() {
  const Frame frame = stack_.back();
  stack_.pop_back();
  if (frame.lines) {
    --line_depth_;
    if (frame.count > 0) newline_indent();
  }
  os_ << frame.close;
  return *this;
}

Writer& Writer::key(const std::string& name) {
  begin_element();
  os_ << '"' << escape(name) << "\": ";
  after_key_ = true;
  return *this;
}

Writer& Writer::value(const std::string& text) {
  return raw('"' + escape(text) + '"');
}

Writer& Writer::value(double number) { return raw(format_number(number)); }

Writer& Writer::raw(const std::string& token) {
  begin_element();
  os_ << token;
  return *this;
}

void Writer::begin_element() {
  // A key already placed this element; its value follows directly.
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (stack_.empty()) return;
  Frame& top = stack_.back();
  if (top.lines) {
    if (top.count > 0) os_ << ',';
    newline_indent();
  } else if (top.count > 0) {
    os_ << ", ";
  }
  ++top.count;
}

void Writer::newline_indent() {
  os_ << '\n' << std::string(2 * line_depth_, ' ');
}

}  // namespace rlbf::obs::json

namespace rlbf::obs {

std::string read_file(const std::string& path, const std::string& what) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot open " + what + ": " + path);
  std::ostringstream buf;
  buf << is.rdbuf();
  if (is.bad()) throw std::runtime_error("cannot read " + what + ": " + path);
  std::string text = buf.str();
  if (text.empty()) throw std::runtime_error(what + " is empty: " + path);
  return text;
}

bool write_file(const std::string& path,
                const std::function<void(std::ostream&)>& write) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) return false;
  write(os);
  os.flush();
  return static_cast<bool>(os);
}

std::string csv_field(const std::string& text) {
  if (text.find_first_of(",\"\n") == std::string::npos) return text;
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace rlbf::obs
