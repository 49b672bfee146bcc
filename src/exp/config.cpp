#include "exp/config.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <locale.h>
#include <sstream>
#include <stdexcept>

namespace rlbf::exp {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

// All numeric parsing is pinned to the C locale: an embedding process
// that calls setlocale(LC_NUMERIC, "de_DE") must not make strtod treat
// '.' as a thousands separator and reject "3.14" (or, worse, accept
// "3,14"). Sweep values, flags, and fingerprints all parse identically
// on every host a shard lands on. newlocale can fail (ENOMEM); passing
// a null locale_t to strtod_l is undefined, so fall back to plain
// strtod rather than cache a crash.
double strtod_c(const char* text, char** end) {
  // The lazy init runs after the caller has already set errno = 0, and
  // POSIX leaves errno unspecified on newlocale success — shield the
  // caller's errno protocol from the one-time setup.
  static const locale_t loc = [] {
    const int saved_errno = errno;
    const locale_t l = newlocale(LC_ALL_MASK, "C", nullptr);
    errno = saved_errno;
    return l;
  }();
  if (loc == static_cast<locale_t>(nullptr)) return std::strtod(text, end);
  return strtod_l(text, end, loc);
}

}  // namespace

bool parse_number(const std::string& text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = strtod_c(text.c_str(), &end);
  if (end != text.c_str() + text.size()) return false;
  // strtod reports ERANGE both for true overflow (result ±HUGE_VAL) and
  // for subnormal results ("1e-320"), which are perfectly valid inputs:
  // accept any finite value, reject overflow and every other errno.
  if (errno != 0 && !(errno == ERANGE && std::isfinite(v))) return false;
  *out = v;
  return true;
}

bool parse_int64(const std::string& text, std::int64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<std::int64_t>(v);
  return true;
}

bool parse_uint64(const std::string& text, std::uint64_t* out) {
  if (text.empty() || text[0] == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

bool parse_bool(const std::string& text, bool* out) {
  const std::string t = lower(text);
  if (t == "1" || t == "true" || t == "yes" || t == "on") {
    *out = true;
    return true;
  }
  if (t == "0" || t == "false" || t == "no" || t == "off") {
    *out = false;
    return true;
  }
  return false;
}

std::string format_double_exact(double value) {
  // std::to_chars is locale-independent by definition and its
  // precision form is specified to match printf "%.17g" byte for byte
  // (verified against snprintf across random doubles when this was
  // introduced), so fingerprints cannot fork under LC_NUMERIC.
  char buf[64];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  return std::string(buf, res.ptr);
}

ArgParser::ArgParser(std::string program, std::string summary)
    : program_(std::move(program)), summary_(std::move(summary)) {}

void ArgParser::add_typed(const std::string& name, const std::string& help,
                          std::string default_value, bool is_switch,
                          std::function<bool(const std::string&)> assign) {
  Flag flag;
  flag.name = name.rfind("--", 0) == 0 ? name : "--" + name;
  if (find(flag.name) != nullptr) {
    // A second binding would print twice in usage() and never be set.
    throw std::logic_error(program_ + ": flag " + flag.name +
                           " is registered twice");
  }
  flag.help = help;
  flag.default_value = std::move(default_value);
  flag.is_switch = is_switch;
  flag.assign = std::move(assign);
  flags_.push_back(std::move(flag));
}

void ArgParser::add(const std::string& name, std::string* value,
                    const std::string& help) {
  add_typed(name, help, *value, false, [value](const std::string& v) {
    *value = v;
    return true;
  });
}

void ArgParser::add(const std::string& name, bool* value, const std::string& help) {
  add_typed(name, help, *value ? "true" : "false", false,
            [value](const std::string& v) { return parse_bool(v, value); });
}

void ArgParser::add_flag(const std::string& name, bool* value,
                         const std::string& help) {
  add_typed(name, help, *value ? "true" : "false", true,
            [value](const std::string& v) { return parse_bool(v, value); });
}

void ArgParser::add(const std::string& name, double* value, const std::string& help) {
  std::ostringstream os;
  os << *value;
  add_typed(name, help, os.str(), false,
            [value](const std::string& v) { return parse_number(v, value); });
}

void ArgParser::add_positional(const std::string& name, std::string* value,
                               const std::string& help) {
  positionals_.push_back({name, help, value});
}

namespace {

// "--sample-jobs" and "--sample_jobs" are the same flag: the repo's
// binaries historically mixed both spellings, so the parser folds them.
bool same_flag_name(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const char x = a[i] == '_' ? '-' : a[i];
    const char y = b[i] == '_' ? '-' : b[i];
    if (x != y) return false;
  }
  return true;
}

}  // namespace

const ArgParser::Flag* ArgParser::find(const std::string& name) const {
  for (const auto& flag : flags_) {
    if (same_flag_name(flag.name, name)) return &flag;
  }
  return nullptr;
}

bool ArgParser::parse(int argc, char** argv, std::string* error) {
  std::vector<std::string> args;
  args.reserve(argc > 0 ? static_cast<std::size_t>(argc) - 1 : 0);
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);
  return parse(args, error);
}

bool ArgParser::parse(const std::vector<std::string>& args, std::string* error) {
  help_requested_ = false;
  const auto fail = [error](const std::string& message) {
    if (error) *error = message;
    return false;
  };
  std::size_t next_positional = 0;
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "-h") {
      help_requested_ = true;
      continue;
    }
    if (arg.rfind("--", 0) != 0) {
      if (next_positional >= positionals_.size()) {
        return fail("unexpected argument: " + arg);
      }
      *positionals_[next_positional++].value = arg;
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const Flag* flag = find(name);
    if (flag == nullptr) return fail("unknown flag: " + name);
    if (eq == std::string::npos) {
      if (!flag->is_switch) return fail("flag needs a value: " + name + "=...");
      flag->assign("true");
      continue;
    }
    const std::string value = arg.substr(eq + 1);
    if (!flag->assign(value)) {
      return fail("bad value for " + name + ": '" + value + "'");
    }
  }
  return true;
}

void ArgParser::parse_or_exit(int argc, char** argv) {
  std::string error;
  if (!parse(argc, argv, &error)) {
    std::cerr << program_ << ": " << error << "\n\n" << usage();
    std::exit(2);
  }
  if (help_requested_) {
    std::cout << usage();
    std::exit(0);
  }
}

std::string ArgParser::usage() const {
  std::ostringstream os;
  os << "usage: " << program_;
  for (const auto& pos : positionals_) os << " [" << pos.name << "]";
  if (!flags_.empty()) os << " [flags]";
  os << "\n";
  if (!summary_.empty()) os << summary_ << "\n";
  std::size_t width = 0;
  for (const auto& flag : flags_) {
    width = std::max(width, flag.name.size() + (flag.is_switch ? 0 : 2));
  }
  for (const auto& pos : positionals_) {
    os << "  " << pos.name << std::string(width > pos.name.size() ? width - pos.name.size() : 0, ' ')
       << "    " << pos.help << "\n";
  }
  for (const auto& flag : flags_) {
    const std::string shown = flag.is_switch ? flag.name : flag.name + "=X";
    os << "  " << shown << std::string(width - shown.size(), ' ') << "    "
       << flag.help << " (default: " << flag.default_value << ")\n";
  }
  return os.str();
}

}  // namespace rlbf::exp
