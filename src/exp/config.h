// One `--flag=value` command-line parser for every binary in the repo.
//
// Benches, examples, and the `rlbf_run` driver all take the same flag
// style; before this subsystem each of them carried its own copy of the
// parsing loop. ArgParser binds flags to caller-owned variables (so a
// config struct parses itself by binding its members), renders a usage
// block from the registered help strings, and reports unknown flags and
// malformed values as errors instead of silently ignoring them.
//
//   exp::ArgParser parser("my_tool", "what it does");
//   parser.add("--jobs", &jobs, "jobs to simulate");
//   parser.add_flag("--quick", &quick, "tiny budgets for smoke runs");
//   parser.parse_or_exit(argc, argv);   // --help prints usage, exit 0
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

namespace rlbf::exp {

/// Strict numeric conversions used by ArgParser and sweep-value parsing:
/// the whole string must convert and fit. Return false on junk ("12x",
/// "") and on range overflow; subnormal doubles ("1e-320") are valid
/// input. Pinned to the C locale — an embedding process running under
/// LC_NUMERIC=de_DE parses (and formats, see format_double_exact /
/// exp::format_metric) exactly like every other host. The integral
/// template covers every non-bool integer type (size_t included,
/// whatever it aliases on the platform).
bool parse_number(const std::string& text, double* out);
bool parse_int64(const std::string& text, std::int64_t* out);
bool parse_uint64(const std::string& text, std::uint64_t* out);

template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
bool parse_number(const std::string& text, T* out) {
  if constexpr (std::is_signed_v<T>) {
    std::int64_t v = 0;
    if (!parse_int64(text, &v)) return false;
    if (v < static_cast<std::int64_t>(std::numeric_limits<T>::min()) ||
        v > static_cast<std::int64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    *out = static_cast<T>(v);
  } else {
    std::uint64_t v = 0;
    if (!parse_uint64(text, &v)) return false;
    if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    *out = static_cast<T>(v);
  }
  return true;
}

/// Accepts 1/0/true/false/yes/no/on/off (case-insensitive).
bool parse_bool(const std::string& text, bool* out);

/// Exact decimal rendering ("%.17g", round-trips every double). Cache
/// keys and content-addressed fingerprints are built from this one
/// helper so they can never diverge on formatting.
std::string format_double_exact(double value);

class ArgParser {
 public:
  explicit ArgParser(std::string program, std::string summary = "");

  /// Bind `--name=value` to a variable. The current value of the target
  /// is rendered in usage() as the default, so bind after defaulting.
  /// Every add* throws std::logic_error when the name (with `_`/`-`
  /// folded) is already registered.
  void add(const std::string& name, std::string* value, const std::string& help);
  void add(const std::string& name, bool* value, const std::string& help);
  void add(const std::string& name, double* value, const std::string& help);

  /// Any non-bool integer type, size_t and friends included.
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void add(const std::string& name, T* value, const std::string& help) {
    add_typed(name, help, std::to_string(*value), false,
              [value](const std::string& v) { return parse_number(v, value); });
  }

  /// Bind a valueless switch: `--name` sets the target to true.
  /// (`--name=true|false` also works.)
  void add_flag(const std::string& name, bool* value, const std::string& help);

  /// Bind the i-th bare (non `--`) argument; optional, in bind order.
  void add_positional(const std::string& name, std::string* value,
                      const std::string& help);

  /// Parse `argv[1..)`. Returns false and fills `error` on an unknown
  /// flag, malformed value, or excess positional argument. `--help` is
  /// always accepted; parse() then returns true with help_requested()
  /// set. Parsing assigns in place: values seen before an error stick.
  bool parse(int argc, char** argv, std::string* error = nullptr);
  bool parse(const std::vector<std::string>& args, std::string* error = nullptr);

  /// parse(), but print the error + usage to stderr and exit(2) on
  /// failure, and print usage and exit(0) on `--help`.
  void parse_or_exit(int argc, char** argv);

  bool help_requested() const { return help_requested_; }

  /// Multi-line usage text: summary, then one line per flag with its
  /// help string and default.
  std::string usage() const;

  /// Implementation detail of the typed add() overloads; public only
  /// because the add() template instantiates through it.
  void add_typed(const std::string& name, const std::string& help,
                 std::string default_value, bool is_switch,
                 std::function<bool(const std::string&)> assign);

 private:
  struct Flag {
    std::string name;   // including leading "--"
    std::string help;
    std::string default_value;
    bool is_switch = false;  // valueless form allowed
    std::function<bool(const std::string&)> assign;
  };
  struct Positional {
    std::string name;
    std::string help;
    std::string* value = nullptr;
  };

  const Flag* find(const std::string& name) const;

  std::string program_;
  std::string summary_;
  std::vector<Flag> flags_;
  std::vector<Positional> positionals_;
  bool help_requested_ = false;
};

}  // namespace rlbf::exp
