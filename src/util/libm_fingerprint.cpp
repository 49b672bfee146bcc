#include "util/libm_fingerprint.h"

#include <charconv>
#include <cmath>

namespace rlbf::util {

namespace {

/// Deliberately the same locale-INDEPENDENT rendering rule as
/// exp::format_double_exact (%.17g semantics via std::to_chars,
/// duplicated here so util stays below exp in the layering): a
/// fingerprint comparing two hosts' libm must never fork on LC_NUMERIC
/// instead.
std::string exact(double value) {
  char buf[64];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 17);
  return std::string(buf, res.ptr);
}

}  // namespace

std::string libm_fingerprint() {
  // Probes from the regions the code exercises: Pareto tails (pow with
  // fractional exponents), softmax/logits (exp, log), and tanh
  // activations. Plain arithmetic is IEEE-exact everywhere, so only
  // transcendentals can differ between hosts.
  std::string report = "libm fingerprint (bit-exact sentinel values):\n";
  report += "  pow(1.25, 2.5)      = " + exact(std::pow(1.25, 2.5)) + "\n";
  report += "  pow(10.0, -3.7)     = " + exact(std::pow(10.0, -3.7)) + "\n";
  report += "  exp(1.0)            = " + exact(std::exp(1.0)) + "\n";
  report += "  exp(-12.345)        = " + exact(std::exp(-12.345)) + "\n";
  report += "  log(3.14159)        = " + exact(std::log(3.14159)) + "\n";
  report += "  log1p(1e-05)        = " + exact(std::log1p(1e-05)) + "\n";
  report += "  tanh(0.75)          = " + exact(std::tanh(0.75)) + "\n";
  report += "  sqrt(2.0)           = " + exact(std::sqrt(2.0)) + "\n";
  return report;
}

}  // namespace rlbf::util
