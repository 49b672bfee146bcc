// Sentinel libm values for diagnosing golden-file drift across hosts.
//
// The golden suite pins numeric *formatting* to the C locale, but the
// doubles being formatted still come out of the platform's libm — a
// different pow/exp/log implementation can perturb last-ulp results
// enough to change a 2–4 decimal rendering. When a golden comparison
// fails, printing this fingerprint alongside the diff tells immediately
// whether the host's libm agrees bit-for-bit with the one the goldens
// were generated on (identical fingerprint: the drift is a real code
// change; different fingerprint: the goldens need per-platform pinning
// or regeneration on this host).
#pragma once

#include <string>

namespace rlbf::util {

/// A small multi-line report of exactly-rendered (%.17g) sentinel
/// std::pow / std::exp / std::log / std::tanh values chosen from the
/// ranges the simulator and the NN actually evaluate. Byte-identical
/// output means bit-identical libm results for these probes.
std::string libm_fingerprint();

}  // namespace rlbf::util
