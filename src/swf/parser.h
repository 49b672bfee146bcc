// SWF v2 reader. Handles the Parallel Workloads Archive conventions:
// ';'-prefixed header comments (MaxProcs, MaxNodes, UnixStartTime, ...),
// 18 whitespace-separated fields per job line, -1 for unknown values.
//
// Real archive files (SDSC-SP2, HPC2N, ...) parse unchanged; the test
// suite exercises the format with embedded fixtures.
#pragma once

#include <istream>
#include <map>
#include <string>

#include "swf/trace.h"

namespace rlbf::swf {

struct ParseOptions {
  /// Drop jobs with unknown runtime/size instead of failing (archive files
  /// contain cancelled jobs recorded with -1 fields). Default true.
  bool skip_invalid_jobs = true;
  /// Re-sort by submit time and renumber ids after reading. Default true.
  bool normalize = true;
  /// Clamp requested_procs to the machine size (a few archive jobs over-
  /// request). Default true.
  bool clamp_width = true;
};

struct ParseResult {
  Trace trace;
  /// Raw header directives, e.g. header["MaxProcs"] == "128".
  std::map<std::string, std::string> header;
  std::size_t skipped_jobs = 0;
};

/// Parse from a stream. `name` labels the resulting trace. The machine
/// size comes from the MaxProcs header (falling back to MaxNodes, then to
/// the widest job). Throws std::runtime_error on malformed job lines and
/// on a machine-size header that is not a whole positive integer.
ParseResult parse_swf(std::istream& in, const std::string& name,
                      const ParseOptions& options = {});

/// Parse from a file path; throws std::runtime_error if unreadable.
ParseResult parse_swf_file(const std::string& path, const ParseOptions& options = {});

}  // namespace rlbf::swf
