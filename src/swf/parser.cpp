#include "swf/parser.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace rlbf::swf {

namespace {

/// Header comment: "; Key: value" (archive style) or "; Key = value".
void parse_header_line(const std::string& line, std::map<std::string, std::string>& header) {
  std::size_t pos = 1;  // skip ';'
  while (pos < line.size() && std::isspace(static_cast<unsigned char>(line[pos]))) ++pos;
  const std::size_t sep = line.find_first_of(":=", pos);
  if (sep == std::string::npos) return;
  std::string key = line.substr(pos, sep - pos);
  std::string value = line.substr(sep + 1);
  auto trim = [](std::string& s) {
    const auto b = s.find_first_not_of(" \t\r");
    const auto e = s.find_last_not_of(" \t\r");
    s = (b == std::string::npos) ? std::string{} : s.substr(b, e - b + 1);
  };
  trim(key);
  trim(value);
  if (!key.empty()) header.emplace(key, value);
}

/// A MaxProcs/MaxNodes header value: the whole token must be a positive
/// integer. A numeric prefix ("12x8") would otherwise size the machine
/// from garbage, and clamp_width would then silently cut wider jobs.
std::int64_t parse_machine_size(const char* key, const std::string& value,
                                const std::string& name) {
  std::int64_t size = 0;
  const char* end = value.data() + value.size();
  const auto [ptr, ec] = std::from_chars(value.data(), end, size);
  if (ec != std::errc() || ptr != end || size <= 0) {
    throw std::runtime_error("swf parse error: bad " + std::string(key) +
                             " header value '" + value + "' in " + name);
  }
  return size;
}

}  // namespace

ParseResult parse_swf(std::istream& in, const std::string& name, const ParseOptions& options) {
  ParseResult result;
  std::vector<Job> jobs;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    // Strip DOS line endings.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos) continue;  // blank
    if (line[first] == ';') {
      parse_header_line(line.substr(first), result.header);
      continue;
    }
    std::istringstream fields(line);
    Job j;
    // SWF: all 18 fields numeric; avg_cpu_time may be fractional. Only
    // whitespace may follow the 18th: anything else is two jobs merged
    // by a lost newline, or a field with trailing junk ("10abc").
    std::string extra;
    if (!(fields >> j.id >> j.submit_time >> j.wait_time >> j.run_time >>
          j.used_procs >> j.avg_cpu_time >> j.used_memory >> j.requested_procs >>
          j.requested_time >> j.requested_memory >> j.status >> j.user_id >>
          j.group_id >> j.executable >> j.queue >> j.partition >>
          j.preceding_job >> j.think_time) ||
        fields >> extra) {
      std::ostringstream err;
      err << "swf parse error at line " << lineno << " of " << name
          << ": expected 18 fields";
      throw std::runtime_error(err.str());
    }
    if (!j.valid()) {
      if (options.skip_invalid_jobs) {
        ++result.skipped_jobs;
        continue;
      }
      std::ostringstream err;
      err << "invalid job at line " << lineno << " of " << name;
      throw std::runtime_error(err.str());
    }
    jobs.push_back(j);
  }

  std::int64_t machine_procs = 0;
  for (const char* key : {"MaxProcs", "MaxNodes"}) {
    auto it = result.header.find(key);
    if (it != result.header.end()) {
      machine_procs = parse_machine_size(key, it->second, name);
      break;
    }
  }
  if (machine_procs <= 0) {
    for (const auto& j : jobs) machine_procs = std::max(machine_procs, j.procs());
  }
  if (options.clamp_width) {
    for (auto& j : jobs) {
      if (j.requested_procs > machine_procs) j.requested_procs = machine_procs;
      if (j.used_procs > machine_procs) j.used_procs = machine_procs;
    }
  }

  result.trace = Trace(name, machine_procs, std::move(jobs));
  if (options.normalize) result.trace.normalize();
  return result;
}

ParseResult parse_swf_file(const std::string& path, const ParseOptions& options) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open swf file: " + path);
  // Trace name = file basename without extension.
  std::string name = path;
  if (const auto slash = name.find_last_of('/'); slash != std::string::npos) {
    name = name.substr(slash + 1);
  }
  if (const auto dot = name.find_last_of('.'); dot != std::string::npos) {
    name = name.substr(0, dot);
  }
  return parse_swf(in, name, options);
}

}  // namespace rlbf::swf
