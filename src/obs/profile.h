// Hot-path attribution from a trace: which span NAMES does the fleet
// actually spend its time in?
//
// profile_report() consumes trace events (a single process's trace or
// an obs::merge spliced fleet trace — the input is just events) and
// produces one row per span name with:
//
//   * count          — number of spans
//   * total (incl.)  — wall time inside the span, children included
//   * self  (excl.)  — wall time inside the span MINUS time spent in
//                      spans nested within it on the same thread
//   * mean, p50/p95/p99 of the inclusive duration (percentiles come
//     from the same fixed-bucket histogram machinery the metrics
//     registry uses, so they are deterministic for identical input)
//
// Nesting is recovered per (pid, tid) with a stack sweep: events are
// sorted by start time (ties: longer span first, so a parent precedes
// the children that start at the same microsecond), and each event
// subtracts its duration from the nearest enclosing span. Partially
// overlapping spans (possible across the merge's clock alignment)
// only subtract the overlapping part — self time never goes negative.
//
// The report is deterministic: identical input events produce a
// byte-identical table, regardless of input order.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "obs/merge.h"

namespace rlbf::obs {

struct ProfileRow {
  std::string name;
  std::uint64_t count = 0;
  double total_seconds = 0.0;  // inclusive
  double self_seconds = 0.0;   // exclusive
  double mean_seconds = 0.0;   // inclusive mean
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
};

/// Rows sorted by self time descending (ties: total descending, then
/// name ascending — fully deterministic). Zero-duration marks count
/// toward `count` but contribute no time.
std::vector<ProfileRow> profile_report(const std::vector<PidTraceEvent>& events);

/// Column-aligned text table (fixed 6-decimal seconds — byte-stable
/// for identical rows). `top` limits the row count (0 = all); a
/// truncation note names how many rows were dropped, so a shortened
/// table can never read as the whole profile.
void write_profile_table(std::ostream& os, const std::vector<ProfileRow>& rows,
                         std::size_t top = 0);

/// Machine-readable CSV of every row (never truncated).
void write_profile_csv(std::ostream& os, const std::vector<ProfileRow>& rows);

/// One worker's (pid's) slice of a fleet profile.
struct WorkerProfile {
  std::uint32_t pid = 0;
  /// The pid's process_name from the spliced trace ("supervisor",
  /// "worker0"), or "pid<N>" when the trace carries no name for it.
  std::string name;
  std::vector<ProfileRow> rows;  // profile_report order
};

/// Per-worker attribution on a merged fleet trace: the event set split
/// by pid, each slice profiled independently (nesting already never
/// crosses pids), ordered by pid ascending — so self time is charged to
/// the worker that actually spent it instead of pooling under one span
/// name. `process_names` normally comes from TraceDoc::process_names.
std::vector<WorkerProfile> profile_report_by_worker(
    const std::vector<PidTraceEvent>& events,
    const std::map<std::uint32_t, std::string>& process_names);

/// One table section per worker ("== worker0 (pid 2) =="), each
/// rendered by write_profile_table with the same `top` cap.
void write_worker_profile_table(std::ostream& os,
                                const std::vector<WorkerProfile>& workers,
                                std::size_t top = 0);

/// CSV of every worker's rows with leading pid/worker columns.
void write_worker_profile_csv(std::ostream& os,
                              const std::vector<WorkerProfile>& workers);

}  // namespace rlbf::obs
