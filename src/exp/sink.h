// Structured result sinks for the experiment engine.
//
// Two artifact shapes cover every study in the repo:
//   * a summary table — one row per scenario instance (or per evaluated
//     protocol) with the headline metrics the paper reports;
//   * a per-job table — one row per JobResult of a single run, for
//     distribution-level analysis.
// Both render to CSV and the summary also to JSON. All numeric
// formatting goes through one fixed-format helper, so output is
// byte-identical across runs and thread counts for equal inputs — the
// determinism tests diff these bytes directly.
#pragma once

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "exp/scenario.h"

namespace rlbf::exp {

/// One summary line: a scenario run or a protocol evaluation.
struct SummaryRow {
  std::string scenario;  // instance name
  std::string label;     // human-readable configuration
  std::uint64_t seed = 0;
  std::size_t jobs = 0;
  double bsld = 0.0;  // mean bounded slowdown (the headline metric)
  /// NaN marks "not measured in this mode" and renders empty: full-trace
  /// runs fill the four run metrics, protocol evaluations fill the CI.
  double avg_wait = std::nan("");     // seconds
  double utilization = std::nan("");
  double backfilled = std::nan("");   // whole counts, stored exactly
  double killed = std::nan("");
  double ci_lo = std::nan("");        // 95% bootstrap CI
  double ci_hi = std::nan("");
};

/// Collapse a scenario run into its summary line.
SummaryRow summarize(const ScenarioRun& run);

/// Summary line for a sampled-protocol evaluation of `spec`.
SummaryRow summarize(const ScenarioSpec& spec, const core::EvalResult& result,
                     std::uint64_t seed);

/// Fixed-format numeric rendering used by every sink ("%.6g"; empty
/// string for NaN). Deterministic for equal doubles and pinned to the C
/// locale (std::to_chars), so LC_NUMERIC on the host cannot change it.
std::string format_metric(double value);

/// Whole-count rendering ("%.0f"; empty string for NaN). C locale.
std::string format_count(double value);

/// One canonical rendering per summary row, shared by the plain writers
/// below and the shard summary (exp/shard.h), so merged shard output is
/// byte-identical to an unsharded run by construction. The JSON row is
/// one compact object, {"scenario": …, "ci_hi": …}, laid out by
/// obs::json::Writer.
std::string summary_csv_header();
std::string summary_csv_row(const SummaryRow& row);
std::string summary_json_row(const SummaryRow& row);

/// The summary files: the CSV header plus one line per row, and a
/// line-layout JSON array of the row objects.
void write_summary_csv(std::ostream& os, const std::vector<SummaryRow>& rows);
void write_summary_json(std::ostream& os, const std::vector<SummaryRow>& rows);

/// The same files from rows already rendered by summary_csv_row /
/// summary_json_row — the form a shard merge holds them in.
void write_rendered_summary_csv(std::ostream& os,
                                const std::vector<std::string>& csv_rows);
void write_rendered_summary_json(std::ostream& os,
                                 const std::vector<std::string>& json_rows);

void write_per_job_csv(std::ostream& os, const ScenarioRun& run);

/// Turn an instance name ("sdsc-easy/load=0.5,policy=SJF") into a safe
/// file stem: [A-Za-z0-9._-] kept, everything else mapped to '_'.
std::string sanitize_filename(const std::string& name);

/// The canonical per-job CSV filename for one (scenario instance, seed)
/// run — shared by the CLI writer and the shard merge so merged
/// directories validate against exactly what a run would have written.
std::string per_job_filename(const std::string& scenario, std::uint64_t seed);

}  // namespace rlbf::exp
