#include "exp/sink.h"

#include <charconv>
#include <locale>
#include <sstream>

#include "obs/json.h"

namespace rlbf::exp {

SummaryRow summarize(const ScenarioRun& run) {
  SummaryRow row;
  row.scenario = run.scenario;
  row.label = run.label;
  row.seed = run.seed;
  row.jobs = run.jobs;
  row.bsld = run.metrics.avg_bounded_slowdown;
  row.avg_wait = run.metrics.avg_wait_time;
  row.utilization = run.metrics.utilization;
  row.backfilled = static_cast<double>(run.metrics.backfilled_jobs);
  row.killed = static_cast<double>(run.metrics.killed_jobs);
  return row;
}

SummaryRow summarize(const ScenarioSpec& spec, const core::EvalResult& result,
                     std::uint64_t seed) {
  SummaryRow row;
  row.scenario = spec.name;
  row.label = spec.label();
  row.seed = seed;
  row.jobs = spec.trace_jobs;  // trace length, as in full-run rows
  row.bsld = result.mean;
  row.ci_lo = result.ci_lo;
  row.ci_hi = result.ci_hi;
  return row;
}

// The fixed-format helpers go through std::to_chars, which is
// locale-independent and specified to match printf "%.*g"/"%.*f" in the
// C locale byte for byte — so a shard running in an embedding process
// with LC_NUMERIC=de_DE still writes "3.14", never "3,14", and goldens
// stay portable across hosts.
std::string format_metric(double value) {
  if (std::isnan(value)) return "";
  char buf[64];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::general, 6);
  return std::string(buf, res.ptr);
}

std::string format_count(double value) {
  if (std::isnan(value)) return "";
  char buf[512];  // fixed-notation %.0f of a large double needs room
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), value, std::chars_format::fixed, 0);
  if (res.ec != std::errc()) return "";  // cannot happen for finite counts
  return std::string(buf, res.ptr);
}

namespace {

std::string json_number(double value) {
  // NaN means "not measured"; infinities (a degenerate run dividing by
  // zero) have no JSON literal either — "inf" would poison the file.
  return std::isfinite(value) ? format_metric(value) : "null";
}

std::string json_count(double value) {
  return std::isfinite(value) ? format_count(value) : "null";
}

std::vector<std::string> render(const std::vector<SummaryRow>& rows,
                                std::string (*row_text)(const SummaryRow&)) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const SummaryRow& row : rows) out.push_back(row_text(row));
  return out;
}

}  // namespace

std::string summary_csv_header() {
  return "scenario,label,seed,jobs,bsld,avg_wait,utilization,backfilled,"
         "killed,ci_lo,ci_hi";
}

std::string summary_csv_row(const SummaryRow& row) {
  std::ostringstream os;
  // The classic locale pins integer insertion too: an embedding process
  // calling std::locale::global(de_DE) must not turn seed=100000 into
  // the phantom-column-producing "100.000".
  os.imbue(std::locale::classic());
  os << obs::csv_field(row.scenario) << ',' << obs::csv_field(row.label) << ','
     << row.seed << ',' << row.jobs << ',' << format_metric(row.bsld) << ','
     << format_metric(row.avg_wait) << ',' << format_metric(row.utilization)
     << ',' << format_count(row.backfilled) << ',' << format_count(row.killed)
     << ',' << format_metric(row.ci_lo) << ',' << format_metric(row.ci_hi);
  return os.str();
}

std::string summary_json_row(const SummaryRow& row) {
  std::ostringstream os;
  obs::json::Writer json(os);
  json.object()
      .key("scenario").value(row.scenario)
      .key("label").value(row.label)
      .key("seed").value(row.seed)
      .key("jobs").value(row.jobs)
      .key("bsld").raw(json_number(row.bsld))
      .key("avg_wait").raw(json_number(row.avg_wait))
      .key("utilization").raw(json_number(row.utilization))
      .key("backfilled").raw(json_count(row.backfilled))
      .key("killed").raw(json_count(row.killed));
  if (!std::isnan(row.ci_lo)) {
    json.key("ci_lo").raw(json_number(row.ci_lo))
        .key("ci_hi").raw(json_number(row.ci_hi));
  }
  json.end();
  return os.str();
}

void write_rendered_summary_csv(std::ostream& os,
                                const std::vector<std::string>& csv_rows) {
  os << summary_csv_header() << '\n';
  for (const std::string& row : csv_rows) os << row << '\n';
}

void write_rendered_summary_json(std::ostream& os,
                                 const std::vector<std::string>& json_rows) {
  obs::json::Writer json(os);
  json.array(true);
  for (const std::string& row : json_rows) json.raw(row);
  json.end();
  os << '\n';
}

void write_summary_csv(std::ostream& os, const std::vector<SummaryRow>& rows) {
  write_rendered_summary_csv(os, render(rows, summary_csv_row));
}

void write_summary_json(std::ostream& os, const std::vector<SummaryRow>& rows) {
  write_rendered_summary_json(os, render(rows, summary_json_row));
}

void write_per_job_csv(std::ostream& os, const ScenarioRun& run) {
  // Integers stream through os directly, so pin the caller's stream to
  // the classic locale for the duration (std::locale::global grouping
  // would otherwise corrupt job indices and times).
  const std::locale prev = os.imbue(std::locale::classic());
  os << "job_index,submit,start,end,procs,wait,run,bsld,backfilled,killed\n";
  for (const sim::JobResult& r : run.results) {
    os << r.job_index << ',' << r.submit_time << ',' << r.start_time << ','
       << r.end_time << ',' << r.procs << ',' << r.wait_time() << ','
       << r.run_time() << ',' << format_metric(r.bounded_slowdown()) << ','
       << (r.backfilled ? 1 : 0) << ',' << (r.killed ? 1 : 0) << '\n';
  }
  os.imbue(prev);
}

std::string sanitize_filename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    out += keep ? c : '_';
  }
  return out;
}

std::string per_job_filename(const std::string& scenario, std::uint64_t seed) {
  return "jobs-" + sanitize_filename(scenario) + "-s" + std::to_string(seed) +
         ".csv";
}

}  // namespace rlbf::exp
