// Scalar time series for the observability layer: training curves,
// periodic registry samples, and per-job duration series, recorded
// against INTEGER STEP KEYS (epoch, decision, sample ordinal) with the
// wall clock carried only as an auxiliary field. Keying on steps — not
// timestamps — is what makes the data comparable across reruns, thread
// counts, and hosts: two bit-identical training runs produce the same
// (step, value) pairs no matter how long each epoch took.
//
// Design contract (the --series_out on/off byte-identity tests depend
// on it, exactly like obs/metrics.h):
//
//   * A SeriesRecorder only ever writes to its own buffers and the file
//     the CLI flag names — never to result streams — so enabling series
//     output cannot perturb a single byte of simulation, sweep,
//     training, or store output.
//   * Producers that may run without a recorder attached hold a plain
//     nullable pointer and skip recording entirely when it is null: the
//     disabled path performs no allocation and no clock read.
//   * Every rendering that feeds comparisons (`rlbf_run curves`)
//     excludes the wall-clock field, so series from deterministic
//     computations render byte-identically across reruns.
//
// The on-disk format is JSONL: one self-contained JSON object per line,
// so a writer can append samples as they happen and a partially written
// sidecar fails at the exact offending line. The first line is a meta
// header carrying the recorder's wall-clock epoch anchor:
//
//   {"meta": "series", "version": 1, "epoch_anchor_us": 1700000000000000}
//   {"series": "train.policy_loss", "step": 1, "value": 0.25, "wall_us": ...}
//   {"series": "dist.job_seconds", "step": 0, "value": 1.5, "wall_us": ...,
//    "source": "worker0"}
//
// The wall stamp uses the same steady/wall anchor pattern as
// obs::trace_epoch_anchor_us(): one (steady_clock, system_clock) pair
// latched together at recorder construction, every sample stamped as
// anchor + steady elapsed — monotonic within a process and placeable on
// a cross-process timebase.
//
// Like the rest of obs, this depends on the standard library only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace rlbf::obs {

/// One sample. `step` is the key (epoch, decision, or sample ordinal);
/// `wall_us` is auxiliary display data and never participates in
/// alignment, merging, or comparison.
struct SeriesPoint {
  std::int64_t step = 0;
  double value = 0.0;
  std::int64_t wall_us = 0;
};

/// A named series. `source` is empty until a fleet merge tags it with
/// the producing worker's label ("worker0", "supervisor").
struct Series {
  std::string name;
  std::string source;
  std::vector<SeriesPoint> points;  // record order
};

/// Thread-safe in-memory recorder. Construction latches the steady/wall
/// anchor pair; record() stamps each point's wall_us from it.
class SeriesRecorder {
 public:
  SeriesRecorder();

  /// Append (step, value) to the named series, stamping wall_us now.
  void record(const std::string& name, std::int64_t step, double value);

  /// All series sorted by name, points in record order.
  std::vector<Series> snapshot() const;

  bool empty() const;

  /// The wall-clock instant the steady anchor was latched at — the
  /// series-file analogue of trace_epoch_anchor_us().
  std::int64_t epoch_anchor_us() const { return epoch_anchor_us_; }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<SeriesPoint>> series_;
  std::chrono::steady_clock::time_point steady_anchor_;
  std::int64_t epoch_anchor_us_ = 0;
};

// ------------------------------------------------------------- file IO

/// Write the JSONL document: the meta header line, then every series in
/// input order, points in order. Numbers use the shared shortest-round-
/// trip rendering (obs::format_number), so identical data writes
/// identical bytes.
void write_series_jsonl(std::ostream& os, const std::vector<Series>& series,
                        std::int64_t epoch_anchor_us);

/// A parsed series document: the series plus the meta header's anchor
/// (0 when the producing recorder predates anchoring).
struct SeriesDoc {
  std::vector<Series> series;  // sorted by (name, source)
  std::int64_t epoch_anchor_us = 0;
};

/// Strict line-by-line parse. Every error is std::runtime_error naming
/// `origin` and the 1-based line number: a truncated final line, a
/// non-object line, a missing/mistyped field, or trailing garbage all
/// fail loudly — a malformed worker sidecar can never fold silently
/// into a merge. Points for one (name, source) are kept in file order.
SeriesDoc parse_series_jsonl(const std::string& text,
                             const std::string& origin);

/// Read + parse. Missing, unreadable, or empty files raise
/// std::runtime_error naming the path (same contract as
/// obs::load_metrics_file).
SeriesDoc load_series_file(const std::string& path);

// --------------------------------------------------------------- merge

/// One worker's series tagged with its label, mirroring
/// obs::LabeledMetrics.
struct LabeledSeries {
  std::string label;
  SeriesDoc doc;
};

/// Merge worker documents into one: a series whose source is empty is
/// tagged with its document's label; a series already carrying a source
/// (a re-merged document) keeps it — which is what makes the merge
/// associative: merge(merge(A, B), C) == merge(A, merge(B, C)). Two
/// inputs contributing the same (name, source) concatenate their points
/// in input order. The merged anchor is the earliest nonzero input
/// anchor. Throws std::invalid_argument on an empty input or a
/// duplicate label.
SeriesDoc merge_series(const std::vector<LabeledSeries>& docs);

// ------------------------------------------------------------- sampler

/// Latches Registry counter/gauge values into series on each tick:
/// counters as per-sample DELTAS (series "registry.<name>"), gauges as
/// instantaneous values. Each sample is keyed by its ordinal (0, 1,
/// ...) — the sample INDEX is the step; the wall clock rides along as
/// wall_us only — so two runs registering the same metrics produce
/// step-aligned series regardless of timing jitter.
///
/// sample_once() is the unit of work and is safe to call from any
/// thread (an orchestrator heartbeat, a test, the final dump); there is
/// no background thread, callers tick it.
class RegistrySampler {
 public:
  explicit RegistrySampler(SeriesRecorder& recorder) : recorder_(recorder) {}

  RegistrySampler(const RegistrySampler&) = delete;
  RegistrySampler& operator=(const RegistrySampler&) = delete;

  /// Record one sample of every registered counter (delta since the
  /// previous sample; the first sample's delta is the absolute value)
  /// and gauge at the next step ordinal. A registry with no registered
  /// metrics records nothing — and does not consume a step — so a run
  /// that never enabled metrics leaves the series file free of
  /// nondeterministic registry data.
  void sample_once();

 private:
  SeriesRecorder& recorder_;
  std::mutex sample_mu_;
  std::map<std::string, std::uint64_t> last_counters_;
  std::int64_t next_step_ = 0;
};

}  // namespace rlbf::obs
