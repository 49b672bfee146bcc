// Fleet-wide aggregation of per-worker observability sinks.
//
// A distributed run (rlbf_run orchestrate / train --workers) produces
// one metrics dump and one trace per worker process, plus the
// supervisor's own. This module rolls those sidecars into single
// documents:
//
//   * merge_metrics — counters summed across workers, gauges
//     last-write-wins (tagged with the source that wrote them),
//     histograms bucket-merged (same layout required; a layout
//     mismatch throws, it is never silently folded).
//   * splice_traces — every worker's spans on one Chrome trace
//     timeline: each source document gets a fresh pid (plus a
//     process_name metadata event), and timestamps are shifted onto a
//     common timebase using each trace's wall-clock epoch anchor
//     (obs::trace_epoch_anchor_us), so worker spans line up with
//     supervisor spans the way they actually interleaved.
//
// Loading is strict but never crashy: a missing, empty, or malformed
// sidecar raises std::runtime_error naming the file — the supervisor
// reports which worker's sidecar is bad instead of dumping core or
// writing a silently wrong merge.
//
// Like the rest of obs, this depends on the standard library only.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace rlbf::obs {

// ------------------------------------------------------------- metrics

/// One parsed metrics dump (the Registry::write_json format).
struct MetricsDoc {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};

/// Parse a registry dump. `origin` names the document in errors.
MetricsDoc parse_metrics_json(const std::string& text,
                              const std::string& origin);

/// Read + parse a sidecar file. Missing, unreadable, or empty files
/// raise std::runtime_error naming the path.
MetricsDoc load_metrics_file(const std::string& path);

/// A worker's metrics tagged with its label ("worker0", "supervisor").
struct LabeledMetrics {
  std::string label;
  MetricsDoc doc;
};

/// The merged report. Counters are exact sums; gauges keep the LAST
/// source's value (docs are merged in input order, so put the
/// supervisor last when its view should win) tagged with that source;
/// histograms are bucket-merged.
struct MergedMetrics {
  struct TaggedGauge {
    double value = 0.0;
    std::string source;
  };
  std::vector<std::string> sources;  // input order
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, TaggedGauge> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};

/// Merge in input order. Throws std::invalid_argument on an empty
/// input, a duplicate label, or a histogram layout mismatch (the error
/// names the metric and the sources involved).
MergedMetrics merge_metrics(const std::vector<LabeledMetrics>& docs);

/// Deterministic JSON rendering of the merged report: {"sources":
/// [...], "counters": {...}, "gauges": {"name": {"value": ..,
/// "source": ".."}}, "histograms": {"name": <histogram JSON>}}, keys
/// sorted, numbers shortest-round-trip.
void write_merged_metrics_json(std::ostream& os, const MergedMetrics& merged);

// --------------------------------------------------------------- trace

/// A trace event plus the pid it carried in its source document.
struct PidTraceEvent {
  TraceEvent event;
  std::uint32_t pid = 1;
};

/// One parsed Chrome trace document. epoch_anchor_us is 0 when the
/// document predates the anchor field or tracing was never enabled in
/// the producing process (such a trace splices unshifted).
/// process_names carries the "process_name" metadata rows of an earlier
/// splice (pid -> worker label, e.g. 1 -> "supervisor"), so a merged
/// fleet trace keeps its worker attribution when re-read
/// (`rlbf_run profile --by_worker`); empty for a single-process trace.
struct TraceDoc {
  std::vector<PidTraceEvent> events;
  std::int64_t epoch_anchor_us = 0;
  std::map<std::uint32_t, std::string> process_names;
};

TraceDoc parse_trace_json(const std::string& text, const std::string& origin);
TraceDoc load_trace_file(const std::string& path);

struct LabeledTrace {
  std::string label;
  TraceDoc doc;
};

/// All sources on one timeline. Every (source document, source pid)
/// pair maps to a fresh output pid — sequential from 1 in input order
/// — so colliding pids from independent processes can never shadow
/// each other. Timestamps are shifted by (doc anchor - earliest
/// anchor); documents without an anchor are left unshifted.
struct SplicedTrace {
  struct Process {
    std::uint32_t pid = 0;
    std::string name;  // "<label>" or "<label>/pid<src>" on collision
  };
  std::vector<Process> processes;
  std::vector<PidTraceEvent> events;   // input order, pids remapped
  std::int64_t epoch_anchor_us = 0;    // earliest source anchor (0 if none)
};

/// Throws std::invalid_argument on an empty input or duplicate label.
SplicedTrace splice_traces(const std::vector<LabeledTrace>& docs);

/// Chrome trace_event JSON: process_name metadata events first, then
/// every span, then the merged epochAnchorUs.
void write_spliced_trace_json(std::ostream& os, const SplicedTrace& spliced);

}  // namespace rlbf::obs
