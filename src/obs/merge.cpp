#include "obs/merge.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <set>
#include <stdexcept>
#include <utility>

#include "obs/json.h"

namespace rlbf::obs {

namespace {

/// Locale-independent double parse for the "le" bound strings the
/// histogram dump emits ("1e999" overflow maps back to inf).
double parse_bound(const std::string& text, const std::string& origin) {
  double value = 0.0;
  const auto res =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (res.ec == std::errc::result_out_of_range) {
    return text[0] == '-' ? -std::numeric_limits<double>::infinity()
                          : std::numeric_limits<double>::infinity();
  }
  if (res.ec != std::errc() || res.ptr != text.data() + text.size()) {
    throw std::runtime_error(origin + ": malformed bucket bound '" + text +
                             "'");
  }
  return value;
}

std::uint64_t as_count(const json::Value& v, const std::string& origin,
                       const std::string& what) {
  if (!v.is_number() || v.number < 0) {
    throw std::runtime_error(origin + ": " + what +
                             " is not a non-negative number");
  }
  return static_cast<std::uint64_t>(v.number);
}

Histogram::Snapshot parse_histogram(const json::Value& v,
                                    const std::string& origin,
                                    const std::string& name) {
  if (!v.is_object()) {
    throw std::runtime_error(origin + ": histogram '" + name +
                             "' is not an object");
  }
  Histogram::Snapshot snap;
  snap.count = as_count(v.at("count"), origin, "histogram '" + name + "' count");
  snap.sum = v.number_at("sum");
  snap.min = v.number_at("min");
  snap.max = v.number_at("max");
  const json::Value& buckets = v.at("buckets");
  if (!buckets.is_array() || buckets.items.empty()) {
    throw std::runtime_error(origin + ": histogram '" + name +
                             "' has no buckets");
  }
  for (std::size_t i = 0; i < buckets.items.size(); ++i) {
    const json::Value& bucket = buckets.items[i];
    const std::string& le = bucket.string_at("le");
    const bool terminal = i + 1 == buckets.items.size();
    if (le == "inf") {
      if (!terminal) {
        throw std::runtime_error(origin + ": histogram '" + name +
                                 "' has a non-terminal inf bucket");
      }
    } else {
      if (terminal) {
        throw std::runtime_error(origin + ": histogram '" + name +
                                 "' is missing the terminal inf bucket");
      }
      snap.upper_bounds.push_back(parse_bound(le, origin));
    }
    snap.bucket_counts.push_back(
        as_count(bucket.at("count"), origin, "histogram '" + name + "' bucket"));
  }
  return snap;
}

}  // namespace

// ------------------------------------------------------------- metrics

MetricsDoc parse_metrics_json(const std::string& text,
                              const std::string& origin) {
  const json::Value root = json::parse(text, origin);
  if (!root.is_object()) {
    throw std::runtime_error(origin + ": metrics document is not an object");
  }
  MetricsDoc doc;
  if (const json::Value* counters = root.find("counters")) {
    for (const auto& [name, value] : counters->members) {
      doc.counters[name] = as_count(value, origin, "counter '" + name + "'");
    }
  }
  if (const json::Value* gauges = root.find("gauges")) {
    for (const auto& [name, value] : gauges->members) {
      if (!value.is_number()) {
        throw std::runtime_error(origin + ": gauge '" + name +
                                 "' is not a number");
      }
      doc.gauges[name] = value.number;
    }
  }
  if (const json::Value* histograms = root.find("histograms")) {
    for (const auto& [name, value] : histograms->members) {
      doc.histograms[name] = parse_histogram(value, origin, name);
    }
  }
  return doc;
}

MetricsDoc load_metrics_file(const std::string& path) {
  return parse_metrics_json(read_file(path, "sidecar file"), path);
}

MergedMetrics merge_metrics(const std::vector<LabeledMetrics>& docs) {
  if (docs.empty()) {
    throw std::invalid_argument("merge_metrics: no documents to merge");
  }
  MergedMetrics merged;
  std::set<std::string> seen;
  for (const LabeledMetrics& labeled : docs) {
    if (!seen.insert(labeled.label).second) {
      throw std::invalid_argument("merge_metrics: duplicate source label '" +
                                  labeled.label + "'");
    }
    merged.sources.push_back(labeled.label);
    for (const auto& [name, value] : labeled.doc.counters) {
      merged.counters[name] += value;
    }
    // Last write wins: docs are merged in input order, so whichever
    // source comes later owns the gauge — and the tag records it.
    for (const auto& [name, value] : labeled.doc.gauges) {
      merged.gauges[name] = MergedMetrics::TaggedGauge{value, labeled.label};
    }
    for (const auto& [name, snap] : labeled.doc.histograms) {
      const auto it = merged.histograms.find(name);
      if (it == merged.histograms.end()) {
        merged.histograms.emplace(name, snap);
        continue;
      }
      try {
        it->second = merge_histogram(it->second, snap);
      } catch (const std::invalid_argument& e) {
        throw std::invalid_argument("merge_metrics: histogram '" + name +
                                    "' from source '" + labeled.label +
                                    "': " + e.what());
      }
    }
  }
  return merged;
}

void write_merged_metrics_json(std::ostream& os, const MergedMetrics& merged) {
  json::Writer w(os);
  w.object(true).key("sources").array();
  for (const std::string& source : merged.sources) w.value(source);
  w.end().key("counters").object(true);
  for (const auto& [name, value] : merged.counters) w.key(name).value(value);
  w.end().key("gauges").object(true);
  for (const auto& [name, gauge] : merged.gauges) {
    w.key(name).object().key("value").value(gauge.value);
    w.key("source").value(gauge.source).end();
  }
  w.end().key("histograms").object(true);
  for (const auto& [name, snap] : merged.histograms) {
    write_histogram_json(w.key(name), snap);
  }
  w.end().end();
  os << '\n';
}

// --------------------------------------------------------------- trace

TraceDoc parse_trace_json(const std::string& text, const std::string& origin) {
  const json::Value root = json::parse(text, origin);
  if (!root.is_object()) {
    throw std::runtime_error(origin + ": trace document is not an object");
  }
  TraceDoc doc;
  if (const json::Value* anchor = root.find("epochAnchorUs")) {
    if (!anchor->is_number()) {
      throw std::runtime_error(origin + ": epochAnchorUs is not a number");
    }
    doc.epoch_anchor_us = static_cast<std::int64_t>(anchor->number);
  }
  const json::Value& events = root.at("traceEvents");
  if (!events.is_array()) {
    throw std::runtime_error(origin + ": traceEvents is not an array");
  }
  for (const json::Value& ev : events.items) {
    if (!ev.is_object()) {
      throw std::runtime_error(origin + ": trace event is not an object");
    }
    // Metadata events (ph "M") carry no timing and never splice as
    // spans — but a process_name row from an earlier splice is the
    // pid's worker attribution, which `profile --by_worker` needs, so
    // it is kept as a pid -> name entry instead of a timed event.
    if (const json::Value* ph = ev.find("ph")) {
      if (ph->is_string() && ph->text == "M") {
        const json::Value* name = ev.find("name");
        const json::Value* pid = ev.find("pid");
        if (name != nullptr && name->is_string() &&
            name->text == "process_name" && pid != nullptr &&
            pid->is_number() && pid->number >= 0) {
          if (const json::Value* args = ev.find("args")) {
            if (const json::Value* label = args->find("name")) {
              if (label->is_string()) {
                doc.process_names[static_cast<std::uint32_t>(pid->number)] =
                    label->text;
              }
            }
          }
        }
        continue;
      }
    }
    PidTraceEvent out;
    out.event.name = ev.string_at("name");
    if (const json::Value* cat = ev.find("cat")) {
      if (cat->is_string()) out.event.category = cat->text;
    }
    out.event.ts_us = static_cast<std::int64_t>(ev.number_at("ts"));
    if (const json::Value* dur = ev.find("dur")) {
      if (dur->is_number()) {
        out.event.dur_us = static_cast<std::int64_t>(dur->number);
      }
    }
    if (const json::Value* tid = ev.find("tid")) {
      if (tid->is_number() && tid->number >= 0) {
        out.event.tid = static_cast<std::uint32_t>(tid->number);
      }
    }
    if (const json::Value* pid = ev.find("pid")) {
      if (pid->is_number() && pid->number >= 0) {
        out.pid = static_cast<std::uint32_t>(pid->number);
      }
    }
    doc.events.push_back(std::move(out));
  }
  return doc;
}

TraceDoc load_trace_file(const std::string& path) {
  return parse_trace_json(read_file(path, "sidecar file"), path);
}

SplicedTrace splice_traces(const std::vector<LabeledTrace>& docs) {
  if (docs.empty()) {
    throw std::invalid_argument("splice_traces: no documents to splice");
  }
  {
    std::set<std::string> seen;
    for (const LabeledTrace& labeled : docs) {
      if (!seen.insert(labeled.label).second) {
        throw std::invalid_argument(
            "splice_traces: duplicate source label '" + labeled.label + "'");
      }
    }
  }
  // The earliest anchored document defines t=0 of the merged timeline;
  // every anchored source shifts by (its anchor - earliest). A source
  // without an anchor has no cross-process timebase to place it on —
  // its spans stay where they were.
  std::int64_t base_anchor = 0;
  bool have_anchor = false;
  for (const LabeledTrace& labeled : docs) {
    if (labeled.doc.epoch_anchor_us == 0) continue;
    if (!have_anchor || labeled.doc.epoch_anchor_us < base_anchor) {
      base_anchor = labeled.doc.epoch_anchor_us;
    }
    have_anchor = true;
  }
  SplicedTrace spliced;
  spliced.epoch_anchor_us = have_anchor ? base_anchor : 0;
  std::uint32_t next_pid = 1;
  for (const LabeledTrace& labeled : docs) {
    const std::int64_t shift = labeled.doc.epoch_anchor_us == 0
                                   ? 0
                                   : labeled.doc.epoch_anchor_us - base_anchor;
    // Every distinct source pid gets its own fresh output pid, so two
    // workers both reporting pid 1 never collapse into one process row.
    std::map<std::uint32_t, std::uint32_t> pid_map;
    for (const PidTraceEvent& ev : labeled.doc.events) {
      const auto it = pid_map.find(ev.pid);
      std::uint32_t out_pid;
      if (it != pid_map.end()) {
        out_pid = it->second;
      } else {
        out_pid = next_pid++;
        pid_map.emplace(ev.pid, out_pid);
      }
      PidTraceEvent out = ev;
      out.pid = out_pid;
      out.event.ts_us += shift;
      spliced.events.push_back(std::move(out));
    }
    if (pid_map.empty()) {
      // A source with no events still gets a process row: an empty
      // worker trace should be visible in the merged view, not vanish.
      pid_map.emplace(1, next_pid++);
    }
    for (const auto& [src_pid, out_pid] : pid_map) {
      SplicedTrace::Process proc;
      proc.pid = out_pid;
      proc.name = pid_map.size() == 1
                      ? labeled.label
                      : labeled.label + "/pid" + std::to_string(src_pid);
      spliced.processes.push_back(std::move(proc));
    }
  }
  std::sort(spliced.processes.begin(), spliced.processes.end(),
            [](const SplicedTrace::Process& a, const SplicedTrace::Process& b) {
              return a.pid < b.pid;
            });
  return spliced;
}

void write_spliced_trace_json(std::ostream& os, const SplicedTrace& spliced) {
  json::Writer w(os);
  w.object().key("traceEvents").array(true);
  for (const SplicedTrace::Process& proc : spliced.processes) {
    w.object().key("name").value("process_name").key("ph").value("M");
    w.key("pid").value(proc.pid);
    w.key("args").object().key("name").value(proc.name).end().end();
  }
  for (const PidTraceEvent& ev : spliced.events) {
    w.object().key("name").value(ev.event.name);
    w.key("cat").value(ev.event.category).key("ph").value("X");
    w.key("ts").value(ev.event.ts_us).key("dur").value(ev.event.dur_us);
    w.key("pid").value(ev.pid).key("tid").value(ev.event.tid).end();
  }
  // epochAnchorUs: the wall-clock instant ts=0 corresponds to. Chrome
  // and Perfetto ignore unknown top-level keys; obs::merge uses it to
  // align traces from different processes onto one timeline.
  w.end().key("epochAnchorUs").value(spliced.epoch_anchor_us).end();
  os << '\n';
}

}  // namespace rlbf::obs
