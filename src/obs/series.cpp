#include "obs/series.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"

namespace rlbf::obs {

namespace {

std::string line_origin(const std::string& origin, std::size_t line_no) {
  return origin + ":" + std::to_string(line_no);
}

[[noreturn]] void fail(const std::string& origin, std::size_t line_no,
                       const std::string& what) {
  throw std::runtime_error(line_origin(origin, line_no) + ": " + what);
}

/// A strictly-typed integer member: a JSON number member that must be
/// present. (json::Value stores doubles; series steps stay well inside
/// the exactly-representable range.)
std::int64_t int_member(const json::Value& obj, const std::string& key,
                        const std::string& origin, std::size_t line_no) {
  const json::Value* v = obj.find(key);
  if (v == nullptr || !v->is_number()) {
    fail(origin, line_no, "expected number member \"" + key + "\"");
  }
  return static_cast<std::int64_t>(v->number);
}

}  // namespace

// ----------------------------------------------------------- recorder

SeriesRecorder::SeriesRecorder() {
  // The pair is latched together — same pattern as the trace anchor —
  // so wall stamps are monotonic (steady elapsed) yet placeable on the
  // cross-process wall-clock timebase.
  steady_anchor_ = std::chrono::steady_clock::now();
  epoch_anchor_us_ = std::chrono::duration_cast<std::chrono::microseconds>(
                         std::chrono::system_clock::now().time_since_epoch())
                         .count();
}

void SeriesRecorder::record(const std::string& name, std::int64_t step,
                            double value) {
  const std::int64_t wall_us =
      epoch_anchor_us_ +
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - steady_anchor_)
          .count();
  std::lock_guard<std::mutex> lock(mu_);
  series_[name].push_back({step, value, wall_us});
}

std::vector<Series> SeriesRecorder::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Series> out;
  out.reserve(series_.size());
  for (const auto& [name, points] : series_) {
    Series s;
    s.name = name;
    s.points = points;
    out.push_back(std::move(s));
  }
  return out;
}

bool SeriesRecorder::empty() const {
  std::lock_guard<std::mutex> lock(mu_);
  return series_.empty();
}

// ------------------------------------------------------------- file IO

void write_series_jsonl(std::ostream& os, const std::vector<Series>& series,
                        std::int64_t epoch_anchor_us) {
  json::Writer w(os);
  w.object().key("meta").value("series").key("version").value(1);
  w.key("epoch_anchor_us").value(epoch_anchor_us).end();
  os << '\n';
  for (const Series& s : series) {
    for (const SeriesPoint& p : s.points) {
      w.object().key("series").value(s.name).key("step").value(p.step);
      w.key("value").value(p.value).key("wall_us").value(p.wall_us);
      if (!s.source.empty()) w.key("source").value(s.source);
      w.end();
      os << '\n';
    }
  }
}

SeriesDoc parse_series_jsonl(const std::string& text,
                             const std::string& origin) {
  SeriesDoc doc;
  // (name, source) -> index into doc.series; points stay in file order.
  std::map<std::pair<std::string, std::string>, std::size_t> index;
  std::size_t line_no = 0;
  bool saw_meta = false;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    std::string line = nl == std::string::npos ? text.substr(pos)
                                               : text.substr(pos, nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++line_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.find_first_not_of(" \t") == std::string::npos) continue;

    // json::parse already rejects truncated lines and trailing garbage,
    // naming the (origin:line) and byte offset.
    const json::Value v = json::parse(line, line_origin(origin, line_no));
    if (!v.is_object()) {
      fail(origin, line_no, "expected a JSON object");
    }
    if (!saw_meta) {
      // The header line is mandatory: its absence means the file is not
      // a series document (or lost its first line), and silently
      // parsing it as points would hide that.
      const json::Value* meta = v.find("meta");
      if (meta == nullptr || !meta->is_string() || meta->text != "series") {
        fail(origin, line_no,
             "expected the series meta header "
             "{\"meta\": \"series\", \"version\": 1, ...}");
      }
      if (int_member(v, "version", origin, line_no) != 1) {
        fail(origin, line_no, "unsupported series version");
      }
      doc.epoch_anchor_us = int_member(v, "epoch_anchor_us", origin, line_no);
      saw_meta = true;
      continue;
    }

    const json::Value* name = v.find("series");
    if (name == nullptr || !name->is_string()) {
      fail(origin, line_no, "expected string member \"series\"");
    }
    const json::Value* value = v.find("value");
    if (value == nullptr || !value->is_number()) {
      fail(origin, line_no, "expected number member \"value\"");
    }
    SeriesPoint point;
    point.step = int_member(v, "step", origin, line_no);
    point.value = value->number;
    if (const json::Value* wall = v.find("wall_us")) {
      if (!wall->is_number()) {
        fail(origin, line_no, "expected number member \"wall_us\"");
      }
      point.wall_us = static_cast<std::int64_t>(wall->number);
    }
    std::string source;
    if (const json::Value* src = v.find("source")) {
      if (!src->is_string()) {
        fail(origin, line_no, "expected string member \"source\"");
      }
      source = src->text;
    }

    const auto key = std::make_pair(name->text, source);
    auto it = index.find(key);
    if (it == index.end()) {
      it = index.emplace(key, doc.series.size()).first;
      Series s;
      s.name = name->text;
      s.source = source;
      doc.series.push_back(std::move(s));
    }
    doc.series[it->second].points.push_back(point);
  }
  if (!saw_meta) {
    throw std::runtime_error(origin + ": no series meta header found");
  }
  std::sort(doc.series.begin(), doc.series.end(),
            [](const Series& a, const Series& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.source < b.source;
            });
  return doc;
}

SeriesDoc load_series_file(const std::string& path) {
  return parse_series_jsonl(read_file(path, "series file"), path);
}

// --------------------------------------------------------------- merge

SeriesDoc merge_series(const std::vector<LabeledSeries>& docs) {
  if (docs.empty()) {
    throw std::invalid_argument("merge_series: no documents");
  }
  for (std::size_t i = 0; i < docs.size(); ++i) {
    for (std::size_t j = i + 1; j < docs.size(); ++j) {
      if (docs[i].label == docs[j].label) {
        throw std::invalid_argument("merge_series: duplicate label \"" +
                                    docs[i].label + "\"");
      }
    }
  }
  SeriesDoc merged;
  std::map<std::pair<std::string, std::string>, std::size_t> index;
  for (const LabeledSeries& doc : docs) {
    if (doc.doc.epoch_anchor_us != 0 &&
        (merged.epoch_anchor_us == 0 ||
         doc.doc.epoch_anchor_us < merged.epoch_anchor_us)) {
      merged.epoch_anchor_us = doc.doc.epoch_anchor_us;
    }
    for (const Series& s : doc.doc.series) {
      // An untagged series picks up its document's label; a tagged one
      // (an earlier merge's output) keeps its tag — that is what makes
      // nested merges associative.
      const std::string source = s.source.empty() ? doc.label : s.source;
      const auto key = std::make_pair(s.name, source);
      auto it = index.find(key);
      if (it == index.end()) {
        it = index.emplace(key, merged.series.size()).first;
        Series out;
        out.name = s.name;
        out.source = source;
        merged.series.push_back(std::move(out));
      }
      auto& points = merged.series[it->second].points;
      points.insert(points.end(), s.points.begin(), s.points.end());
    }
  }
  std::sort(merged.series.begin(), merged.series.end(),
            [](const Series& a, const Series& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.source < b.source;
            });
  return merged;
}

// ------------------------------------------------------------- sampler

void RegistrySampler::sample_once() {
  std::lock_guard<std::mutex> lock(sample_mu_);
  Registry& registry = Registry::instance();
  const std::vector<std::string> counters = registry.counter_names();
  const std::vector<std::string> gauges = registry.gauge_names();
  // An empty registry records nothing and consumes no step: a run that
  // never enabled metrics keeps its series file free of registry data.
  if (counters.empty() && gauges.empty()) return;
  const std::int64_t step = next_step_++;
  for (const std::string& name : counters) {
    const std::uint64_t value = registry.counter(name).value();
    std::uint64_t& last = last_counters_[name];
    // A registry reset() mid-run restarts the delta from the new value.
    const std::uint64_t delta = value >= last ? value - last : value;
    last = value;
    recorder_.record("registry." + name, step, static_cast<double>(delta));
  }
  for (const std::string& name : gauges) {
    recorder_.record("registry." + name, step, registry.gauge(name).value());
  }
}

}  // namespace rlbf::obs
