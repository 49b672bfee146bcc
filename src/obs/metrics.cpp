#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <map>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "obs/json.h"

namespace rlbf::obs {

namespace {

std::atomic<bool> g_enabled{false};

/// Lock-free max/min update over std::atomic<double>.
void update_min(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v < cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void update_max(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (v > cur &&
         !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void add_double(std::atomic<double>& slot, double v) {
  double cur = slot.load(std::memory_order_relaxed);
  while (!slot.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

// Shortest-round-trip rendering, C locale (std::to_chars). The dump
// must be byte-stable for equal values on every host.
std::string format_number(double value) {
  if (std::isnan(value)) return "null";
  if (std::isinf(value)) return value > 0 ? "1e999" : "-1e999";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, res.ptr);
}

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

HistogramLayout exponential_buckets(double start, double factor,
                                    std::size_t count) {
  if (!(start > 0.0) || !(factor > 1.0) || count == 0) {
    throw std::invalid_argument(
        "exponential_buckets: need start > 0, factor > 1, count >= 1");
  }
  HistogramLayout layout;
  layout.upper_bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    layout.upper_bounds.push_back(bound);
    bound *= factor;
  }
  return layout;
}

const HistogramLayout& duration_buckets() {
  static const HistogramLayout layout = exponential_buckets(1e-6, 4.0, 14);
  return layout;
}

Histogram::Histogram(HistogramLayout layout)
    : layout_(std::move(layout)),
      buckets_(layout_.upper_bounds.size() + 1) {
  if (!std::is_sorted(layout_.upper_bounds.begin(),
                      layout_.upper_bounds.end()) ||
      std::adjacent_find(layout_.upper_bounds.begin(),
                         layout_.upper_bounds.end()) !=
          layout_.upper_bounds.end()) {
    throw std::invalid_argument(
        "Histogram: bucket upper bounds must be strictly ascending");
  }
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(layout_.upper_bounds.begin(),
                                   layout_.upper_bounds.end(), value);
  buckets_[static_cast<std::size_t>(it - layout_.upper_bounds.begin())]
      .fetch_add(1, std::memory_order_relaxed);
  add_double(sum_, value);
  // First observation seeds min/max: count_ incremented LAST so a racing
  // snapshot never sees count > 0 with unseeded extremes... snapshots
  // racing writers are approximate by contract anyway; keep it simple
  // and exact for quiesced reads.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    update_min(min_, value);
    update_max(max_, value);
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.upper_bounds = layout_.upper_bounds;
  snap.bucket_counts.reserve(buckets_.size());
  for (const auto& b : buckets_) {
    snap.bucket_counts.push_back(b.load(std::memory_order_relaxed));
  }
  snap.count = count_.load(std::memory_order_relaxed);
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.min = min_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

double percentile(const Histogram::Snapshot& snapshot, double q) {
  if (snapshot.count == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(snapshot.count);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < snapshot.bucket_counts.size(); ++i) {
    const double in_bucket = static_cast<double>(snapshot.bucket_counts[i]);
    if (cumulative + in_bucket < rank) {
      cumulative += in_bucket;
      continue;
    }
    // The covering bucket: interpolate linearly between its bounds. The
    // first bucket starts at 0 (durations and counts are non-negative);
    // the terminal +inf bucket is bounded above by the exact max.
    double lo = i == 0 ? 0.0 : snapshot.upper_bounds[i - 1];
    double hi = i < snapshot.upper_bounds.size() ? snapshot.upper_bounds[i]
                                                 : snapshot.max;
    if (hi < lo) hi = lo;
    const double fraction =
        in_bucket > 0.0 ? (rank - cumulative) / in_bucket : 1.0;
    double value = lo + (hi - lo) * fraction;
    // The exact extremes always bound the estimate — interpolation can
    // never report a value outside what was actually observed.
    if (value < snapshot.min) value = snapshot.min;
    if (value > snapshot.max) value = snapshot.max;
    return value;
  }
  return snapshot.max;
}

Histogram::Snapshot merge_histogram(const Histogram::Snapshot& a,
                                    const Histogram::Snapshot& b) {
  if (a.upper_bounds != b.upper_bounds ||
      a.bucket_counts.size() != b.bucket_counts.size()) {
    throw std::invalid_argument(
        "merge_histogram: bucket layouts differ (" +
        std::to_string(a.upper_bounds.size()) + " vs " +
        std::to_string(b.upper_bounds.size()) + " finite bounds)");
  }
  Histogram::Snapshot merged;
  merged.upper_bounds = a.upper_bounds;
  merged.bucket_counts.reserve(a.bucket_counts.size());
  for (std::size_t i = 0; i < a.bucket_counts.size(); ++i) {
    merged.bucket_counts.push_back(a.bucket_counts[i] + b.bucket_counts[i]);
  }
  merged.count = a.count + b.count;
  merged.sum = a.sum + b.sum;
  // min/max only mean anything on a side that observed something.
  if (a.count == 0) {
    merged.min = b.min;
    merged.max = b.max;
  } else if (b.count == 0) {
    merged.min = a.min;
    merged.max = a.max;
  } else {
    merged.min = std::min(a.min, b.min);
    merged.max = std::max(a.max, b.max);
  }
  return merged;
}

void write_histogram_json(json::Writer& w, const Histogram::Snapshot& snap) {
  w.object();
  w.key("count").value(snap.count).key("sum").value(snap.sum);
  w.key("min").value(snap.min).key("max").value(snap.max);
  w.key("p50").value(percentile(snap, 0.50));
  w.key("p95").value(percentile(snap, 0.95));
  w.key("p99").value(percentile(snap, 0.99));
  w.key("buckets").array();
  for (std::size_t i = 0; i < snap.bucket_counts.size(); ++i) {
    w.object().key("le").value(i < snap.upper_bounds.size()
                                   ? format_number(snap.upper_bounds[i])
                                   : std::string("inf"));
    w.key("count").value(snap.bucket_counts[i]).end();
  }
  w.end().end();
}

// ---------------------------------------------------------------- Registry

struct Registry::Impl {
  mutable std::mutex mu;
  // std::map: sorted iteration AND stable node addresses — references
  // handed out survive every later registration (but not a
  // clear_for_testing, which bumps `generation` so CachedCounter
  // handles re-resolve instead of dangling).
  std::map<std::string, Counter> counters;
  std::map<std::string, Gauge> gauges;
  std::map<std::string, Histogram> histograms;
  std::atomic<std::uint64_t> generation{0};
};

Registry& Registry::instance() {
  // Leaked singleton: metric references must stay valid through static
  // destruction (a destructor logging a final count must not crash).
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Impl& Registry::impl() const {
  static Impl* impl = new Impl();
  return *impl;
}

Counter& Registry::counter(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.counters[name];
}

Gauge& Registry::gauge(const std::string& name) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  return im.gauges[name];
}

Histogram& Registry::histogram(const std::string& name,
                               const HistogramLayout& layout) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  const auto it = im.histograms.find(name);
  if (it != im.histograms.end()) {
    if (it->second.upper_bounds() != layout.upper_bounds) {
      throw std::invalid_argument(
          "histogram '" + name +
          "' re-registered with a different bucket layout");
    }
    return it->second;
  }
  // try_emplace: Histogram holds atomics and is neither copyable nor
  // movable, so it must be constructed in place inside the node.
  return im.histograms.try_emplace(name, layout).first->second;
}

std::vector<std::string> Registry::counter_names() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> names;
  names.reserve(im.counters.size());
  for (const auto& [name, metric] : im.counters) names.push_back(name);
  return names;
}

std::vector<std::string> Registry::gauge_names() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> names;
  names.reserve(im.gauges.size());
  for (const auto& [name, metric] : im.gauges) names.push_back(name);
  return names;
}

std::vector<std::string> Registry::histogram_names() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  std::vector<std::string> names;
  names.reserve(im.histograms.size());
  for (const auto& [name, metric] : im.histograms) names.push_back(name);
  return names;
}

void Registry::write_json(std::ostream& os) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  json::Writer w(os);
  w.object(true).key("counters").object(true);
  for (const auto& [name, metric] : im.counters) w.key(name).value(metric.value());
  w.end().key("gauges").object(true);
  for (const auto& [name, metric] : im.gauges) w.key(name).value(metric.value());
  w.end().key("histograms").object(true);
  for (const auto& [name, metric] : im.histograms) {
    write_histogram_json(w.key(name), metric.snapshot());
  }
  w.end().end();
  os << '\n';
}

std::string Registry::to_json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

void Registry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  for (auto& [name, metric] : im.counters) metric.reset();
  for (auto& [name, metric] : im.gauges) metric.reset();
  for (auto& [name, metric] : im.histograms) metric.reset();
}

std::uint64_t Registry::generation() const {
  return impl().generation.load(std::memory_order_acquire);
}

void Registry::clear_for_testing() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock(im.mu);
  im.counters.clear();
  im.gauges.clear();
  im.histograms.clear();
  // Bump AFTER the maps are emptied (still under the lock): a handle
  // that observes the new generation re-resolves into the new maps.
  im.generation.fetch_add(1, std::memory_order_release);
}

Counter& counter(const std::string& name) {
  return Registry::instance().counter(name);
}

Gauge& gauge(const std::string& name) {
  return Registry::instance().gauge(name);
}

Histogram& histogram(const std::string& name, const HistogramLayout& layout) {
  return Registry::instance().histogram(name, layout);
}

// ------------------------------------------------------------- ScopedTimer

ScopedTimer::ScopedTimer(const char* name) {
  if (!enabled()) return;  // inactive: no clock read, no allocation
  name_ = name;
  start_ = std::chrono::steady_clock::now();
  active_ = true;
}

ScopedTimer::ScopedTimer(Histogram& sink) {
  if (!enabled()) return;
  sink_ = &sink;
  start_ = std::chrono::steady_clock::now();
  active_ = true;
}

ScopedTimer::~ScopedTimer() { stop(); }

double ScopedTimer::stop() {
  if (!active_) return 0.0;
  active_ = false;
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  Histogram& sink =
      sink_ != nullptr ? *sink_ : histogram(name_, duration_buckets());
  sink.observe(seconds);
  return seconds;
}

}  // namespace rlbf::obs
