// Process-wide observability metrics: counters, gauges, and histograms
// with fixed bucket layouts, collected in one registry and dumped as
// deterministic JSON (--metrics_out).
//
// Design contract (the golden byte-identity tests depend on it):
//
//   * Instrumentation hooks are branch-on-atomic-flag no-ops while
//     metrics are disabled (the default): `if (!obs::enabled()) return;`
//     guards every hook, so the disabled path performs no allocation,
//     no registration, and no clock read.
//   * Metrics only ever write to their own sinks — the registry and the
//     files the CLI flags name — never to result streams, so enabling
//     them cannot perturb a single byte of simulation, sweep, training,
//     or store output.
//   * The registry hands out references with stable addresses for the
//     registry's lifetime, and hot paths hold an obs::CachedCounter: one
//     registration on first enabled use, a relaxed atomic update
//     afterwards, and automatic re-resolution if the registry is ever
//     cleared/swapped (a `static obs::Counter&` latch would keep
//     counting into the old generation's node):
//
//       if (obs::enabled()) {
//         static obs::CachedCounter c("sim.events");
//         c.add(n);
//       }
//
// ScopedTimer is the RAII timing primitive: it aggregates on the owning
// thread (its state lives on that thread's stack — no shared writes
// while the scope runs) and merges into the shared histogram exactly
// once, at scope exit.
//
// This layer depends on the standard library only, so every subsystem
// (util included) may instrument itself without dependency cycles.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace rlbf::obs {

namespace json {
class Writer;  // obs/json.h
}

/// Global metrics switch (default off). Hooks test it with one relaxed
/// atomic load; flipping it mid-run only affects subsequent hook calls.
bool enabled();
void set_enabled(bool on);

/// Monotonically increasing event count. Relaxed atomics: totals are
/// exact, ordering between distinct counters is not promised.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (utilization, cache residency).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// A histogram's fixed bucket layout: ascending finite upper bounds; an
/// implicit +inf bucket always terminates the list. The layout is fixed
/// at registration — re-registering a name with a different layout
/// throws, so two call sites can never silently split one metric.
struct HistogramLayout {
  std::vector<double> upper_bounds;
};

/// `count` buckets at start, start*factor, start*factor^2, ...
/// (factor > 1, start > 0, count >= 1; throws std::invalid_argument).
HistogramLayout exponential_buckets(double start, double factor,
                                    std::size_t count);

/// The default layout for wall-clock durations in seconds: 1us to ~100s
/// in x4 steps (14 finite buckets + inf).
const HistogramLayout& duration_buckets();

/// Fixed-bucket histogram with exact sum/count/min/max. Thread-safe via
/// per-field relaxed atomics; a snapshot taken while writers run is a
/// consistent-enough view for reporting (each field is itself exact).
class Histogram {
 public:
  explicit Histogram(HistogramLayout layout);

  void observe(double value);

  struct Snapshot {
    std::vector<double> upper_bounds;       // finite bounds; inf implied
    std::vector<std::uint64_t> bucket_counts;  // upper_bounds.size() + 1
    std::uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
  };
  Snapshot snapshot() const;
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  const std::vector<double>& upper_bounds() const { return layout_.upper_bounds; }

  void reset();

 private:
  HistogramLayout layout_;
  std::vector<std::atomic<std::uint64_t>> buckets_;  // layout size + inf
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Deterministic percentile estimate (q in [0, 1]) from a snapshot's
/// bucket counts: linear interpolation inside the covering bucket,
/// clamped to the exact [min, max] the histogram tracked. 0 when the
/// histogram is empty. Used by the registry dump (p50/p95/p99), the
/// cross-worker merge report, and `rlbf_run profile`.
double percentile(const Histogram::Snapshot& snapshot, double q);

/// Bucket-merge two snapshots of the SAME layout (counts added, sums
/// added, min/max combined over non-empty sides). Associative and
/// commutative up to floating-point sum ordering. Throws
/// std::invalid_argument when the bucket layouts differ — two call
/// sites can never silently fold different metrics together.
Histogram::Snapshot merge_histogram(const Histogram::Snapshot& a,
                                    const Histogram::Snapshot& b);

/// Shortest-round-trip C-locale number rendering shared by every obs
/// JSON writer ("null" for NaN, "1e999" for +/-inf).
std::string format_number(double value);

/// Render one histogram snapshot exactly as the registry dump does:
/// {"count": .., "sum": .., "min": .., "max": .., "p50": .., "p95": ..,
/// "p99": .., "buckets": [{"le": "..", "count": ..}, ...]}.
void write_histogram_json(json::Writer& w, const Histogram::Snapshot& snap);

/// The process-wide registry. Lookup registers on first use; returned
/// references stay valid for the process lifetime. Iteration order in
/// every dump is lexicographic by name — deterministic regardless of
/// registration order or thread interleaving.
class Registry {
 public:
  static Registry& instance();

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// Layout applies on first registration; a later call with a
  /// different layout throws std::invalid_argument naming the metric.
  Histogram& histogram(const std::string& name, const HistogramLayout& layout);

  /// Registered names (sorted), one list per kind — for tests and docs.
  std::vector<std::string> counter_names() const;
  std::vector<std::string> gauge_names() const;
  std::vector<std::string> histogram_names() const;

  /// Deterministic JSON dump: {"counters":{...},"gauges":{...},
  /// "histograms":{...}}, keys sorted, numbers rendered shortest-round-
  /// trip in the C locale.
  void write_json(std::ostream& os) const;
  std::string to_json() const;

  /// Zero every metric (names stay registered). Tests and bench repeats.
  void reset();

  /// Monotonic generation stamp, bumped whenever previously handed-out
  /// metric references are invalidated (clear_for_testing). CachedCounter
  /// re-resolves when it observes a new generation.
  std::uint64_t generation() const;

  /// Drop every registered metric — references obtained earlier DANGLE
  /// afterwards. Strictly a test hook for exercising the re-resolution
  /// path; production code only ever reset()s.
  void clear_for_testing();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Shorthands for Registry::instance(). NOT gated on enabled() — call
/// sites own that branch so the disabled path never reaches the map.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);
Histogram& histogram(const std::string& name,
                     const HistogramLayout& layout = duration_buckets());

/// Hot-path counter handle: resolves its registry node on first use and
/// caches the pointer, revalidating against Registry::generation() so a
/// cleared/swapped registry (tests, embedders) can never leave it
/// counting into a stale — or dangling — node the way a function-local
/// `static obs::Counter&` latch would. Safe to share across threads
/// (function-local static in practice): the cache is a release-stored
/// pointer published by an acquire-read generation stamp, and a racing
/// re-resolution lands on the same registry node.
class CachedCounter {
 public:
  /// `name` must outlive the handle (a string literal in practice).
  explicit CachedCounter(const char* name) : name_(name) {}

  void add(std::uint64_t n = 1) {
    const std::uint64_t gen = Registry::instance().generation();
    Counter* c = nullptr;
    if (generation_.load(std::memory_order_acquire) == gen) {
      c = cached_.load(std::memory_order_relaxed);
    }
    if (c == nullptr) {
      c = &Registry::instance().counter(name_);
      cached_.store(c, std::memory_order_relaxed);
      generation_.store(gen, std::memory_order_release);
    }
    c->add(n);
  }

  const char* name() const { return name_; }

 private:
  const char* name_;
  std::atomic<Counter*> cached_{nullptr};
  // Starts at the never-issued sentinel so the first add() resolves.
  std::atomic<std::uint64_t> generation_{~std::uint64_t{0}};
};

/// RAII wall-clock timer. Inactive (no clock read, no allocation) when
/// metrics are disabled at construction. The elapsed time accumulates
/// in this object — thread-local by construction, it lives on the
/// owning thread's stack — and merges into the named histogram once, at
/// scope exit (or at an explicit stop()).
class ScopedTimer {
 public:
  /// `name` must outlive the timer (string literals in practice): the
  /// histogram is resolved at merge time, so an inactive timer never
  /// touches the registry.
  explicit ScopedTimer(const char* name);
  /// Pre-resolved form for call sites that already hold the histogram.
  explicit ScopedTimer(Histogram& sink);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Merge now and deactivate; returns the elapsed seconds (0.0 when
  /// inactive). Idempotent.
  double stop();

  bool active() const { return active_; }

 private:
  const char* name_ = nullptr;
  Histogram* sink_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
  bool active_ = false;
};

}  // namespace rlbf::obs
