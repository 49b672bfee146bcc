// The obs/metrics contract: deterministic dumps, exact concurrent
// aggregation, fixed bucket semantics — and the disabled mode the golden
// byte-identity promise rests on: hooks that allocate nothing and
// register nothing.
#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/thread_pool.h"

// ---- allocation counter -------------------------------------------------
// Replacing global operator new in this TU counts every heap allocation
// in the test binary; the zero-allocation test brackets the disabled
// hooks with it. Counting is relaxed-atomic so the concurrent tests in
// this binary stay exact too.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rlbf;

/// Every test owns the global switches it relies on.
class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().reset();
  }
  void TearDown() override { obs::set_enabled(false); }
};

TEST_F(MetricsTest, CounterAddsExactly) {
  obs::Counter& c = obs::counter("test.counter");
  c.reset();
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  // Lookup under the same name returns the same metric.
  EXPECT_EQ(&obs::counter("test.counter"), &c);
}

TEST_F(MetricsTest, GaugeLastWriteWins) {
  obs::Gauge& g = obs::gauge("test.gauge");
  g.set(1.5);
  g.set(-2.25);
  EXPECT_DOUBLE_EQ(g.value(), -2.25);
}

TEST_F(MetricsTest, ExponentialBucketEdges) {
  const obs::HistogramLayout layout = obs::exponential_buckets(1e-6, 4.0, 3);
  ASSERT_EQ(layout.upper_bounds.size(), 3u);
  EXPECT_DOUBLE_EQ(layout.upper_bounds[0], 1e-6);
  EXPECT_DOUBLE_EQ(layout.upper_bounds[1], 4e-6);
  EXPECT_DOUBLE_EQ(layout.upper_bounds[2], 16e-6);
  EXPECT_THROW(obs::exponential_buckets(0.0, 4.0, 3), std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(1.0, 1.0, 3), std::invalid_argument);
  EXPECT_THROW(obs::exponential_buckets(1.0, 4.0, 0), std::invalid_argument);
}

TEST_F(MetricsTest, HistogramBucketAssignmentIsLe) {
  obs::HistogramLayout layout;
  layout.upper_bounds = {1.0, 2.0, 4.0};
  obs::Histogram h(std::move(layout));
  // A value equal to an upper bound belongs to THAT bucket (le
  // semantics), one past it to the next, and past the last bound to the
  // implicit +inf bucket.
  h.observe(0.5);   // bucket 0 (le 1)
  h.observe(1.0);   // bucket 0 (le 1, inclusive)
  h.observe(1.001); // bucket 1 (le 2)
  h.observe(4.0);   // bucket 2 (le 4, inclusive)
  h.observe(100.0); // bucket 3 (inf)
  const obs::Histogram::Snapshot snap = h.snapshot();
  ASSERT_EQ(snap.bucket_counts.size(), 4u);
  EXPECT_EQ(snap.bucket_counts[0], 2u);
  EXPECT_EQ(snap.bucket_counts[1], 1u);
  EXPECT_EQ(snap.bucket_counts[2], 1u);
  EXPECT_EQ(snap.bucket_counts[3], 1u);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_DOUBLE_EQ(snap.sum, 0.5 + 1.0 + 1.001 + 4.0 + 100.0);
  EXPECT_DOUBLE_EQ(snap.min, 0.5);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
}

TEST_F(MetricsTest, HistogramRelayoutThrows) {
  obs::histogram("test.relayout", obs::duration_buckets());
  EXPECT_NO_THROW(obs::histogram("test.relayout", obs::duration_buckets()));
  EXPECT_THROW(
      obs::histogram("test.relayout", obs::exponential_buckets(1.0, 2.0, 2)),
      std::invalid_argument);
}

TEST_F(MetricsTest, JsonDumpIsDeterministicAndSorted) {
  // Register deliberately out of order; the dump must come back sorted
  // by name regardless, and repeated dumps must be byte-identical.
  obs::counter("test.z_last").add(3);
  obs::counter("test.a_first").add(1);
  obs::gauge("test.m_gauge").set(0.5);
  obs::histogram("test.h").observe(2.5e-6);

  const std::string dump = obs::Registry::instance().to_json();
  EXPECT_EQ(dump, obs::Registry::instance().to_json());

  const std::size_t a = dump.find("\"test.a_first\": 1");
  const std::size_t z = dump.find("\"test.z_last\": 3");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, z);
  EXPECT_NE(dump.find("\"test.m_gauge\": 0.5"), std::string::npos);
  // The histogram entry renders count/sum/min/max and the le buckets,
  // terminated by the implicit inf bucket.
  EXPECT_NE(dump.find("\"count\": 1, \"sum\": 2.5e-06"), std::string::npos);
  EXPECT_NE(dump.find("{\"le\": \"inf\", \"count\": 0}"), std::string::npos);

  // Sorted-name promise, wholesale: the registry's own name listings.
  const std::vector<std::string> names =
      obs::Registry::instance().counter_names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

// The registry dump's exact bytes: sections and members one per line,
// histograms compact on one line, an empty section as {}.
TEST_F(MetricsTest, JsonDumpLayoutIsPinned) {
  obs::Registry::instance().clear_for_testing();
  obs::counter("c.events").add(7);
  obs::counter("a.first").add(1);
  obs::gauge("g.util").set(0.25);
  obs::Histogram& h =
      obs::histogram("h.seconds", obs::exponential_buckets(1.0, 10.0, 2));
  h.observe(0.5);
  h.observe(5.0);
  EXPECT_EQ(obs::Registry::instance().to_json(),
            "{\n"
            "  \"counters\": {\n"
            "    \"a.first\": 1,\n"
            "    \"c.events\": 7\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g.util\": 0.25\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h.seconds\": {\"count\": 2, \"sum\": 5.5, \"min\": 0.5, "
            "\"max\": 5, \"p50\": 1, \"p95\": 5, \"p99\": 5, \"buckets\": "
            "[{\"le\": \"1\", \"count\": 1}, {\"le\": \"10\", \"count\": 1}, "
            "{\"le\": \"inf\", \"count\": 0}]}\n"
            "  }\n"
            "}\n");
  obs::Registry::instance().clear_for_testing();
}

TEST_F(MetricsTest, JsonDumpRendersEmptySectionsAsBraces) {
  obs::Registry::instance().clear_for_testing();
  EXPECT_EQ(obs::Registry::instance().to_json(),
            "{\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
  obs::counter("only.counter").add(2);
  EXPECT_EQ(obs::Registry::instance().to_json(),
            "{\n"
            "  \"counters\": {\n"
            "    \"only.counter\": 2\n"
            "  },\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
  obs::Registry::instance().clear_for_testing();
}

TEST_F(MetricsTest, ResetZeroesValuesButKeepsRegistrations) {
  obs::Counter& c = obs::counter("test.reset_me");
  c.add(7);
  obs::Registry::instance().reset();
  EXPECT_EQ(c.value(), 0u);
  const std::vector<std::string> names =
      obs::Registry::instance().counter_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "test.reset_me"),
            names.end());
}

TEST_F(MetricsTest, ConcurrentScopedTimersAggregateExactly) {
  obs::Histogram& hist =
      obs::histogram("test.concurrent_timer", obs::duration_buckets());
  hist.reset();
  constexpr std::size_t kTasks = 256;
  util::ThreadPool pool(8);
  pool.parallel_for(kTasks, [&](std::size_t) {
    obs::ScopedTimer timer(hist);
    // A little real work so durations are nonzero.
    volatile double sink = 0.0;
    for (int i = 0; i < 100; ++i) sink = sink + 1.0;
  });
  const obs::Histogram::Snapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, kTasks);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t n : snap.bucket_counts) bucket_total += n;
  EXPECT_EQ(bucket_total, kTasks);  // every merge landed in exactly one bucket
  EXPECT_GE(snap.sum, 0.0);
  EXPECT_LE(snap.min, snap.max);
}

TEST_F(MetricsTest, ConcurrentCountersAreExact) {
  obs::Counter& c = obs::counter("test.concurrent_counter");
  c.reset();
  constexpr std::size_t kTasks = 64;
  constexpr std::uint64_t kPerTask = 1000;
  util::ThreadPool pool(8);
  pool.parallel_for(kTasks, [&](std::size_t) {
    for (std::uint64_t i = 0; i < kPerTask; ++i) c.add(1);
  });
  EXPECT_EQ(c.value(), kTasks * kPerTask);
}

TEST_F(MetricsTest, ScopedTimerStopIsIdempotentAndReturnsSeconds) {
  obs::Histogram& hist =
      obs::histogram("test.timer_stop", obs::duration_buckets());
  hist.reset();
  obs::ScopedTimer timer(hist);
  EXPECT_TRUE(timer.active());
  const double first = timer.stop();
  EXPECT_GE(first, 0.0);
  EXPECT_FALSE(timer.active());
  EXPECT_EQ(timer.stop(), 0.0);  // second stop merges nothing
  EXPECT_EQ(hist.count(), 1u);
}

// ---- the disabled mode --------------------------------------------------

TEST(MetricsDisabledTest, HooksAllocateNothingAndRegisterNothing) {
  obs::set_enabled(false);
  const std::size_t counters_before =
      obs::Registry::instance().counter_names().size();

  const std::size_t allocations_before =
      g_allocations.load(std::memory_order_relaxed);
  for (int i = 0; i < 1000; ++i) {
    // The documented hook shape: branch on the atomic flag, touch the
    // registry only when enabled.
    if (obs::enabled()) {
      obs::counter("test.disabled_counter").add(1);
    }
    // RAII hooks constructed unconditionally must stay inert too.
    obs::ScopedTimer timer("test.disabled_timer");
  }
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed),
            allocations_before);

  const std::vector<std::string> names =
      obs::Registry::instance().counter_names();
  EXPECT_EQ(names.size(), counters_before);
  EXPECT_EQ(std::find(names.begin(), names.end(), "test.disabled_counter"),
            names.end());
}

// ---- CachedCounter / registry-generation regression ---------------------
// The historical hot-path idiom latched `static obs::Counter&` once per
// process; if the registry was ever cleared/swapped within a process the
// latched reference kept counting into (or dangling off) the old node.
// CachedCounter revalidates against Registry::generation().

TEST(CachedCounterTest, ResolvesLazilyAndCounts) {
  obs::CachedCounter handle("test.cached_counter_basic");
  handle.add(2);
  handle.add();
  EXPECT_EQ(obs::counter("test.cached_counter_basic").value(), 3u);
}

TEST(CachedCounterTest, ReresolvesAfterRegistryClear) {
  obs::CachedCounter handle("test.cached_counter_clear");
  handle.add(5);
  EXPECT_EQ(obs::counter("test.cached_counter_clear").value(), 5u);

  const std::uint64_t gen_before = obs::Registry::instance().generation();
  obs::Registry::instance().clear_for_testing();
  EXPECT_GT(obs::Registry::instance().generation(), gen_before);

  // The name is gone until something re-registers it...
  const std::vector<std::string> names =
      obs::Registry::instance().counter_names();
  EXPECT_EQ(std::find(names.begin(), names.end(), "test.cached_counter_clear"),
            names.end());

  // ...and the handle lands its next increment in the NEW node instead
  // of the stale pre-clear one (which a static-latched reference would
  // still be pointing at).
  handle.add(7);
  EXPECT_EQ(obs::counter("test.cached_counter_clear").value(), 7u);
}

TEST(CachedCounterTest, ConcurrentAddsAcrossClearStayOnLiveNode) {
  obs::CachedCounter handle("test.cached_counter_threads");
  rlbf::util::ThreadPool pool(4);
  pool.parallel_for(64, [&](std::size_t) { handle.add(); });
  EXPECT_EQ(obs::counter("test.cached_counter_threads").value(), 64u);
  obs::Registry::instance().clear_for_testing();
  pool.parallel_for(64, [&](std::size_t) { handle.add(); });
  EXPECT_EQ(obs::counter("test.cached_counter_threads").value(), 64u);
}

TEST(MetricsDisabledTest, TimerStartedDisabledNeverMerges) {
  obs::set_enabled(false);
  obs::ScopedTimer timer("test.disabled_timer_merge");
  EXPECT_FALSE(timer.active());
  // Enabling mid-scope must not retroactively activate it: the golden
  // contract is decided at construction.
  obs::set_enabled(true);
  EXPECT_EQ(timer.stop(), 0.0);
  obs::set_enabled(false);
  const std::vector<std::string> names =
      obs::Registry::instance().histogram_names();
  EXPECT_EQ(std::find(names.begin(), names.end(),
                      "test.disabled_timer_merge"),
            names.end());
}

}  // namespace
