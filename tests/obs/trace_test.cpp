// The obs/trace contract: RAII spans render as Chrome trace_event
// complete events, per-thread buffers survive their threads, and the
// disabled mode records nothing at all.
#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "obs/merge.h"
#include "util/thread_pool.h"

namespace {

using namespace rlbf;

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing(true);
    obs::clear_trace();
  }
  void TearDown() override {
    obs::set_tracing(false);
    obs::clear_trace();
  }

  static std::vector<obs::TraceEvent> events_named(const std::string& name) {
    std::vector<obs::TraceEvent> out;
    for (obs::TraceEvent& ev : obs::trace_events_snapshot()) {
      if (ev.name == name) out.push_back(std::move(ev));
    }
    return out;
  }
};

TEST_F(TraceTest, SpanRecordsCompleteEvent) {
  {
    obs::Span span("unit_span", "test");
    EXPECT_TRUE(span.active());
  }
  const std::vector<obs::TraceEvent> events = events_named("unit_span");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].category, "test");
  EXPECT_GE(events[0].ts_us, 0);
  EXPECT_GE(events[0].dur_us, 0);
}

TEST_F(TraceTest, LabeledSpanCopiesDynamicName) {
  const std::string name = "labeled span " + std::to_string(42);
  {
    obs::Span span = obs::Span::labeled(name, "test");
    EXPECT_TRUE(span.active());
  }
  EXPECT_EQ(events_named("labeled span 42").size(), 1u);
}

TEST_F(TraceTest, EndIsIdempotent) {
  obs::Span span("ended_twice", "test");
  span.end();
  span.end();  // second end records nothing
  EXPECT_EQ(events_named("ended_twice").size(), 1u);
}

TEST_F(TraceTest, MoveTransfersOwnershipOfTheRecord) {
  {
    obs::Span outer = [] {
      obs::Span inner = obs::Span::labeled("moved_span", "test");
      return inner;  // moved out; inner's destructor must not record
    }();
    EXPECT_TRUE(outer.active());
  }
  EXPECT_EQ(events_named("moved_span").size(), 1u);
}

TEST_F(TraceTest, MarkRecordsZeroDuration) {
  obs::trace_mark("marker", "test");
  const std::vector<obs::TraceEvent> events = events_named("marker");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].dur_us, 0);
}

TEST_F(TraceTest, PoolThreadsGetDistinctTidsAndSurvivePoolTeardown) {
  constexpr std::size_t kTasks = 32;
  {
    util::ThreadPool pool(4);
    pool.parallel_for(kTasks, [&](std::size_t i) {
      obs::Span span =
          obs::Span::labeled("pool_span_" + std::to_string(i), "test");
    });
  }  // pool (and its threads) destroyed; events must survive
  std::size_t found = 0;
  std::vector<std::uint32_t> tids;
  for (const obs::TraceEvent& ev : obs::trace_events_snapshot()) {
    if (ev.name.rfind("pool_span_", 0) == 0) {
      ++found;
      tids.push_back(ev.tid);
    }
  }
  EXPECT_EQ(found, kTasks);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_GE(tids.size(), 1u);  // tids are assigned; with 4 workers, up to 4
  EXPECT_LE(tids.size(), 4u);
}

TEST_F(TraceTest, WriteTraceJsonIsChromeShaped) {
  {
    obs::Span span("json \"quoted\" span", "test\\cat");
  }
  std::ostringstream os;
  obs::write_trace_json(os);
  const std::string doc = os.str();
  EXPECT_EQ(doc.rfind("{\"traceEvents\": [", 0), 0u);
  EXPECT_NE(doc.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(doc.find("\"pid\": 1"), std::string::npos);
  // Escaping keeps the document valid through hostile names.
  EXPECT_NE(doc.find("json \\\"quoted\\\" span"), std::string::npos);
  EXPECT_NE(doc.find("test\\\\cat"), std::string::npos);
  // The document closes with the wall-clock anchor that lets
  // obs::merge align this trace with other processes'.
  EXPECT_NE(doc.find("], \"epochAnchorUs\": "), std::string::npos);
  EXPECT_EQ(doc.substr(doc.size() - 2), "}\n");
}

TEST_F(TraceTest, EmptyTraceIsStillAValidDocument) {
  obs::clear_trace();
  std::ostringstream os;
  obs::write_trace_json(os);
  EXPECT_EQ(os.str().rfind("{\"traceEvents\": [], \"epochAnchorUs\": ", 0), 0u);
}

TEST_F(TraceTest, WriteTraceJsonIsTheOneProcessSplice) {
  {
    obs::Span span("outer", "test");
    obs::trace_mark("mark", "test");
  }
  // Every span on pid 1, no process_name row: the same bytes the
  // spliced-trace writer lays out for that splice.
  obs::SplicedTrace one;
  for (const obs::TraceEvent& ev : obs::trace_events_snapshot()) {
    one.events.push_back({ev, 1});
  }
  one.epoch_anchor_us = obs::trace_epoch_anchor_us();
  std::ostringstream direct, spliced;
  obs::write_trace_json(direct);
  obs::write_spliced_trace_json(spliced, one);
  EXPECT_EQ(direct.str(), spliced.str());
}

TEST(SplicedTraceLayoutTest, ProcessRowsThenSpansOnePerLine) {
  obs::SplicedTrace trace;
  trace.processes = {{1, "supervisor"}, {2, "worker \"0\""}};
  trace.events.push_back({{"sim.run", "sim", 10, 5, 0}, 1});
  trace.events.push_back({{"job x", "dist", 12, 3, 1}, 2});
  trace.epoch_anchor_us = 1700;
  std::ostringstream os;
  obs::write_spliced_trace_json(os, trace);
  EXPECT_EQ(os.str(),
            "{\"traceEvents\": [\n"
            "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
            "\"args\": {\"name\": \"supervisor\"}},\n"
            "  {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
            "\"args\": {\"name\": \"worker \\\"0\\\"\"}},\n"
            "  {\"name\": \"sim.run\", \"cat\": \"sim\", \"ph\": \"X\", "
            "\"ts\": 10, \"dur\": 5, \"pid\": 1, \"tid\": 0},\n"
            "  {\"name\": \"job x\", \"cat\": \"dist\", \"ph\": \"X\", "
            "\"ts\": 12, \"dur\": 3, \"pid\": 2, \"tid\": 1}\n"
            "], \"epochAnchorUs\": 1700}\n");
}

TEST(SplicedTraceLayoutTest, ZeroEventsIsAnEmptyArray) {
  std::ostringstream os;
  obs::write_spliced_trace_json(os, obs::SplicedTrace{});
  EXPECT_EQ(os.str(), "{\"traceEvents\": [], \"epochAnchorUs\": 0}\n");
}

TEST_F(TraceTest, EpochAnchorIsLatchedOnceTracingEnables) {
  // The fixture enabled tracing, so the anchor must be latched — and
  // stable across calls (it is latched exactly once per process).
  const std::int64_t anchor = obs::trace_epoch_anchor_us();
  EXPECT_GT(anchor, 0);
  EXPECT_EQ(obs::trace_epoch_anchor_us(), anchor);
}

TEST(TraceDisabledTest, DisabledSpansRecordNothing) {
  obs::set_tracing(false);
  obs::clear_trace();
  {
    obs::Span span("disabled_span", "test");
    EXPECT_FALSE(span.active());
    obs::Span labeled = obs::Span::labeled("disabled_labeled", "test");
    EXPECT_FALSE(labeled.active());
    obs::trace_mark("disabled_mark", "test");
  }
  EXPECT_TRUE(obs::trace_events_snapshot().empty());
  EXPECT_EQ(obs::trace_now_us(), 0);
}

TEST(TraceDisabledTest, SpanStartedDisabledStaysInertAfterEnable) {
  obs::set_tracing(false);
  obs::clear_trace();
  {
    obs::Span span("late_enable_span", "test");
    obs::set_tracing(true);
  }  // decided at construction: must not record
  const std::vector<obs::TraceEvent> events = obs::trace_events_snapshot();
  obs::set_tracing(false);
  for (const obs::TraceEvent& ev : events) {
    EXPECT_NE(ev.name, "late_enable_span");
  }
}

}  // namespace
