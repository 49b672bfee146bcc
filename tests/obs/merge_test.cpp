// The fleet-aggregation contract: the JSON reader round-trips the
// registry's own dumps, counters sum exactly, gauges keep a last-write
// source tag, histogram bucket-merge is associative, trace splicing
// remaps colliding pids and aligns epochs — and every bad input
// (missing sidecar, empty file, layout mismatch, duplicate label) is a
// NAMED error, never a crash.
#include "obs/merge.h"

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>

#include "obs/json.h"
#include "obs/metrics.h"

namespace {

using namespace rlbf;

// ---- json reader --------------------------------------------------------

TEST(JsonTest, ParsesScalarsArraysAndObjects) {
  const obs::json::Value v = obs::json::parse(
      R"({"a": 1.5, "b": "x\n\"y\"", "c": [true, false, null], "d": {"e": -2}})");
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.number_at("a"), 1.5);
  EXPECT_EQ(v.string_at("b"), "x\n\"y\"");
  const obs::json::Value& c = v.at("c");
  ASSERT_TRUE(c.is_array());
  ASSERT_EQ(c.items.size(), 3u);
  EXPECT_TRUE(c.items[0].boolean);
  EXPECT_FALSE(c.items[1].boolean);
  EXPECT_TRUE(c.items[2].is_null());
  EXPECT_DOUBLE_EQ(v.at("d").number_at("e"), -2.0);
}

TEST(JsonTest, InfRenderingRoundTrips) {
  // The obs dumps render +inf as 1e999; from_chars overflows, and the
  // reader maps that back to infinity instead of failing.
  const obs::json::Value v = obs::json::parse(R"({"p": 1e999, "n": -1e999})");
  EXPECT_TRUE(std::isinf(v.number_at("p")));
  EXPECT_GT(v.number_at("p"), 0.0);
  EXPECT_TRUE(std::isinf(v.number_at("n")));
  EXPECT_LT(v.number_at("n"), 0.0);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  const obs::json::Value v =
      obs::json::parse(R"({"s": "é😀"})");
  EXPECT_EQ(v.string_at("s"), "\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(JsonTest, OutOfRangeNumbersUnderflowToZeroAndOverflowToInf) {
  const obs::json::Value v =
      obs::json::parse(R"([1e-400, -1e-400, 1e999, -1e999, 0.0001e-330, 12e-330])");
  ASSERT_EQ(v.items.size(), 6u);
  EXPECT_EQ(v.items[0].number, 0.0);
  EXPECT_FALSE(std::signbit(v.items[0].number));
  EXPECT_EQ(v.items[1].number, 0.0);
  EXPECT_TRUE(std::signbit(v.items[1].number));
  EXPECT_EQ(v.items[2].number, std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.items[3].number, -std::numeric_limits<double>::infinity());
  EXPECT_EQ(v.items[4].number, 0.0);
  EXPECT_EQ(v.items[5].number, 0.0);
}

/// The message parse throws for `text`, or "" when it parses.
std::string parse_error(const std::string& text) {
  try {
    obs::json::parse(text, "doc");
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(JsonTest, MalformedStringsFailWithNamedErrors) {
  EXPECT_EQ(parse_error(R"("\ud800A")"), "doc: lone high surrogate in \\u escape at byte 7");
  EXPECT_EQ(parse_error(R"("\ud800\u0041")"),
            "doc: high surrogate followed by a non-low-surrogate \\u escape at byte 13");
  EXPECT_EQ(parse_error(R"("\ud800")"), "doc: lone high surrogate in \\u escape at byte 7");
  EXPECT_EQ(parse_error(R"("\ud800x")"), "doc: lone high surrogate in \\u escape at byte 7");
  EXPECT_EQ(parse_error(R"("\udc00")"), "doc: lone low surrogate in \\u escape at byte 7");
  EXPECT_EQ(parse_error(R"("\ud800\ud800")"),
            "doc: high surrogate followed by a non-low-surrogate \\u escape at byte 13");
  EXPECT_EQ(parse_error("[\"a\x01" "b\"]"), "doc: raw control byte in string at byte 3");
  EXPECT_EQ(parse_error("\"tab\there\""), "doc: raw control byte in string at byte 4");
  // A valid pair still decodes to its one code point (U+1F600).
  EXPECT_EQ(obs::json::parse(R"("\ud83d\ude00")").text, "\xF0\x9F\x98\x80");
  // Everything escape() emits reads back: every byte below 0x20 included.
  std::string all;
  for (int c = 1; c < 0x80; ++c) all += static_cast<char>(c);
  EXPECT_EQ(obs::json::parse('"' + obs::json::escape(all) + '"').text, all);
}

TEST(JsonTest, ErrorsNameOriginAndOffset) {
  try {
    obs::json::parse("{\"a\": }", "worker0.metrics.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("worker0.metrics.json"), std::string::npos) << what;
    EXPECT_NE(what.find("at byte"), std::string::npos) << what;
  }
  EXPECT_THROW(obs::json::parse("{} trailing"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("{\"a\": 1,}"), std::runtime_error);
  EXPECT_THROW(obs::json::parse("\"unterminated"), std::runtime_error);
}

// ---- json writer + artifact files -----------------------------------------

/// Drive a Writer over a fresh stream and return what it wrote.
template <typename Fn>
std::string written(Fn fn) {
  std::ostringstream os;
  obs::json::Writer w(os);
  fn(w);
  return os.str();
}

TEST(JsonWriterTest, CompactAndLineSeparators) {
  EXPECT_EQ(written([](obs::json::Writer& w) {
              w.array().value(1).value("x").value(true).end();
            }),
            "[1, \"x\", true]");
  EXPECT_EQ(written([](obs::json::Writer& w) {
              w.object(true).key("a").value(1).key("b").value(2).end();
            }),
            "{\n  \"a\": 1,\n  \"b\": 2\n}");
}

TEST(JsonWriterTest, IndentCountsOnlyLineLayoutContainers) {
  EXPECT_EQ(written([](obs::json::Writer& w) {
              w.object(true).key("a").object(true).key("b").array(true);
              w.value(1).end().end();
              w.key("c").array().object().key("d").array(true).value(2);
              w.end().end().end().end();
            }),
            "{\n"
            "  \"a\": {\n"
            "    \"b\": [\n"
            "      1\n"
            "    ]\n"
            "  },\n"
            "  \"c\": [{\"d\": [\n"
            "    2\n"
            "  ]}]\n"
            "}");
}

TEST(JsonWriterTest, EmptyContainersPrintAsBraces) {
  EXPECT_EQ(written([](obs::json::Writer& w) {
              w.object(true).key("o").object(true).end();
              w.key("a").array(true).end().key("c").array().end().end();
            }),
            "{\n  \"o\": {},\n  \"a\": [],\n  \"c\": []\n}");
  EXPECT_EQ(written([](obs::json::Writer& w) { w.object().end(); }), "{}");
}

TEST(JsonWriterTest, EscapesKeysAndStrings) {
  EXPECT_EQ(written([](obs::json::Writer& w) {
              w.object().key("a\"b\n").value(std::string("c\\d\x01")).end();
            }),
            "{\"a\\\"b\\n\": \"c\\\\d\\u0001\"}");
}

TEST(JsonWriterTest, NumbersAndRawTokens) {
  EXPECT_EQ(written([](obs::json::Writer& w) {
              w.array().value(0.1).value(std::nan("")).value(-std::numeric_limits<double>::infinity());
              w.value(std::int64_t{-5}).value(~std::uint64_t{0});
              w.value(std::size_t{3}).raw("0.10000000000000001").end();
            }),
            "[0.1, null, -1e999, -5, 18446744073709551615, 3, "
            "0.10000000000000001]");
}

TEST(JsonWriterTest, ConsecutiveTopLevelValuesFormJsonl) {
  std::ostringstream os;
  obs::json::Writer w(os);
  w.object().key("a").value(1).end();
  os << '\n';
  w.object().key("b").value(2).end();
  os << '\n';
  EXPECT_EQ(os.str(), "{\"a\": 1}\n{\"b\": 2}\n");
}

TEST(ArtifactFileTest, WriteThenReadRoundTrips) {
  const std::string path = "merge_test_artifact.txt";
  ASSERT_TRUE(obs::write_file(path, [](std::ostream& os) { os << "a\nb"; }));
  EXPECT_EQ(obs::read_file(path, "test file"), "a\nb");
  // Truncating: a shorter rewrite leaves no tail of the old content.
  ASSERT_TRUE(obs::write_file(path, [](std::ostream& os) { os << "c"; }));
  EXPECT_EQ(obs::read_file(path, "test file"), "c");
  std::filesystem::remove(path);
  EXPECT_FALSE(obs::write_file("no/such/dir/out.txt",
                               [](std::ostream& os) { os << "x"; }));
}

TEST(ArtifactFileTest, ReadErrorsNameTheArtifactAndPath) {
  try {
    obs::read_file("no/such/metrics.json", "sidecar file");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()),
              "cannot open sidecar file: no/such/metrics.json");
  }
  const std::string empty_path = "merge_test_empty.txt";
  std::ofstream(empty_path, std::ios::trunc).close();
  try {
    obs::read_file(empty_path, "series file");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "series file is empty: " + empty_path);
  }
  std::filesystem::remove(empty_path);
}

TEST(ArtifactFileTest, CsvFieldQuotesOnlyWhenNeeded) {
  EXPECT_EQ(obs::csv_field("plain"), "plain");
  EXPECT_EQ(obs::csv_field("a,b"), "\"a,b\"");
  EXPECT_EQ(obs::csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(obs::csv_field("two\nlines"), "\"two\nlines\"");
}

// ---- metrics parse + merge ----------------------------------------------

/// A registry dump with known contents, via the REAL writer — the
/// parser must consume exactly what Registry::write_json emits.
std::string registry_dump(std::uint64_t events, double util, double obs1,
                          double obs2) {
  obs::set_enabled(true);
  obs::Registry::instance().reset();
  obs::counter("sim.events").add(events);
  obs::gauge("dist.util").set(util);
  obs::Histogram& h = obs::histogram("t.seconds");
  h.observe(obs1);
  h.observe(obs2);
  std::string dump = obs::Registry::instance().to_json();
  obs::Registry::instance().reset();
  obs::set_enabled(false);
  return dump;
}

TEST(MergeMetricsTest, ParsesTheRegistrysOwnDump) {
  const obs::MetricsDoc doc =
      obs::parse_metrics_json(registry_dump(42, 0.75, 1e-6, 2.5), "dump");
  EXPECT_EQ(doc.counters.at("sim.events"), 42u);
  EXPECT_DOUBLE_EQ(doc.gauges.at("dist.util"), 0.75);
  const obs::Histogram::Snapshot& snap = doc.histograms.at("t.seconds");
  EXPECT_EQ(snap.count, 2u);
  EXPECT_DOUBLE_EQ(snap.sum, 1e-6 + 2.5);
  EXPECT_DOUBLE_EQ(snap.min, 1e-6);
  EXPECT_DOUBLE_EQ(snap.max, 2.5);
  // The registry's duration layout survives the round trip.
  EXPECT_EQ(snap.upper_bounds, obs::duration_buckets().upper_bounds);
  EXPECT_EQ(snap.bucket_counts.size(), snap.upper_bounds.size() + 1);
}

TEST(MergeMetricsTest, CountersSumAndGaugesTagLastWriter) {
  std::vector<obs::LabeledMetrics> docs;
  docs.push_back({"worker0", obs::parse_metrics_json(
                                 registry_dump(10, 0.25, 1e-6, 1e-6), "w0")});
  docs.push_back({"worker1", obs::parse_metrics_json(
                                 registry_dump(32, 0.50, 2.5, 2.5), "w1")});
  const obs::MergedMetrics merged = obs::merge_metrics(docs);
  ASSERT_EQ(merged.sources.size(), 2u);
  EXPECT_EQ(merged.counters.at("sim.events"), 42u);
  EXPECT_DOUBLE_EQ(merged.gauges.at("dist.util").value, 0.50);
  EXPECT_EQ(merged.gauges.at("dist.util").source, "worker1");
  const obs::Histogram::Snapshot& snap = merged.histograms.at("t.seconds");
  EXPECT_EQ(snap.count, 4u);
  EXPECT_DOUBLE_EQ(snap.min, 1e-6);
  EXPECT_DOUBLE_EQ(snap.max, 2.5);
}

TEST(MergeMetricsTest, NamedErrorsOnBadInput) {
  const obs::MetricsDoc doc = obs::parse_metrics_json(
      registry_dump(1, 0.0, 1e-6, 1e-6), "doc");
  EXPECT_THROW(obs::merge_metrics({}), std::invalid_argument);
  try {
    obs::merge_metrics({{"same", doc}, {"same", doc}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate source label 'same'"),
              std::string::npos);
  }
  // Layout mismatch: the error names the metric and the source.
  obs::MetricsDoc other = doc;
  other.histograms.at("t.seconds").upper_bounds.pop_back();
  other.histograms.at("t.seconds").bucket_counts.pop_back();
  try {
    obs::merge_metrics({{"a", doc}, {"b", other}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("t.seconds"), std::string::npos) << what;
    EXPECT_NE(what.find("'b'"), std::string::npos) << what;
  }
}

TEST(MergeMetricsTest, LoadFileNamesMissingAndEmptySidecars) {
  try {
    obs::load_metrics_file("no/such/worker3.metrics.json");
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("no/such/worker3.metrics.json"),
              std::string::npos);
  }
  const std::string empty_path = "merge_test_empty.metrics.json";
  std::ofstream(empty_path, std::ios::trunc).close();
  try {
    obs::load_metrics_file(empty_path);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("empty"), std::string::npos) << what;
    EXPECT_NE(what.find(empty_path), std::string::npos) << what;
  }
  std::filesystem::remove(empty_path);
}

TEST(MergeHistogramTest, BucketMergeIsAssociative) {
  // Exactly representable values, so sums (the only FP accumulation)
  // are order-independent and the associativity check is byte-exact.
  const auto make = [](double a, double b) {
    obs::Histogram h(obs::exponential_buckets(1.0, 2.0, 4));
    h.observe(a);
    h.observe(b);
    return h.snapshot();
  };
  const obs::Histogram::Snapshot x = make(0.5, 1.5);
  const obs::Histogram::Snapshot y = make(2.5, 40.0);
  const obs::Histogram::Snapshot z = make(0.25, 8.0);
  const obs::Histogram::Snapshot left =
      obs::merge_histogram(obs::merge_histogram(x, y), z);
  const obs::Histogram::Snapshot right =
      obs::merge_histogram(x, obs::merge_histogram(y, z));
  EXPECT_EQ(left.bucket_counts, right.bucket_counts);
  EXPECT_EQ(left.count, right.count);
  EXPECT_DOUBLE_EQ(left.sum, right.sum);
  EXPECT_DOUBLE_EQ(left.min, right.min);
  EXPECT_DOUBLE_EQ(left.max, right.max);
  // Identity-ish: merging with an empty snapshot keeps the extremes.
  obs::Histogram empty(obs::exponential_buckets(1.0, 2.0, 4));
  const obs::Histogram::Snapshot with_empty =
      obs::merge_histogram(x, empty.snapshot());
  EXPECT_DOUBLE_EQ(with_empty.min, x.min);
  EXPECT_DOUBLE_EQ(with_empty.max, x.max);
  EXPECT_EQ(with_empty.count, x.count);
}

TEST(MergeMetricsTest, MergedJsonRoundTripsThroughTheParser) {
  std::vector<obs::LabeledMetrics> docs;
  docs.push_back({"worker0", obs::parse_metrics_json(
                                 registry_dump(7, 0.5, 1e-6, 1e-6), "w0")});
  docs.push_back({"supervisor", obs::parse_metrics_json(
                                    registry_dump(0, 0.9, 2.5, 2.5), "sup")});
  const obs::MergedMetrics merged = obs::merge_metrics(docs);
  std::ostringstream os;
  obs::write_merged_metrics_json(os, merged);
  const obs::json::Value v = obs::json::parse(os.str(), "merged");
  ASSERT_TRUE(v.at("sources").is_array());
  EXPECT_EQ(v.at("sources").items[1].text, "supervisor");
  EXPECT_DOUBLE_EQ(v.at("counters").number_at("sim.events"), 7.0);
  EXPECT_EQ(v.at("gauges").at("dist.util").string_at("source"), "supervisor");
  // Histograms render through the same writer as the registry dump,
  // percentiles included.
  const obs::json::Value& hist = v.at("histograms").at("t.seconds");
  EXPECT_DOUBLE_EQ(hist.number_at("count"), 4.0);
  EXPECT_TRUE(hist.find("p50") != nullptr);
  EXPECT_TRUE(hist.find("p99") != nullptr);
}

TEST(MergeMetricsTest, MergedJsonLayoutIsPinned) {
  obs::MetricsDoc worker;
  worker.counters["c"] = 1;
  worker.gauges["g"] = 2.5;
  obs::MetricsDoc supervisor;
  supervisor.counters["c"] = 2;
  supervisor.counters["d"] = 4;
  supervisor.gauges["g"] = 0.25;
  obs::Histogram::Snapshot snap;
  snap.upper_bounds = {1.0};
  snap.bucket_counts = {1, 0};
  snap.count = 1;
  snap.sum = snap.min = snap.max = 0.5;
  supervisor.histograms["h"] = snap;
  std::ostringstream os;
  obs::write_merged_metrics_json(
      os, obs::merge_metrics({{"worker0", worker}, {"supervisor", supervisor}}));
  EXPECT_EQ(os.str(),
            "{\n"
            "  \"sources\": [\"worker0\", \"supervisor\"],\n"
            "  \"counters\": {\n"
            "    \"c\": 3,\n"
            "    \"d\": 4\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"g\": {\"value\": 0.25, \"source\": \"supervisor\"}\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"h\": {\"count\": 1, \"sum\": 0.5, \"min\": 0.5, \"max\": 0.5, "
            "\"p50\": 0.5, \"p95\": 0.5, \"p99\": 0.5, \"buckets\": "
            "[{\"le\": \"1\", \"count\": 1}, {\"le\": \"inf\", \"count\": 0}]}\n"
            "  }\n"
            "}\n");
}

// ---- trace parse + splice -----------------------------------------------

obs::PidTraceEvent make_event(const std::string& name, std::int64_t ts,
                              std::int64_t dur, std::uint32_t pid,
                              std::uint32_t tid = 0) {
  obs::PidTraceEvent ev;
  ev.event.name = name;
  ev.event.category = "test";
  ev.event.ts_us = ts;
  ev.event.dur_us = dur;
  ev.event.tid = tid;
  ev.pid = pid;
  return ev;
}

TEST(SpliceTraceTest, RemapsCollidingPidsAndAlignsEpochs) {
  // Both workers report pid 1 (every single-process trace does), with
  // anchors 1000us apart: the later worker's spans shift right.
  obs::TraceDoc w0;
  w0.epoch_anchor_us = 1'000'000;
  w0.events.push_back(make_event("a", 10, 5, 1));
  obs::TraceDoc w1;
  w1.epoch_anchor_us = 1'001'000;
  w1.events.push_back(make_event("b", 10, 5, 1));
  const obs::SplicedTrace spliced =
      obs::splice_traces({{"worker0", w0}, {"worker1", w1}});
  ASSERT_EQ(spliced.events.size(), 2u);
  EXPECT_NE(spliced.events[0].pid, spliced.events[1].pid);
  EXPECT_EQ(spliced.epoch_anchor_us, 1'000'000);
  EXPECT_EQ(spliced.events[0].event.ts_us, 10);
  EXPECT_EQ(spliced.events[1].event.ts_us, 1010);  // +1000us anchor delta
  ASSERT_EQ(spliced.processes.size(), 2u);
  EXPECT_EQ(spliced.processes[0].name, "worker0");
  EXPECT_EQ(spliced.processes[1].name, "worker1");
}

TEST(SpliceTraceTest, MultiPidSourceKeepsDistinctRows) {
  // A source that is ITSELF a merged trace (two pids) stays two
  // processes, each named by its source pid.
  obs::TraceDoc doc;
  doc.events.push_back(make_event("a", 0, 1, 1));
  doc.events.push_back(make_event("b", 0, 1, 2));
  const obs::SplicedTrace spliced = obs::splice_traces({{"fleet", doc}});
  ASSERT_EQ(spliced.processes.size(), 2u);
  EXPECT_EQ(spliced.processes[0].name, "fleet/pid1");
  EXPECT_EQ(spliced.processes[1].name, "fleet/pid2");
  EXPECT_NE(spliced.events[0].pid, spliced.events[1].pid);
}

TEST(SpliceTraceTest, UnanchoredSourcesAreNotShifted) {
  obs::TraceDoc anchored;
  anchored.epoch_anchor_us = 2'000'000;
  anchored.events.push_back(make_event("a", 10, 5, 1));
  obs::TraceDoc unanchored;  // epoch_anchor_us == 0: nothing to align by
  unanchored.events.push_back(make_event("b", 10, 5, 1));
  const obs::SplicedTrace spliced =
      obs::splice_traces({{"sup", anchored}, {"old", unanchored}});
  EXPECT_EQ(spliced.events[0].event.ts_us, 10);
  EXPECT_EQ(spliced.events[1].event.ts_us, 10);
  EXPECT_EQ(spliced.epoch_anchor_us, 2'000'000);
  EXPECT_THROW(obs::splice_traces({}), std::invalid_argument);
  EXPECT_THROW(obs::splice_traces({{"x", anchored}, {"x", unanchored}}),
               std::invalid_argument);
}

TEST(SpliceTraceTest, WrittenTraceRoundTripsAndDropsMetadataOnReparse) {
  obs::TraceDoc doc;
  doc.epoch_anchor_us = 5;
  doc.events.push_back(make_event("span \"q\"", 1, 2, 1, 3));
  const obs::SplicedTrace spliced = obs::splice_traces({{"w", doc}});
  std::ostringstream os;
  obs::write_spliced_trace_json(os, spliced);
  // The document parses as a trace again: process_name metadata events
  // are skipped, spans and the anchor survive with escapes intact.
  const obs::TraceDoc reparsed = obs::parse_trace_json(os.str(), "spliced");
  ASSERT_EQ(reparsed.events.size(), 1u);
  EXPECT_EQ(reparsed.events[0].event.name, "span \"q\"");
  EXPECT_EQ(reparsed.events[0].event.ts_us, 1);
  EXPECT_EQ(reparsed.events[0].event.dur_us, 2);
  EXPECT_EQ(reparsed.events[0].event.tid, 3u);
  EXPECT_EQ(reparsed.epoch_anchor_us, 5);
  // And the raw text carries the Chrome metadata for the process row.
  EXPECT_NE(os.str().find("\"process_name\""), std::string::npos);
}

// ---- percentiles (used by dumps, merge, and profile) --------------------

TEST(PercentileTest, InterpolatesWithinBucketsAndClampsToExtremes) {
  obs::Histogram h(obs::exponential_buckets(1.0, 2.0, 3));  // 1,2,4,+inf
  for (int i = 0; i < 100; ++i) h.observe(1.5);
  const obs::Histogram::Snapshot snap = h.snapshot();
  // All mass in (1,2]; clamped to the exact observed extremes.
  EXPECT_DOUBLE_EQ(obs::percentile(snap, 0.0), 1.5);
  EXPECT_DOUBLE_EQ(obs::percentile(snap, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(obs::percentile(snap, 1.0), 1.5);
  obs::Histogram empty(obs::exponential_buckets(1.0, 2.0, 3));
  EXPECT_DOUBLE_EQ(obs::percentile(empty.snapshot(), 0.5), 0.0);
  // Spread mass: the median of 1@0.5 and 1@3.0 lands between them.
  obs::Histogram two(obs::exponential_buckets(1.0, 2.0, 3));
  two.observe(0.5);
  two.observe(3.0);
  const double p50 = obs::percentile(two.snapshot(), 0.5);
  EXPECT_GE(p50, 0.5);
  EXPECT_LE(p50, 3.0);
}

}  // namespace
