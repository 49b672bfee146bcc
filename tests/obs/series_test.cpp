// The time-series contract: the JSONL writer round-trips through the
// strict reader byte-for-byte on re-render, the registry sampler keys
// samples by ordinal (never the wall clock) and records counter deltas,
// the worker-tagged merge is associative, and every malformed input —
// missing header, truncated line, garbage, mistyped member — is a NAMED
// error carrying the origin and line number, never a crash or a silent
// partial parse.
#include "obs/series.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace {

using namespace rlbf;

std::string render(const std::vector<obs::Series>& series,
                   std::int64_t anchor) {
  std::ostringstream os;
  obs::write_series_jsonl(os, series, anchor);
  return os.str();
}

/// EXPECT that `fn` throws `E` and that the message contains `needle`.
template <typename E, typename Fn>
void expect_throw_containing(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected an exception mentioning: " << needle;
  } catch (const E& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

// ---- recorder + round trip ----------------------------------------------

TEST(SeriesTest, RecorderRoundTripsThroughWriterAndReader) {
  obs::SeriesRecorder recorder;
  recorder.record("train.policy_loss", 1, 0.25);
  recorder.record("train.policy_loss", 2, 0.125);
  recorder.record("train.eval_bsld", 2, 3.5);
  recorder.record("dist.job_seconds", 0, 1.5);
  EXPECT_FALSE(recorder.empty());

  const std::string text =
      render(recorder.snapshot(), recorder.epoch_anchor_us());
  const obs::SeriesDoc doc = obs::parse_series_jsonl(text, "roundtrip");
  EXPECT_EQ(doc.epoch_anchor_us, recorder.epoch_anchor_us());
  ASSERT_EQ(doc.series.size(), 3u);
  // Reader output is sorted by (name, source).
  EXPECT_EQ(doc.series[0].name, "dist.job_seconds");
  EXPECT_EQ(doc.series[1].name, "train.eval_bsld");
  EXPECT_EQ(doc.series[2].name, "train.policy_loss");
  ASSERT_EQ(doc.series[2].points.size(), 2u);
  EXPECT_EQ(doc.series[2].points[0].step, 1);
  EXPECT_DOUBLE_EQ(doc.series[2].points[0].value, 0.25);
  EXPECT_EQ(doc.series[2].points[1].step, 2);
  EXPECT_DOUBLE_EQ(doc.series[2].points[1].value, 0.125);

  // Re-rendering the parsed document reproduces the file byte-for-byte
  // (the recorder snapshot is already name-sorted, like the reader).
  EXPECT_EQ(render(doc.series, doc.epoch_anchor_us), text);
}

TEST(SeriesTest, EmptyDocumentStillCarriesTheMetaHeader) {
  // Every dump has at least the header line, so a worker sidecar that
  // recorded nothing still loads cleanly instead of tripping the
  // empty-file check.
  const std::string text = render({}, 42);
  EXPECT_EQ(text.substr(0, 1), "{");
  const obs::SeriesDoc doc = obs::parse_series_jsonl(text, "empty");
  EXPECT_EQ(doc.epoch_anchor_us, 42);
  EXPECT_TRUE(doc.series.empty());
}

TEST(SeriesTest, SourceTagSurvivesTheRoundTrip) {
  obs::Series s;
  s.name = "train.entropy";
  s.source = "worker0";
  s.points = {{1, 0.5, 123}, {2, 0.25, 456}};
  const std::string text = render({s}, 7);
  const obs::SeriesDoc doc = obs::parse_series_jsonl(text, "tagged");
  ASSERT_EQ(doc.series.size(), 1u);
  EXPECT_EQ(doc.series[0].source, "worker0");
  ASSERT_EQ(doc.series[0].points.size(), 2u);
  EXPECT_EQ(doc.series[0].points[1].wall_us, 456);
  EXPECT_EQ(render(doc.series, doc.epoch_anchor_us), text);
}

TEST(SeriesTest, JsonlLayoutIsPinned) {
  obs::Series plain;
  plain.name = "a";
  plain.points = {{1, 0.5, 100}, {2, 0.25, 200}};
  obs::Series tagged;
  tagged.name = "b";
  tagged.source = "worker0";
  tagged.points = {{-3, 4.0, 300}};
  EXPECT_EQ(render({plain, tagged}, 7),
            "{\"meta\": \"series\", \"version\": 1, \"epoch_anchor_us\": 7}\n"
            "{\"series\": \"a\", \"step\": 1, \"value\": 0.5, \"wall_us\": 100}\n"
            "{\"series\": \"a\", \"step\": 2, \"value\": 0.25, \"wall_us\": 200}\n"
            "{\"series\": \"b\", \"step\": -3, \"value\": 4, \"wall_us\": 300, "
            "\"source\": \"worker0\"}\n");
}

// ---- reader errors ------------------------------------------------------

TEST(SeriesTest, ReaderRequiresTheMetaHeader) {
  expect_throw_containing<std::runtime_error>(
      [] {
        obs::parse_series_jsonl(
            R"({"series": "a", "step": 1, "value": 2, "wall_us": 3})",
            "headless.jsonl");
      },
      "series meta header");
  expect_throw_containing<std::runtime_error>(
      [] { obs::parse_series_jsonl("", "blank.jsonl"); },
      "no series meta header found");
}

TEST(SeriesTest, ReaderRejectsUnsupportedVersions) {
  expect_throw_containing<std::runtime_error>(
      [] {
        obs::parse_series_jsonl(
            R"({"meta": "series", "version": 2, "epoch_anchor_us": 0})",
            "v2.jsonl");
      },
      "unsupported series version");
}

TEST(SeriesTest, ReaderNamesTheTruncatedLine) {
  const std::string text =
      "{\"meta\": \"series\", \"version\": 1, \"epoch_anchor_us\": 0}\n"
      "{\"series\": \"a\", \"step\": 1, \"va";
  expect_throw_containing<std::runtime_error>(
      [&] { obs::parse_series_jsonl(text, "cut.jsonl"); }, "cut.jsonl:2");
}

TEST(SeriesTest, ReaderNamesTheGarbageLine) {
  const std::string text =
      "{\"meta\": \"series\", \"version\": 1, \"epoch_anchor_us\": 0}\n"
      "{\"series\": \"a\", \"step\": 1, \"value\": 2, \"wall_us\": 3}\n"
      "not json at all\n";
  expect_throw_containing<std::runtime_error>(
      [&] { obs::parse_series_jsonl(text, "garbage.jsonl"); },
      "garbage.jsonl:3");
}

TEST(SeriesTest, ReaderRejectsMistypedMembers) {
  const std::string header =
      "{\"meta\": \"series\", \"version\": 1, \"epoch_anchor_us\": 0}\n";
  expect_throw_containing<std::runtime_error>(
      [&] {
        obs::parse_series_jsonl(
            header + R"({"series": 5, "step": 1, "value": 2})", "t.jsonl");
      },
      "expected string member \"series\"");
  expect_throw_containing<std::runtime_error>(
      [&] {
        obs::parse_series_jsonl(
            header + R"({"series": "a", "value": 2})", "t.jsonl");
      },
      "expected number member \"step\"");
  expect_throw_containing<std::runtime_error>(
      [&] {
        obs::parse_series_jsonl(
            header + R"({"series": "a", "step": 1, "value": "x"})", "t.jsonl");
      },
      "expected number member \"value\"");
}

TEST(SeriesTest, LoadNamesMissingAndEmptyFiles) {
  const std::string dir = ::testing::TempDir();
  expect_throw_containing<std::runtime_error>(
      [&] { obs::load_series_file(dir + "/does_not_exist.jsonl"); },
      "cannot open series file");
  const std::string empty_path = dir + "/empty_series.jsonl";
  std::ofstream(empty_path, std::ios::binary | std::ios::trunc).flush();
  expect_throw_containing<std::runtime_error>(
      [&] { obs::load_series_file(empty_path); }, "series file is empty");
  std::filesystem::remove(empty_path);
}

// ---- merge --------------------------------------------------------------

obs::SeriesDoc doc_with(const std::string& name,
                        const std::vector<obs::SeriesPoint>& points,
                        std::int64_t anchor) {
  obs::SeriesDoc doc;
  obs::Series s;
  s.name = name;
  s.points = points;
  doc.series.push_back(std::move(s));
  doc.epoch_anchor_us = anchor;
  return doc;
}

TEST(SeriesMergeTest, TagsUntaggedSeriesWithTheDocumentLabel) {
  const obs::SeriesDoc a = doc_with("train.loss", {{1, 0.5, 10}}, 100);
  const obs::SeriesDoc b = doc_with("train.loss", {{1, 0.25, 20}}, 50);
  const obs::SeriesDoc merged =
      obs::merge_series({{"worker0", a}, {"worker1", b}});
  ASSERT_EQ(merged.series.size(), 2u);
  EXPECT_EQ(merged.series[0].source, "worker0");
  EXPECT_EQ(merged.series[1].source, "worker1");
  // Earliest nonzero anchor wins.
  EXPECT_EQ(merged.epoch_anchor_us, 50);
}

TEST(SeriesMergeTest, MergeIsAssociativeBecauseTagsStick) {
  const obs::SeriesDoc a = doc_with("s", {{1, 1.0, 0}}, 30);
  const obs::SeriesDoc b = doc_with("s", {{1, 2.0, 0}}, 20);
  const obs::SeriesDoc c = doc_with("s", {{1, 3.0, 0}}, 10);
  const obs::SeriesDoc flat =
      obs::merge_series({{"x", a}, {"y", b}, {"z", c}});
  // merge(merge(A, B), C): the inner result's series are already
  // tagged x/y, so the outer label "inner" never applies to them.
  const obs::SeriesDoc nested = obs::merge_series(
      {{"inner", obs::merge_series({{"x", a}, {"y", b}})}, {"z", c}});
  EXPECT_EQ(render(flat.series, flat.epoch_anchor_us),
            render(nested.series, nested.epoch_anchor_us));
}

TEST(SeriesMergeTest, SameNameAndSourceConcatenatesInInputOrder) {
  obs::SeriesDoc tagged;
  obs::Series s;
  s.name = "s";
  s.source = "w";
  s.points = {{1, 1.0, 0}};
  tagged.series.push_back(s);
  obs::SeriesDoc tagged2 = tagged;
  tagged2.series[0].points = {{2, 2.0, 0}};
  const obs::SeriesDoc merged =
      obs::merge_series({{"a", tagged}, {"b", tagged2}});
  ASSERT_EQ(merged.series.size(), 1u);
  ASSERT_EQ(merged.series[0].points.size(), 2u);
  EXPECT_EQ(merged.series[0].points[0].step, 1);
  EXPECT_EQ(merged.series[0].points[1].step, 2);
}

TEST(SeriesMergeTest, EmptyInputAndDuplicateLabelsAreNamedErrors) {
  expect_throw_containing<std::invalid_argument>(
      [] { obs::merge_series({}); }, "no documents");
  const obs::SeriesDoc a = doc_with("s", {{1, 1.0, 0}}, 0);
  expect_throw_containing<std::invalid_argument>(
      [&] { obs::merge_series({{"w", a}, {"w", a}}); }, "duplicate label");
}

// ---- registry sampler ---------------------------------------------------

/// Each sampler test starts from a metric-free registry so ordinals and
/// series sets are exact; clear_for_testing invalidates references other
/// tests held, which none of this binary's tests keep across TESTs.
class SamplerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(true);
    obs::Registry::instance().clear_for_testing();
  }
  void TearDown() override {
    obs::Registry::instance().clear_for_testing();
    obs::set_enabled(false);
  }
};

TEST_F(SamplerTest, StepsAreSampleOrdinalsAndCountersAreDeltas) {
  obs::SeriesRecorder recorder;
  obs::RegistrySampler sampler(recorder);
  obs::counter("t.work").add(5);
  obs::gauge("t.level").set(2.5);
  sampler.sample_once();
  obs::counter("t.work").add(3);
  obs::gauge("t.level").set(1.5);
  sampler.sample_once();
  sampler.sample_once();  // no change: delta 0, gauge repeated

  const std::vector<obs::Series> series = recorder.snapshot();
  ASSERT_EQ(series.size(), 2u);
  EXPECT_EQ(series[0].name, "registry.t.level");
  EXPECT_EQ(series[1].name, "registry.t.work");
  ASSERT_EQ(series[1].points.size(), 3u);
  // Step keys are the sample ordinals — 0, 1, 2 — regardless of when
  // the samples were taken; the wall clock is display data only.
  EXPECT_EQ(series[1].points[0].step, 0);
  EXPECT_EQ(series[1].points[1].step, 1);
  EXPECT_EQ(series[1].points[2].step, 2);
  EXPECT_DOUBLE_EQ(series[1].points[0].value, 5.0);  // first = absolute
  EXPECT_DOUBLE_EQ(series[1].points[1].value, 3.0);  // then deltas
  EXPECT_DOUBLE_EQ(series[1].points[2].value, 0.0);
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 1.5);  // gauges: instantaneous
}

TEST_F(SamplerTest, EmptyRegistryRecordsNothingAndConsumesNoStep) {
  obs::SeriesRecorder recorder;
  obs::RegistrySampler sampler(recorder);
  sampler.sample_once();
  sampler.sample_once();
  EXPECT_TRUE(recorder.empty());
  // The first real sample still lands on step 0: empty samples did not
  // consume ordinals, so late-enabled metrics stay aligned from zero.
  obs::counter("t.late").add(1);
  sampler.sample_once();
  const std::vector<obs::Series> series = recorder.snapshot();
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 1u);
  EXPECT_EQ(series[0].points[0].step, 0);
}

TEST_F(SamplerTest, CounterResetRestartsTheDelta) {
  obs::SeriesRecorder recorder;
  obs::RegistrySampler sampler(recorder);
  obs::counter("t.c").add(10);
  sampler.sample_once();
  obs::Registry::instance().reset();  // bench-style mid-run reset
  obs::counter("t.c").add(4);
  sampler.sample_once();
  const std::vector<obs::Series> series = recorder.snapshot();
  ASSERT_EQ(series.size(), 1u);
  ASSERT_EQ(series[0].points.size(), 2u);
  EXPECT_DOUBLE_EQ(series[0].points[0].value, 10.0);
  // 4 < 10: treated as a restart, recorded as the new absolute value.
  EXPECT_DOUBLE_EQ(series[0].points[1].value, 4.0);
}

}  // namespace
