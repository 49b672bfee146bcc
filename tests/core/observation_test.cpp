#include "core/observation.h"

#include <gtest/gtest.h>

#include <cmath>

#include "context_fixture.h"

namespace rlbf::core {
namespace {

using testing::ContextFixture;
using testing::make_job;

/// Machine 10. Job0 runs 6 procs until t=100 (4 free). Queue: job1
/// (rjob, 10 procs, blocked; shadow 100, extra 0), job2 (2 procs, runs
/// 50: finishes exactly at the shadow), job3 (2 procs, runs 200: would
/// overrun the reservation), job4 (4 procs, runs 30: fits easily).
ContextFixture standard_fixture() {
  return ContextFixture(
      {make_job(1, 0, 100, 6, 100), make_job(2, 10, 100, 10, 100),
       make_job(3, 20, 50, 2, 50), make_job(4, 30, 200, 2, 200),
       make_job(5, 40, 30, 4, 30)},
      10, {{0, 0}}, {1, 2, 3, 4}, 50);
}

TEST(Observation, RowsFollowSubmitOrderAndMaskCandidates) {
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder{ObservationConfig{}};
  const auto ctx = fx.context();
  const PolicyObservation po = builder.build_policy(ctx);

  ASSERT_EQ(po.obs.rows(), 4u);  // no padding by default
  ASSERT_EQ(po.mask.size(), 4u);
  // Row 0 is the rjob (earliest submit): present but masked.
  EXPECT_DOUBLE_EQ(po.obs.at(0, 7), 1.0);
  EXPECT_EQ(po.mask[0], 0);
  EXPECT_EQ(po.row_to_candidate[0], kNoCandidate);
  // Rows 1..3 are the three feasible candidates.
  for (std::size_t r = 1; r < 4; ++r) {
    EXPECT_EQ(po.mask[r], 1) << r;
    ASSERT_NE(po.row_to_candidate[r], kNoCandidate);
    EXPECT_EQ(ctx.candidates[po.row_to_candidate[r]], fx.queue[r]);
  }
  EXPECT_TRUE(po.any_selectable());
}

TEST(Observation, FeatureValuesAreComputedPerJob) {
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder{ObservationConfig{}};
  const PolicyObservation po = builder.build_policy(fx.context());

  const double week = std::log1p(7.0 * 24.0 * 3600.0);
  // Row 1 = job2: wait = 50 - 20 = 30; request 50; 2/10 procs; fits.
  EXPECT_NEAR(po.obs.at(1, 0), std::log1p(30.0) / week, 1e-12);
  EXPECT_NEAR(po.obs.at(1, 1), std::log1p(50.0) / week, 1e-12);
  EXPECT_NEAR(po.obs.at(1, 2), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(po.obs.at(1, 3), 1.0);
  // Free fraction is appended to every row (4 of 10 procs free).
  for (std::size_t r = 0; r < po.obs.rows(); ++r) {
    EXPECT_DOUBLE_EQ(po.obs.at(r, 6), 0.4);
  }
}

TEST(Observation, SlackFeatureSignalsEasyFit) {
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder{ObservationConfig{}};
  const PolicyObservation po = builder.build_policy(fx.context());
  // Shadow is 100, now 50 -> gap 50. Job2 (est 50) fits exactly: slack 0.
  EXPECT_NEAR(po.obs.at(1, 5), 0.0, 1e-12);
  // Job3 (est 200) overshoots: negative slack, clamped to -1.
  EXPECT_DOUBLE_EQ(po.obs.at(2, 5), -1.0);
  // Job4 (est 30) fits with room: positive slack.
  EXPECT_GT(po.obs.at(3, 5), 0.0);
}

TEST(Observation, AdmissibleOnlyMasksDelayingCandidates) {
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder{ObservationConfig{}};
  const PolicyObservation po =
      builder.build_policy(fx.context(), /*admissible_only=*/true);
  EXPECT_EQ(po.mask[1], 1);  // job2 finishes by the shadow
  EXPECT_EQ(po.mask[2], 0);  // job3 would overrun and extra procs are 0
  EXPECT_EQ(po.mask[3], 1);  // job4 fits
}

TEST(Observation, TruncationKeepsEarliestSubmitted) {
  ObservationConfig cfg;
  cfg.max_obsv_size = 2;
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const PolicyObservation po = builder.build_policy(fx.context());
  ASSERT_EQ(po.obs.rows(), 2u);
  // Kept rows: rjob (submit 10) and job2 (submit 20); the rjob is
  // masked, so only one selectable action remains.
  EXPECT_EQ(po.mask[0], 0);
  EXPECT_EQ(po.mask[1], 1);
}

TEST(Observation, AllCandidatesTruncatedMeansNoneSelectable) {
  ObservationConfig cfg;
  cfg.max_obsv_size = 1;  // only the rjob survives the cutoff
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const PolicyObservation po = builder.build_policy(fx.context());
  EXPECT_FALSE(po.any_selectable());
}

TEST(Observation, PaddingProducesFixedRowCount) {
  ObservationConfig cfg;
  cfg.max_obsv_size = 16;
  cfg.pad_policy_obs = true;
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const PolicyObservation po = builder.build_policy(fx.context());
  ASSERT_EQ(po.obs.rows(), 16u);
  for (std::size_t r = 4; r < 16; ++r) {
    EXPECT_EQ(po.mask[r], 0);
    EXPECT_EQ(po.row_to_candidate[r], kNoCandidate);
    for (std::size_t c = 0; c < ObservationConfig::kFeatures; ++c) {
      EXPECT_DOUBLE_EQ(po.obs.at(r, c), 0.0);
    }
  }
}

TEST(Observation, ValueObservationHasFixedShape) {
  ObservationConfig cfg;
  cfg.value_obsv_size = 8;
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const nn::Tensor v = builder.build_value(fx.context());
  EXPECT_EQ(v.rows(), 1u);
  EXPECT_EQ(v.cols(), 8u * ObservationConfig::kFeatures);
  // First job's features are present; padding slots are zero.
  EXPECT_GT(v.at(0, 1), 0.0);  // rjob request time
  EXPECT_DOUBLE_EQ(v.at(0, 4 * ObservationConfig::kFeatures + 1), 0.0);
}

TEST(Observation, ValueObservationTruncatesLikePolicy) {
  ObservationConfig cfg;
  cfg.value_obsv_size = 2;
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const nn::Tensor v = builder.build_value(fx.context());
  EXPECT_EQ(v.cols(), 2u * ObservationConfig::kFeatures);
}

TEST(Observation, StopRowAppendedWhenEnabled) {
  ObservationConfig cfg;
  cfg.stop_action = true;
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const PolicyObservation po = builder.build_policy(fx.context());
  ASSERT_EQ(po.obs.rows(), 5u);  // 4 queued jobs + stop
  const std::size_t stop = 4;
  EXPECT_EQ(po.mask[stop], 1);
  EXPECT_EQ(po.row_to_candidate[stop], kStopAction);
  EXPECT_DOUBLE_EQ(po.obs.at(stop, 8), 1.0);   // stop flag
  EXPECT_DOUBLE_EQ(po.obs.at(stop, 6), 0.4);   // free fraction still present
  // No job row carries the stop flag.
  for (std::size_t r = 0; r < stop; ++r) EXPECT_DOUBLE_EQ(po.obs.at(r, 8), 0.0);
}

TEST(Observation, StopRowHonoursADisabledFreeFraction) {
  ObservationConfig cfg;
  cfg.stop_action = true;
  cfg.feature_mask = 0x3FFu & ~(1u << 6);
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  PolicyObservation full;
  PolicyObservation selectable;
  builder.build_policy_into(fx.context(), full, false);
  builder.build_selectable_into(fx.context(), selectable);
  for (const PolicyObservation* po : {&full, &selectable}) {
    ASSERT_EQ(po->row_to_candidate.back(), kStopAction);
    EXPECT_DOUBLE_EQ(po->obs.at(po->obs.rows() - 1, 8), 1.0);
    for (std::size_t r = 0; r < po->obs.rows(); ++r) {
      EXPECT_EQ(po->obs.at(r, 6), 0.0) << "row " << r;
    }
  }
}

TEST(Observation, StopRowAtFixedIndexWhenPadded) {
  ObservationConfig cfg;
  cfg.stop_action = true;
  cfg.max_obsv_size = 8;
  cfg.pad_policy_obs = true;
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const PolicyObservation po = builder.build_policy(fx.context());
  ASSERT_EQ(po.obs.rows(), cfg.padded_policy_rows());
  EXPECT_EQ(po.obs.rows(), 9u);
  EXPECT_EQ(po.row_to_candidate[8], kStopAction);
  EXPECT_EQ(po.mask[8], 1);
}

TEST(Observation, StopRowAlwaysSelectableEvenWhenJobsAreNot) {
  ObservationConfig cfg;
  cfg.stop_action = true;
  cfg.max_obsv_size = 1;  // truncate every candidate away
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const PolicyObservation po = builder.build_policy(fx.context());
  EXPECT_TRUE(po.any_selectable());
  EXPECT_EQ(po.row_to_candidate[po.obs.rows() - 1], kStopAction);
}

TEST(Observation, MaskInadmissibleConfigAppliesWithoutExplicitFlag) {
  ObservationConfig cfg;
  cfg.mask_inadmissible = true;
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder(cfg);
  const PolicyObservation po = builder.build_policy(fx.context());
  EXPECT_EQ(po.mask[2], 0);  // job3 would overrun the reservation
  EXPECT_EQ(po.mask[1], 1);
}

TEST(Observation, FitRatioFeature) {
  const ContextFixture fx = standard_fixture();
  const ObservationBuilder builder{ObservationConfig{}};
  const PolicyObservation po = builder.build_policy(fx.context());
  // 4 procs free. Row 1 = job2 (2 procs): ratio 0.5. Row 3 = job4
  // (4 procs): ratio 1.0. Row 0 = rjob (10 procs): clamped to 1.
  EXPECT_DOUBLE_EQ(po.obs.at(1, 9), 0.5);
  EXPECT_DOUBLE_EQ(po.obs.at(3, 9), 1.0);
  EXPECT_DOUBLE_EQ(po.obs.at(0, 9), 1.0);
}

TEST(Observation, FeatureDimsConsistent) {
  ObservationConfig cfg;
  cfg.value_obsv_size = 32;
  EXPECT_EQ(cfg.policy_feature_dim(), ObservationConfig::kFeatures);
  EXPECT_EQ(cfg.value_feature_dim(), 32u * ObservationConfig::kFeatures);
}

}  // namespace
}  // namespace rlbf::core
