// Observation feature masking (ablation A9's mechanism).
#include <gtest/gtest.h>

#include "core/agent.h"
#include "core/observation.h"
#include "sched/policies.h"
#include "sched/runtime_estimator.h"
#include "sim/event_sim.h"

#include <cstdio>
#include <filesystem>

namespace rlbf::core {
namespace {

swf::Job make_job(std::int64_t id, std::int64_t submit, std::int64_t run,
                  std::int64_t procs, std::int64_t request) {
  swf::Job j;
  j.id = id;
  j.submit_time = submit;
  j.run_time = run;
  j.requested_procs = procs;
  j.requested_time = request;
  return j;
}

/// A minimal blocked-head scenario providing a live BackfillContext.
struct Scenario {
  swf::Trace trace{"s", 8,
                   {make_job(1, 0, 100, 6, 150), make_job(2, 1, 100, 8, 150),
                    make_job(3, 2, 10, 2, 20)}};
  sim::ClusterState cluster{8};
  sched::RequestTimeEstimator estimator;
  std::vector<std::size_t> queue{1, 2};
  std::vector<std::size_t> candidates{2};
  sim::Reservation reservation;
  std::int64_t now = 5;
  mutable sim::FeatureCache cache{trace.size()};

  Scenario() {
    cluster.start(0, 6, 0, 100);
    std::vector<sim::RunningJob> scratch;
    reservation =
        sim::compute_reservation(cluster, trace, trace[1], estimator, now, cache, scratch);
  }

  sim::BackfillContext ctx() const {
    cache.begin_decision();
    return sim::BackfillContext{trace,       cluster, estimator,  now,  1,
                                reservation, queue,   candidates, cache};
  }
};

TEST(FeatureMask, DefaultEnablesAllFeatures) {
  ObservationConfig cfg;
  for (std::size_t f = 0; f < ObservationConfig::kFeatures; ++f) {
    EXPECT_TRUE(cfg.feature_enabled(f));
  }
}

TEST(FeatureMask, DisabledFeatureReadsZeroEverywhere) {
  Scenario s;
  ObservationConfig cfg;
  cfg.max_obsv_size = 8;
  ObservationBuilder full(cfg);
  cfg.feature_mask = 0x3FFu & ~(1u << 1);  // drop requested time
  ObservationBuilder masked(cfg);

  const auto po_full = full.build_policy(s.ctx());
  const auto po_masked = masked.build_policy(s.ctx());
  ASSERT_EQ(po_full.obs.rows(), po_masked.obs.rows());
  bool full_has_nonzero = false;
  for (std::size_t r = 0; r < po_full.obs.rows(); ++r) {
    if (po_full.obs.at(r, 1) != 0.0) full_has_nonzero = true;
    EXPECT_EQ(po_masked.obs.at(r, 1), 0.0);
    // Other features are untouched.
    EXPECT_EQ(po_masked.obs.at(r, 0), po_full.obs.at(r, 0));
    EXPECT_EQ(po_masked.obs.at(r, 4), po_full.obs.at(r, 4));
  }
  EXPECT_TRUE(full_has_nonzero);
}

TEST(FeatureMask, MaskingDoesNotChangeShapesOrMask) {
  Scenario s;
  ObservationConfig cfg;
  cfg.max_obsv_size = 8;
  cfg.feature_mask = 1;  // only feature 0 survives
  ObservationBuilder builder(cfg);
  const auto po = builder.build_policy(s.ctx());
  EXPECT_EQ(po.obs.cols(), ObservationConfig::kFeatures);
  EXPECT_TRUE(po.any_selectable());
  const auto value = builder.build_value(s.ctx());
  EXPECT_EQ(value.cols(), cfg.value_feature_dim());
}

TEST(FeatureMask, ValueObservationIsMaskedToo) {
  Scenario s;
  ObservationConfig cfg;
  cfg.value_obsv_size = 4;
  cfg.feature_mask = 0x3FFu & ~(1u << 2);  // drop requested procs
  ObservationBuilder builder(cfg);
  const auto value = builder.build_value(s.ctx());
  // Flattened layout: row r feature f at index r * kFeatures + f.
  for (std::size_t r = 0; r < cfg.value_obsv_size; ++r) {
    EXPECT_EQ(value.at(0, r * ObservationConfig::kFeatures + 2), 0.0);
  }
}

TEST(FeatureMask, StopRowIndicatorCannotBeDisabled) {
  ObservationConfig cfg;
  cfg.stop_action = true;
  cfg.feature_mask = 0x3FFu & ~(1u << 8);
  EXPECT_THROW(ObservationBuilder{cfg}, std::invalid_argument);
}

TEST(FeatureMask, SurvivesAgentSaveLoadRoundTrip) {
  AgentConfig cfg;
  cfg.obs.value_obsv_size = 4;
  cfg.obs.feature_mask = 0x2A5;
  const Agent agent(cfg, /*seed=*/5);
  const std::string path =
      (std::filesystem::temp_directory_path() / "rlbf_feature_mask.model").string();
  ASSERT_TRUE(agent.save(path));
  const Agent loaded = Agent::load(path);
  EXPECT_EQ(loaded.config().obs.feature_mask, 0x2A5u);
  std::remove(path.c_str());
}

TEST(FeatureMask, AgentsWithDifferentMasksScoreDifferently) {
  Scenario s;
  AgentConfig cfg;
  cfg.obs.max_obsv_size = 8;
  cfg.obs.value_obsv_size = 4;
  const Agent full(cfg, /*seed=*/3);
  cfg.obs.feature_mask = 1;  // nearly blind agent
  const Agent blind(cfg, /*seed=*/3);  // same weights, different inputs
  const auto po_full = full.observer().build_policy(s.ctx());
  const auto po_blind = blind.observer().build_policy(s.ctx());
  const nn::Tensor logits_full = full.model().policy_logits_nograd(po_full.obs);
  const nn::Tensor logits_blind = blind.model().policy_logits_nograd(po_blind.obs);
  EXPECT_GT(nn::Tensor::max_abs_diff(logits_full, logits_blind), 0.0);
}

}  // namespace
}  // namespace rlbf::core
