// The deployed agent's decision path (RlBackfillChooser: reused
// observation and forward buffers) against the allocating reference
// (build_policy + policy_logits_nograd + argmax_masked) at every decision
// of whole simulations, across the observation options and both model
// kinds.
#include "core/rl_backfill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "rl/ppo.h"
#include "sched/policies.h"
#include "sched/runtime_estimator.h"
#include "sched/scheduler.h"
#include "workload/presets.h"
#include "workload/transforms.h"

namespace rlbf::core {
namespace {

/// Lets the chooser under test decide first (so it sorts the queue
/// itself), then replays the decision through the reference path.
class ParityChooser final : public sim::BackfillChooser {
 public:
  ParityChooser(const Agent& agent, RlBackfillChooser& inner)
      : agent_(agent), inner_(inner) {}

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override {
    const std::optional<std::size_t> pick = inner_.choose(ctx);
    ++decisions;
    if (pick.has_value()) ++picks;
    if (pick != reference(ctx)) ++mismatches;
    max_queue = std::max(max_queue, ctx.queue.size());
    return pick;
  }
  std::string name() const override { return "parity"; }

  std::size_t decisions = 0;
  std::size_t picks = 0;
  std::size_t mismatches = 0;
  std::size_t max_queue = 0;

 private:
  std::optional<std::size_t> reference(const sim::BackfillContext& ctx) const {
    const PolicyObservation po = agent_.observer().build_policy(ctx);
    if (!po.any_selectable()) return std::nullopt;
    const nn::Tensor logits = agent_.model().policy_logits_nograd(po.obs);
    const std::size_t candidate = po.row_to_candidate[rl::argmax_masked(logits, po.mask)];
    if (candidate == kStopAction) return std::nullopt;
    return candidate;
  }

  const Agent& agent_;
  RlBackfillChooser& inner_;
};

constexpr std::size_t kObserved = 24;

/// Queues far deeper than kObserved (the cut-off and padding paths), and
/// queues that stay shallow.
swf::Trace deep_trace() {
  return workload::scale_load(workload::sdsc_sp2_like(31, 500), 12.0);
}
swf::Trace shallow_trace() {
  return workload::scale_load(workload::sdsc_sp2_like(32, 300), 0.3);
}

struct Variant {
  bool kernel;
  bool pad;
  bool stop;
  bool mask;
};

std::vector<Variant> variants() {
  std::vector<Variant> out;
  for (const bool kernel : {true, false}) {
    for (const bool pad : {false, true}) {
      if (!kernel && !pad) continue;  // the flat model needs padding
      for (const bool stop : {false, true}) {
        for (const bool mask : {false, true}) out.push_back({kernel, pad, stop, mask});
      }
    }
  }
  return out;
}

std::string describe(const Variant& v) {
  return std::string(v.kernel ? "kernel" : "flat") + " pad=" + std::to_string(v.pad) +
         " stop=" + std::to_string(v.stop) + " mask=" + std::to_string(v.mask);
}

Agent make_agent(const Variant& v) {
  AgentConfig cfg;
  cfg.kernel_policy = v.kernel;
  cfg.obs.max_obsv_size = kObserved;
  cfg.obs.value_obsv_size = 4;
  cfg.obs.pad_policy_obs = v.pad;
  cfg.obs.stop_action = v.stop;
  cfg.obs.mask_inadmissible = v.mask;
  // A larger output scale spreads the logits, so the argmax is decided
  // by the network rather than by near-ties.
  cfg.net.policy_output_scale = 1.0;
  return Agent(cfg, 41);
}

bool same_schedule(const std::vector<sim::JobResult>& a,
                   const std::vector<sim::JobResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].job_index != b[i].job_index || a[i].start_time != b[i].start_time ||
        a[i].end_time != b[i].end_time || a[i].backfilled != b[i].backfilled) {
      return false;
    }
  }
  return true;
}

TEST(DecisionPath, ChooserMatchesReferenceAtEveryDecision) {
  sched::RequestTimeEstimator estimator;
  const swf::Trace deep = deep_trace();
  const swf::Trace shallow = shallow_trace();
  for (const Variant& v : variants()) {
    const Agent agent = make_agent(v);
    // SJF keeps the queue out of submit order, so the observation sorts.
    for (const char* policy_name : {"FCFS", "SJF"}) {
      const auto policy = sched::make_policy(policy_name);
      RlBackfillChooser chooser(agent);
      for (const swf::Trace* trace : {&deep, &shallow}) {
        ParityChooser parity(agent, chooser);
        sched::run_schedule(*trace, *policy, estimator, &parity);
        const std::string where = describe(v) + " " + policy_name +
                                  (trace == &deep ? " deep" : " shallow");
        EXPECT_EQ(parity.mismatches, 0u) << where;
        EXPECT_GT(parity.decisions, 0u) << where;
        EXPECT_GT(parity.picks, 0u) << where;
        if (trace == &deep) {
          EXPECT_GT(parity.max_queue, 2 * kObserved) << where;
        }
      }
    }
  }
}

TEST(DecisionPath, ReusedChooserSchedulesLikeFreshOnes) {
  sched::RequestTimeEstimator estimator;
  const auto policy = sched::make_policy("FCFS");
  const swf::Trace deep = deep_trace();
  const swf::Trace shallow = shallow_trace();
  for (const Variant& v : variants()) {
    const Agent agent = make_agent(v);
    RlBackfillChooser reused(agent);
    const auto deep_reused = sched::run_schedule(deep, *policy, estimator, &reused);
    const auto shallow_reused = sched::run_schedule(shallow, *policy, estimator, &reused);
    RlBackfillChooser fresh_deep(agent);
    RlBackfillChooser fresh_shallow(agent);
    const auto deep_fresh = sched::run_schedule(deep, *policy, estimator, &fresh_deep);
    const auto shallow_fresh =
        sched::run_schedule(shallow, *policy, estimator, &fresh_shallow);
    EXPECT_TRUE(same_schedule(deep_reused.results, deep_fresh.results)) << describe(v);
    EXPECT_TRUE(same_schedule(shallow_reused.results, shallow_fresh.results))
        << describe(v);
  }
}

}  // namespace
}  // namespace rlbf::core
