// The deployed agent's decision path (RlBackfillChooser: reused
// observation and forward buffers; the kernel policy builds only the
// selectable rows) against the allocating reference (the full
// build_policy + policy_logits_nograd + argmax_masked) at every decision
// of whole simulations, across the observation options and both model
// kinds; plus the selectable-row builder against the full one, row for
// row, and the edge cases of the cut.
#include "core/rl_backfill.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <functional>
#include <limits>
#include <string>

#include "context_fixture.h"
#include "rl/ppo.h"
#include "sched/policies.h"
#include "sched/runtime_estimator.h"
#include "sched/scheduler.h"
#include "workload/presets.h"
#include "workload/transforms.h"

namespace rlbf::core {
namespace {

using testing::ContextFixture;
using testing::make_job;

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

AgentConfig agent_config(const Variant& v) {
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
  return cfg;
}

Agent make_agent(const Variant& v) { return Agent(agent_config(v), 41); }

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

/// Runs `check` on every decision, then lets `inner` pick.
class ProbeChooser final : public sim::BackfillChooser {
 public:
  ProbeChooser(sim::BackfillChooser& inner,
               std::function<void(const sim::BackfillContext&)> check)
      : inner_(inner), check_(std::move(check)) {}

  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override {
    check_(ctx);
    return inner_.choose(ctx);
  }
  std::string name() const override { return "probe"; }

 private:
  sim::BackfillChooser& inner_;
  std::function<void(const sim::BackfillContext&)> check_;
};

/// The selectable rows of a full observation, in row order: what
/// build_selectable_into must produce.
struct SelectableRows {
  std::vector<double> features;
  std::vector<std::size_t> candidates;
};

SelectableRows selectable_rows(const PolicyObservation& po) {
  constexpr std::size_t kF = ObservationConfig::kFeatures;
  SelectableRows out;
  for (std::size_t r = 0; r < po.mask.size(); ++r) {
    if (!po.mask[r]) continue;
    const double* row = po.obs.data().data() + r * kF;
    out.features.insert(out.features.end(), row, row + kF);
    out.candidates.push_back(po.row_to_candidate[r]);
  }
  return out;
}

TEST(DecisionPath, SelectableBuildIsTheFullBuildsSelectableRows) {
  sched::RequestTimeEstimator estimator;
  std::size_t decisions = 0;
  std::size_t cut_rows = 0;
  for (const bool pad : {false, true}) {
    for (const bool stop : {false, true}) {
      for (const bool mask : {false, true}) {
        // All features, and slack (feature 5) cleared.
        for (const std::uint32_t features : {0x3FFu, 0x3DFu}) {
          AgentConfig cfg;
          cfg.obs.max_obsv_size = kObserved;
          cfg.obs.value_obsv_size = 4;
          cfg.obs.pad_policy_obs = pad;
          cfg.obs.stop_action = stop;
          cfg.obs.mask_inadmissible = mask;
          cfg.obs.feature_mask = features;
          const Agent agent(cfg, 43);
          const ObservationBuilder& builder = agent.observer();
          const std::string where = "pad=" + std::to_string(pad) +
                                    " stop=" + std::to_string(stop) +
                                    " mask=" + std::to_string(mask) +
                                    " features=" + std::to_string(features);
          PolicyObservation full;
          PolicyObservation cut;
          std::size_t mismatches = 0;
          const auto check = [&](const sim::BackfillContext& ctx) {
            builder.build_policy_into(ctx, full);
            builder.build_selectable_into(ctx, cut);
            const SelectableRows want = selectable_rows(full);
            const std::size_t rows = want.candidates.size();
            const bool same =
                cut.obs.rows() == rows &&
                cut.obs.cols() == ObservationConfig::kFeatures &&
                cut.mask == std::vector<std::uint8_t>(rows, 1) &&
                cut.row_to_candidate == want.candidates &&
                (want.features.empty() ||
                 std::memcmp(cut.obs.data().data(), want.features.data(),
                             want.features.size() * sizeof(double)) == 0);
            if (!same) ++mismatches;
            ++decisions;
            cut_rows += full.obs.rows() - rows;
          };
          for (const char* policy_name : {"FCFS", "SJF"}) {
            const auto policy = sched::make_policy(policy_name);
            for (const std::uint64_t seed : {51u, 52u, 53u}) {
              const swf::Trace trace = workload::scale_load(
                  workload::sdsc_sp2_like(seed, 300), seed == 53u ? 0.5 : 8.0);
              RlBackfillChooser chooser(agent);
              ProbeChooser probe(chooser, check);
              sched::run_schedule(trace, *policy, estimator, &probe);
            }
          }
          EXPECT_EQ(mismatches, 0u) << where;
        }
      }
    }
  }
  EXPECT_GT(decisions, 0u);
  EXPECT_GT(cut_rows, 0u);  // the cut is exercised, not vacuous
}

/// The first selectable row's candidate of the full observation.
std::optional<std::size_t> first_selectable(const PolicyObservation& po) {
  for (std::size_t r = 0; r < po.mask.size(); ++r) {
    if (!po.mask[r]) continue;
    if (po.row_to_candidate[r] == kStopAction) return std::nullopt;
    return po.row_to_candidate[r];
  }
  return std::nullopt;
}

TEST(DecisionPath, AllEqualLogitsPickTheFirstSelectableRow) {
  sched::RequestTimeEstimator estimator;
  const auto policy = sched::make_policy("SJF");
  const swf::Trace deep = deep_trace();
  for (const Variant& v : variants()) {
    AgentConfig cfg = agent_config(v);
    // A zeroed output layer scores every row 0: every decision is a tie.
    cfg.net.policy_output_scale = 0.0;
    const Agent agent(cfg, 41);
    GreedyBuffers buffers;
    std::size_t mismatches = 0;
    std::size_t picks = 0;
    const auto check = [&](const sim::BackfillContext& ctx) {
      const PolicyObservation po = agent.observer().build_policy(ctx);
      const std::optional<std::size_t> want = first_selectable(po);
      if (want.has_value()) ++picks;
      std::optional<std::size_t> reference;
      if (po.any_selectable()) {
        const nn::Tensor logits = agent.model().policy_logits_nograd(po.obs);
        reference = po.row_to_candidate[rl::argmax_masked(logits, po.mask)];
        if (reference == kStopAction) reference = std::nullopt;
      }
      if (agent.choose_greedy(ctx, buffers) != want || reference != want) ++mismatches;
    };
    RlBackfillChooser chooser(agent);
    ProbeChooser probe(chooser, check);
    sched::run_schedule(deep, *policy, estimator, &probe);
    EXPECT_EQ(mismatches, 0u) << describe(v);
    EXPECT_GT(picks, 0u) << describe(v);
  }
}

/// Machine 10; job0 runs 6 procs until t=100 (4 free). The rjob (job1,
/// 10 procs) is blocked; jobs 2..4 (8 procs) do not fit; job5 (2 procs,
/// 30 s) fits, fifth in submit order.
ContextFixture candidate_beyond_the_cut() {
  return ContextFixture(
      {make_job(1, 0, 100, 6, 100), make_job(2, 10, 100, 10, 100),
       make_job(3, 20, 50, 8, 50), make_job(4, 30, 50, 8, 50),
       make_job(5, 35, 50, 8, 50), make_job(6, 40, 30, 2, 30)},
      10, {{0, 0}}, {1, 2, 3, 4, 5}, 50);
}

/// As above, but the one candidate (2 procs, 200 s) would overrun the
/// rjob's reservation at t=100, which leaves no extra procs.
ContextFixture only_an_inadmissible_candidate() {
  return ContextFixture(
      {make_job(1, 0, 100, 6, 100), make_job(2, 10, 100, 10, 100),
       make_job(3, 20, 200, 2, 200)},
      10, {{0, 0}}, {1, 2}, 50);
}

AgentConfig fixture_config(bool kernel) {
  AgentConfig cfg;
  cfg.kernel_policy = kernel;
  cfg.obs.max_obsv_size = 4;
  cfg.obs.value_obsv_size = 4;
  cfg.obs.pad_policy_obs = !kernel;
  return cfg;
}

TEST(DecisionPath, DeclinesWhenTheOnlyCandidateIsBeyondTheCut) {
  const ContextFixture fx = candidate_beyond_the_cut();
  ASSERT_EQ(fx.candidates, std::vector<std::size_t>{5});
  for (const bool kernel : {true, false}) {
    GreedyBuffers buffers;
    const Agent cut(fixture_config(kernel), 7);
    EXPECT_EQ(cut.choose_greedy(fx.context(), buffers), std::nullopt) << kernel;
    AgentConfig wider = fixture_config(kernel);
    wider.obs.max_obsv_size = 5;
    const Agent seen(wider, 7);
    EXPECT_EQ(seen.choose_greedy(fx.context(), buffers), std::optional<std::size_t>(0))
        << kernel;
  }
}

TEST(DecisionPath, DeclinesWhenMaskingLeavesNoAdmissibleCandidate) {
  const ContextFixture fx = only_an_inadmissible_candidate();
  ASSERT_EQ(fx.candidates, std::vector<std::size_t>{2});
  for (const bool kernel : {true, false}) {
    GreedyBuffers buffers;
    AgentConfig cfg = fixture_config(kernel);
    const Agent unmasked(cfg, 7);
    EXPECT_EQ(unmasked.choose_greedy(fx.context(), buffers),
              std::optional<std::size_t>(0))
        << kernel;
    cfg.obs.mask_inadmissible = true;
    const Agent masked(cfg, 7);
    EXPECT_EQ(masked.choose_greedy(fx.context(), buffers), std::nullopt) << kernel;
  }
}

/// The message of the std::runtime_error choose_greedy throws, or "".
std::string greedy_error(const Agent& agent, const sim::BackfillContext& ctx) {
  GreedyBuffers buffers;
  try {
    agent.choose_greedy(ctx, buffers);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(DecisionPath, NanModelStillThrowsOnTheCutPath) {
  for (const bool kernel : {true, false}) {
    AgentConfig cfg = fixture_config(kernel);
    cfg.obs.max_obsv_size = 8;
    // NaN output weights and bias: every logit is NaN.
    cfg.net.policy_output_scale = std::numeric_limits<double>::quiet_NaN();
    const Agent agent(cfg, 7);
    // A one-row decision (one candidate, the rjob and non-fitting jobs
    // cut) still runs its forward pass and its check.
    EXPECT_EQ(greedy_error(agent, candidate_beyond_the_cut().context()),
              "argmax_masked: no finite logit among 1 selectable rows")
        << kernel;
    const ContextFixture several(
        {make_job(1, 0, 100, 6, 100), make_job(2, 10, 100, 10, 100),
         make_job(3, 20, 50, 2, 50), make_job(4, 30, 200, 2, 200),
         make_job(5, 40, 30, 4, 30)},
        10, {{0, 0}}, {1, 2, 3, 4}, 50);
    EXPECT_EQ(greedy_error(agent, several.context()),
              "argmax_masked: no finite logit among 3 selectable rows")
        << kernel;
  }
}

}  // namespace
}  // namespace rlbf::core
