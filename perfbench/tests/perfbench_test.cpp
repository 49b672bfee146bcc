// Tests of the benchmark's own code: the tracing wrappers leave every
// schedule and training epoch bit-identical, the tail percentile obeys
// the ten-beyond rule, metric names are well formed, and an invalid
// schedule or a changed digest counts as a failed unit.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <random>

#include "core/rl_backfill.h"
#include "core/trainer.h"
#include "harness.h"
#include "sched/scheduler.h"
#include "util/log.h"
#include "util/thread_pool.h"
#include "workload/presets.h"

namespace {

using namespace perfbench;
namespace core = rlbf::core;
namespace sched = rlbf::sched;
namespace sim = rlbf::sim;
namespace swf = rlbf::swf;

swf::Trace small_window() { return rlbf::workload::sdsc_sp2_like(1, 2000).window(100, 300); }

TEST(Wrappers, LeaveEverySchedulerBitIdentical) {
  const swf::Trace trace = small_window();
  const core::Agent agent(core::AgentConfig{}, 7);
  struct Case {
    const char* policy;
    std::unique_ptr<sim::BackfillChooser> chooser;
    bool agent;
  };
  std::vector<Case> cases;
  cases.push_back({"FCFS", std::make_unique<sched::EasyBackfillChooser>(), false});
  cases.push_back({"FCFS", std::make_unique<sched::ConservativeBackfillChooser>(), false});
  cases.push_back({"FCFS", std::make_unique<sched::SlackBackfillChooser>(), false});
  cases.push_back({"FCFS", std::make_unique<core::RlBackfillChooser>(agent), true});
  cases.push_back({"F1", std::make_unique<sched::EasyBackfillChooser>(), false});

  for (Case& c : cases) {
    SCOPED_TRACE(std::string(c.policy) + "+" + c.chooser->name());
    const auto policy = sched::make_policy(c.policy);
    const sched::RequestTimeEstimator estimator;
    const sched::ScheduleOutcome plain =
        sched::run_schedule(trace, *policy, estimator, c.chooser.get());

    LayerTrace lt;
    const TracedPolicy traced_policy(*policy, lt);
    const TracedEstimator traced_estimator(estimator, lt);
    TracedChooser traced_chooser(*c.chooser, lt, true, c.agent ? &agent : nullptr);
    const sched::ScheduleOutcome traced =
        sched::run_schedule(trace, traced_policy, traced_estimator, &traced_chooser);

    EXPECT_EQ(schedule_digest(plain.results), schedule_digest(traced.results));
    EXPECT_EQ(plain.metrics.avg_bounded_slowdown, traced.metrics.avg_bounded_slowdown);
    EXPECT_EQ(check_schedule(trace, traced.results), "");
    EXPECT_EQ(traced_policy.name(), policy->name());
    EXPECT_EQ(traced_policy.time_invariant(), policy->time_invariant());
    EXPECT_EQ(traced_chooser.name(), c.chooser->name());
    EXPECT_GT(lt.score_calls, 0u);
    EXPECT_GT(lt.choose_calls, 0u);
    EXPECT_EQ(lt.choose.calls, lt.choose_calls);
    EXPECT_EQ(lt.obs_build.calls, c.agent ? lt.choose_calls : 0u);
  }
}

TEST(Wrappers, LeaveTrainingEpochsBitIdentical) {
  rlbf::util::set_log_level(rlbf::util::LogLevel::Error);
  const swf::Trace trace = rlbf::workload::sdsc_sp2_like(1, 1000);
  core::TrainerConfig config;
  config.trajectories_per_epoch = 4;
  config.jobs_per_trajectory = 64;
  config.ppo.train_iters = 3;
  config.ppo.minibatch_size = 64;
  config.eval_every = 0;
  config.threads = 2;
  core::Trainer plain(trace, config);
  core::Trainer traced(trace, config);
  rlbf::util::ThreadPool pool(2);
  rlbf::rl::ThreadCollector inner(pool);
  LayerTrace lt;
  TracedCollector collector(inner, lt);
  traced.set_collector(&collector);
  for (int e = 0; e < 2; ++e) {
    const core::EpochStats a = plain.run_epoch();
    const core::EpochStats b = traced.run_epoch();
    EXPECT_EQ(a.steps, b.steps);
    EXPECT_EQ(double_bits(a.mean_bsld), double_bits(b.mean_bsld));
    EXPECT_EQ(double_bits(a.ppo.policy_loss), double_bits(b.ppo.policy_loss));
    EXPECT_EQ(double_bits(a.ppo.value_loss), double_bits(b.ppo.value_loss));
  }
  EXPECT_EQ(lt.collect.calls, 2u);
  EXPECT_EQ(lt.sequence.calls, 2u * config.trajectories_per_epoch);
  EXPECT_EQ(double_bits(plain.evaluate_greedy()), double_bits(traced.evaluate_greedy()));
}

TEST(TailPercentile, ReportedOnlyWithTenSamplesBeyond) {
  std::mt19937 rng(3);
  for (std::size_t n = 0; n <= 400; ++n) {
    std::vector<double> samples(n);
    std::iota(samples.begin(), samples.end(), 1.0);
    std::shuffle(samples.begin(), samples.end(), rng);
    const double p95 = percentile(samples, 0.95);
    const auto beyond = static_cast<std::size_t>(
        std::count_if(samples.begin(), samples.end(), [&](double x) { return x > p95; }));
    const std::optional<double> tail = tail_percentile(samples, 0.95);
    EXPECT_EQ(tail.has_value(), beyond >= 10) << "n=" << n;
    if (tail.has_value()) {
      EXPECT_EQ(*tail, p95);
    }
  }
  EXPECT_FALSE(tail_percentile(std::vector<double>(100, 1.0), 0.95).has_value());
  EXPECT_TRUE(tail_percentile(std::vector<double>(200, 1.0), 0.95).has_value());
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_EQ(percentile({}, 0.5), 0.0);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_EQ(percentile({4.0, 1.0, 3.0, 2.0}, 1.0), 4.0);
  EXPECT_EQ(median({5.0}), 5.0);
}

TEST(MetricNames, AreWellFormedAndUnique) {
  std::vector<std::string> names;
  for (const auto* specs : {&end_to_end_specs(), &per_layer_specs()}) {
    for (const MetricSpec& s : *specs) {
      EXPECT_TRUE(valid_metric_name(s.name)) << s.name;
      names.push_back(s.name);
    }
  }
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());

  for (const char* bad : {"", ".lead", "has space", "semi;colon", "quote\"", "ü"}) {
    EXPECT_FALSE(valid_metric_name(bad)) << bad;
  }
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_THROW(result_json(true, 1, 0, {{"bad name", 1.0, "s"}}), std::invalid_argument);
  EXPECT_THROW(result_json(true, 1, 0, {{"a", 1.0, "s"}, {"a", 2.0, "s"}}),
               std::invalid_argument);
  EXPECT_EQ(result_json(true, 3, 1, {{"x.y_s", 0.5, "s"}}),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
            "{\"x.y_s\": {\"value\": 0.5, \"unit\": \"s\"}}}");
}

TEST(MetricNames, OrderedMetricsRejectUnlistedNames) {
  EXPECT_THROW(ordered_metrics(end_to_end_specs(), {{"setup_s", 1.0}}, false),
               std::invalid_argument);
  EXPECT_THROW(ordered_metrics(per_layer_specs(), {{"typo.metric", 1.0}}, true),
               std::invalid_argument);
  EXPECT_EQ(ordered_metrics(per_layer_specs(), {}, true).size(), per_layer_specs().size());
}

TEST(OutputCheck, InjectedInvalidSchedulesCountAsFailed) {
  const swf::Trace trace = small_window();
  sched::FcfsPolicy policy;
  sched::RequestTimeEstimator estimator;
  sched::EasyBackfillChooser easy;
  const std::vector<sim::JobResult> valid =
      sched::run_schedule(trace, policy, estimator, &easy).results;
  ASSERT_EQ(check_schedule(trace, valid), "");

  std::vector<std::vector<sim::JobResult>> broken(5, valid);
  std::int64_t last_submit = 0;
  for (const sim::JobResult& r : valid) last_submit = std::max(last_submit, r.submit_time);
  for (sim::JobResult& r : broken[0]) {  // everything at once: over capacity
    r.end_time = last_submit + r.run_time();
    r.start_time = last_submit;
  }
  broken[1][5].start_time = broken[1][5].submit_time - 1;  // starts before submission
  broken[1][5].end_time = broken[1][5].start_time + valid[5].run_time();
  broken[2][3].job_index = broken[2][2].job_index;  // one job twice, one never
  broken[3][7].end_time += 1;                       // runs longer than it should
  broken[4].pop_back();                             // a job missing

  Tally tally;
  for (std::size_t i = 0; i < broken.size(); ++i) {
    UnitResult r;
    r.error = check_schedule(trace, broken[i]);
    EXPECT_NE(r.error, "") << "mutation " << i;
    tally.count(r, "unit", nullptr);
  }
  UnitResult ok;
  ok.digest = schedule_digest(valid);
  tally.count(ok, "unit", &ok.digest);
  UnitResult changed;
  changed.digest = schedule_digest(broken[3]);
  tally.count(changed, "unit", &ok.digest);  // valid schedule, other digest
  EXPECT_EQ(tally.attempted, broken.size() + 2);
  EXPECT_EQ(tally.failed, broken.size() + 1);
}

}  // namespace
