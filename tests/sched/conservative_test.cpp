#include "sched/conservative_backfill.h"

#include <gtest/gtest.h>

#include "sched/easy_backfill.h"
#include "sched/policies.h"
#include "sched/runtime_estimator.h"
#include "sched/scheduler.h"
#include "workload/presets.h"

namespace rlbf::sched {
namespace {

TEST(Profile, FreshProfileIsFullyFree) {
  AvailabilityProfile p(100, 64);
  EXPECT_EQ(p.free_at(100), 64);
  EXPECT_EQ(p.free_at(1'000'000), 64);
}

TEST(Profile, RejectsNonPositiveCapacity) {
  EXPECT_THROW(AvailabilityProfile(0, 0), std::invalid_argument);
}

TEST(Profile, ReserveCarvesWindow) {
  AvailabilityProfile p(0, 10);
  p.reserve(100, 4, 50);
  EXPECT_EQ(p.free_at(99), 10);
  EXPECT_EQ(p.free_at(100), 6);
  EXPECT_EQ(p.free_at(149), 6);
  EXPECT_EQ(p.free_at(150), 10);
}

TEST(Profile, OverlappingReservationsStack) {
  AvailabilityProfile p(0, 10);
  p.reserve(0, 4, 100);
  p.reserve(50, 4, 100);
  EXPECT_EQ(p.free_at(0), 6);
  EXPECT_EQ(p.free_at(50), 2);
  EXPECT_EQ(p.free_at(100), 6);
  EXPECT_EQ(p.free_at(150), 10);
}

TEST(Profile, NegativeCapacityThrows) {
  AvailabilityProfile p(0, 4);
  p.reserve(0, 4, 100);
  EXPECT_THROW(p.reserve(50, 1, 10), std::runtime_error);
}

TEST(Profile, ReserveBeforeNowIsRejected) {
  // A window starting before the profile's origin would put a breakpoint
  // ahead of `now` and break the strictly increasing order.
  AvailabilityProfile p(100, 8);
  try {
    p.reserve(50, 4, 100);
    FAIL() << "reserve before now was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("50"), std::string::npos) << msg;
    EXPECT_NE(msg.find("100"), std::string::npos) << msg;
  }
  // The profile is untouched and still usable.
  EXPECT_EQ(p.free_at(100), 8);
  p.reserve(100, 4, 100);
  EXPECT_EQ(p.free_at(150), 4);
  EXPECT_EQ(p.free_at(200), 8);
}

TEST(Profile, EarliestStartImmediateWhenFree) {
  AvailabilityProfile p(10, 8);
  EXPECT_EQ(p.earliest_start(8, 100), 10);
}

TEST(Profile, EarliestStartWaitsForRelease) {
  AvailabilityProfile p(0, 8);
  p.reserve(0, 8, 100);
  EXPECT_EQ(p.earliest_start(2, 10), 100);
}

TEST(Profile, EarliestStartFitsGapBetweenReservations) {
  AvailabilityProfile p(0, 8);
  p.reserve(0, 8, 50);     // busy [0,50)
  p.reserve(100, 8, 50);   // busy [100,150)
  // A 40 s job fits the [50,100) hole.
  EXPECT_EQ(p.earliest_start(4, 40), 50);
  // A 60 s job does not; it must wait until 150.
  EXPECT_EQ(p.earliest_start(4, 60), 150);
}

TEST(Profile, EarliestStartSkipsTooNarrowWindows) {
  AvailabilityProfile p(0, 8);
  p.reserve(0, 6, 100);  // only 2 free until 100
  EXPECT_EQ(p.earliest_start(4, 10), 100);
  EXPECT_EQ(p.earliest_start(2, 10), 0);
}

TEST(Profile, ImpossibleRequestThrows) {
  AvailabilityProfile p(0, 8);
  EXPECT_THROW(p.earliest_start(9, 10), std::runtime_error);
}

TEST(Profile, FromClusterUsesEstimatedEnds) {
  swf::Trace trace("t", 8, [] {
    swf::Job j;
    j.id = 1;
    j.submit_time = 0;
    j.run_time = 1000;
    j.requested_time = 50;  // estimate far below actual
    j.requested_procs = 8;
    return std::vector<swf::Job>{j};
  }());
  sim::ClusterState cluster(8);
  cluster.start(0, 8, 0, 1000);
  RequestTimeEstimator est;
  sim::FeatureCache cache(trace.size());
  const auto profile =
      AvailabilityProfile::from_cluster(cluster, trace, est, /*now=*/200, cache);
  // Estimate already elapsed: treated as due at now + 1.
  EXPECT_EQ(profile.free_at(200), 0);
  EXPECT_EQ(profile.free_at(201), 8);
}

TEST(Conservative, NeverDelaysAnyQueuedJobOnCongestedTrace) {
  // Conservative backfilling's defining invariant, checked end-to-end:
  // relative to no backfilling at all, no job may start later.
  const swf::Trace trace = workload::sdsc_sp2_like(31, 600);
  FcfsPolicy fcfs;
  RequestTimeEstimator est;
  ConservativeBackfillChooser cons;
  const auto with = sim::simulate(trace, fcfs, est, &cons);
  const auto without = sim::simulate(trace, fcfs, est, nullptr);
  ASSERT_EQ(with.size(), without.size());
  std::size_t backfilled = 0;
  for (std::size_t i = 0; i < with.size(); ++i) {
    if (with[i].backfilled) ++backfilled;
  }
  EXPECT_GT(backfilled, 0u);
  const auto m_with = sim::compute_metrics(with, trace.machine_procs());
  const auto m_without = sim::compute_metrics(without, trace.machine_procs());
  EXPECT_LE(m_with.avg_wait_time, m_without.avg_wait_time + 1e-9);
}

TEST(Conservative, MoreRestrictiveThanEasy) {
  const swf::Trace trace = workload::sdsc_sp2_like(32, 600);
  FcfsPolicy fcfs;
  RequestTimeEstimator est;
  ConservativeBackfillChooser cons;
  EasyBackfillChooser easy;
  const auto cons_m = sim::compute_metrics(sim::simulate(trace, fcfs, est, &cons),
                                           trace.machine_procs());
  const auto easy_m = sim::compute_metrics(sim::simulate(trace, fcfs, est, &easy),
                                           trace.machine_procs());
  // EASY may backfill at least as many jobs as conservative.
  EXPECT_GE(easy_m.backfilled_jobs, cons_m.backfilled_jobs);
}

TEST(Conservative, NameIsCons) {
  EXPECT_EQ(ConservativeBackfillChooser().name(), "CONS");
}

TEST(Slack, RejectsNegativeParameters) {
  EXPECT_THROW(SlackBackfillChooser(-0.1, 0), std::invalid_argument);
  EXPECT_THROW(SlackBackfillChooser(0.5, -1), std::invalid_argument);
}

TEST(Slack, AllowanceScalesWithEstimate) {
  const SlackBackfillChooser slack(0.5, 600);
  EXPECT_EQ(slack.allowance_from_estimate(1000), 600 + 500);
  EXPECT_EQ(slack.allowance_from_estimate(10000), 600 + 5000);
}

TEST(Slack, ZeroSlackEqualsConservative) {
  const swf::Trace trace = workload::sdsc_sp2_like(33, 500);
  FcfsPolicy fcfs;
  RequestTimeEstimator est;
  SlackBackfillChooser zero_slack(0.0, 0);
  ConservativeBackfillChooser cons;
  const auto a = sim::simulate(trace, fcfs, est, &zero_slack);
  const auto b = sim::simulate(trace, fcfs, est, &cons);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_time, b[i].start_time) << "job " << i;
  }
}

TEST(Slack, BackfillsAtLeastAsMuchAsConservative) {
  const swf::Trace trace = workload::sdsc_sp2_like(34, 600);
  FcfsPolicy fcfs;
  RequestTimeEstimator est;
  SlackBackfillChooser slack(1.0, 3600);
  ConservativeBackfillChooser cons;
  const auto slack_m = sim::compute_metrics(sim::simulate(trace, fcfs, est, &slack),
                                            trace.machine_procs());
  const auto cons_m = sim::compute_metrics(sim::simulate(trace, fcfs, est, &cons),
                                           trace.machine_procs());
  EXPECT_GE(slack_m.backfilled_jobs, cons_m.backfilled_jobs);
}

TEST(Slack, GenerousSlackAdmitsADelayingCandidate) {
  // Machine 10: running job holds 8 procs until t=100; rjob needs 10
  // (planned start 100). The 150 s, 2-proc candidate started at t=20
  // occupies 2 procs until 170, pushing the rjob to 170 (+70 s) —
  // rejected by conservative (zero allowance), admitted once the
  // allowance covers the 70 s slip.
  swf::Trace trace("t", 10, [] {
    auto mk = [](std::int64_t id, std::int64_t submit, std::int64_t run,
                 std::int64_t procs) {
      swf::Job j;
      j.id = id;
      j.submit_time = submit;
      j.run_time = run;
      j.requested_procs = procs;
      return j;
    };
    return std::vector<swf::Job>{mk(1, 0, 100, 8), mk(2, 10, 100, 10),
                                 mk(3, 20, 150, 2)};
  }());
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  ConservativeBackfillChooser cons;
  const auto strict = sim::simulate(trace, fcfs, ar, &cons);
  EXPECT_FALSE(strict[2].backfilled);

  SlackBackfillChooser tight(0.0, 60);  // 60 s < the 70 s slip: still rejected
  const auto still_strict = sim::simulate(trace, fcfs, ar, &tight);
  EXPECT_FALSE(still_strict[2].backfilled);

  SlackBackfillChooser generous(0.0, 100);  // covers the slip
  const auto relaxed = sim::simulate(trace, fcfs, ar, &generous);
  EXPECT_TRUE(relaxed[2].backfilled);
  EXPECT_EQ(relaxed[2].start_time, 20);
  // The reserved job slipped, but within its allowance.
  EXPECT_LE(relaxed[1].start_time, 100 + 100);
}

}  // namespace
}  // namespace rlbf::sched
