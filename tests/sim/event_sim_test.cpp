#include "sim/event_sim.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <ostream>

#include "sched/easy_backfill.h"
#include "sched/policies.h"
#include "sched/runtime_estimator.h"
#include "util/rng.h"
#include "workload/presets.h"

namespace rlbf::sim {
namespace {

using sched::ActualRuntimeEstimator;
using sched::EasyBackfillChooser;
using sched::FcfsPolicy;

constexpr std::int64_t kJobUnknown = swf::kUnknown;

swf::Job make_job(std::int64_t id, std::int64_t submit, std::int64_t run,
                  std::int64_t procs, std::int64_t request = kJobUnknown) {
  swf::Job j;
  j.id = id;
  j.submit_time = submit;
  j.run_time = run;
  j.requested_procs = procs;
  j.used_procs = procs;
  j.requested_time = request;
  return j;
}

/// compute_reservation with a fresh feature cache and snapshot buffer.
Reservation reservation_for(const ClusterState& cluster, const swf::Trace& t,
                            const swf::Job& rjob, const RuntimeEstimator& est,
                            std::int64_t now) {
  FeatureCache cache(t.size());
  std::vector<RunningJob> scratch;
  return compute_reservation(cluster, t, rjob, est, now, cache, scratch);
}

TEST(EventSim, SingleJobStartsAtSubmit) {
  swf::Trace t("t", 8, {make_job(1, 50, 100, 4)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  const auto results = simulate(t, fcfs, ar, nullptr);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].start_time, 50);
  EXPECT_EQ(results[0].end_time, 150);
  EXPECT_FALSE(results[0].backfilled);
}

TEST(EventSim, ParallelJobsShareTheMachine) {
  swf::Trace t("t", 8, {make_job(1, 0, 100, 4), make_job(2, 0, 100, 4)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  const auto results = simulate(t, fcfs, ar, nullptr);
  EXPECT_EQ(results[0].start_time, 0);
  EXPECT_EQ(results[1].start_time, 0);
}

TEST(EventSim, FcfsBlocksUntilResourcesFree) {
  swf::Trace t("t", 8, {make_job(1, 0, 100, 8), make_job(2, 10, 50, 4)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  const auto results = simulate(t, fcfs, ar, nullptr);
  EXPECT_EQ(results[0].start_time, 0);
  EXPECT_EQ(results[1].start_time, 100);
}

TEST(EventSim, WithoutBackfillingSmallJobsWaitBehindWideHead) {
  // J2 is wide and blocked; J3 would fit now but must not jump without
  // a backfill chooser.
  swf::Trace t("t", 8,
               {make_job(1, 0, 100, 6), make_job(2, 10, 50, 8), make_job(3, 20, 10, 2)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  const auto results = simulate(t, fcfs, ar, nullptr);
  EXPECT_EQ(results[1].start_time, 100);  // J2 after J1
  EXPECT_EQ(results[2].start_time, 150);  // J3 after J2
}

TEST(EventSim, EasyBackfillsShortJobBeforeShadow) {
  // Machine 10. J1 holds 8 procs for 100 s; J2 (10 procs) is blocked
  // with shadow 100 and extra 0. J3 (2 procs, 50 s) fits the 2 free
  // procs and finishes by 70 <= 100: backfilled at its arrival.
  swf::Trace t("t", 10,
               {make_job(1, 0, 100, 8), make_job(2, 10, 100, 10),
                make_job(3, 20, 50, 2)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  EasyBackfillChooser easy;
  const auto results = simulate(t, fcfs, ar, &easy);
  EXPECT_EQ(results[2].start_time, 20);
  EXPECT_TRUE(results[2].backfilled);
  EXPECT_EQ(results[1].start_time, 100);  // reserved job not delayed
}

TEST(EventSim, EasyRejectsJobThatWouldDelayReservation) {
  // J3 runs 200 s > shadow(100) and exceeds the extra nodes: must wait.
  swf::Trace t("t", 10,
               {make_job(1, 0, 100, 8), make_job(2, 10, 100, 10),
                make_job(3, 20, 200, 2)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  EasyBackfillChooser easy;
  const auto results = simulate(t, fcfs, ar, &easy);
  EXPECT_FALSE(results[2].backfilled);
  EXPECT_EQ(results[1].start_time, 100);
  EXPECT_GE(results[2].start_time, 200);  // after J2 completes
}

TEST(EventSim, EasyExtraNodesRuleAdmitsLongNarrowJob) {
  // J1: 6 procs for 100 s. J2 (8 procs) blocked: shadow 100, extra 2.
  // J3: 2 procs for 1000 s overlaps the reservation but fits the extra
  // nodes, so EASY admits it.
  swf::Trace t("t", 10,
               {make_job(1, 0, 100, 6), make_job(2, 10, 100, 8),
                make_job(3, 20, 1000, 2)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  EasyBackfillChooser easy;
  const auto results = simulate(t, fcfs, ar, &easy);
  EXPECT_TRUE(results[2].backfilled);
  EXPECT_EQ(results[2].start_time, 20);
  EXPECT_EQ(results[1].start_time, 100);  // still on time
}

TEST(EventSim, ReservationComputation) {
  swf::Trace t("t", 10, {make_job(1, 0, 100, 6), make_job(2, 0, 200, 3)});
  ClusterState cluster(10);
  cluster.start(0, 6, 0, 100);
  cluster.start(1, 3, 0, 200);
  ActualRuntimeEstimator ar;
  const swf::Job rjob = make_job(3, 5, 50, 8);
  const Reservation res = reservation_for(cluster, t, rjob, ar, 5);
  // free 1; J1 ends 100 -> free 7 < 8; J2 ends 200 -> free 10 >= 8.
  EXPECT_EQ(res.shadow_time, 200);
  EXPECT_EQ(res.extra_procs, 2);
}

TEST(EventSim, ReservationImmediateWhenJobFits) {
  swf::Trace t("t", 10, {make_job(1, 0, 100, 2)});
  ClusterState cluster(10);
  cluster.start(0, 2, 0, 100);
  ActualRuntimeEstimator ar;
  const Reservation res = reservation_for(cluster, t, make_job(2, 5, 1, 4), ar, 5);
  EXPECT_EQ(res.shadow_time, 5);
  EXPECT_EQ(res.extra_procs, 4);
}

TEST(EventSim, ReservationClampsElapsedEstimates) {
  // The running job's estimate says it should already be done; the
  // reservation treats it as due at now + 1, not in the past.
  swf::Trace t("t", 4, {make_job(1, 0, 1000, 4, 10)});
  ClusterState cluster(4);
  cluster.start(0, 4, 0, 1000);
  sched::RequestTimeEstimator rt;  // estimate 10, elapsed at now=500
  const Reservation res = reservation_for(cluster, t, make_job(2, 1, 1, 2), rt, 500);
  EXPECT_EQ(res.shadow_time, 501);
}

/// Chooser wrapper that records the head job's reservation at every
/// opportunity so tests can assert EASY's no-delay guarantee.
class RecordingChooser final : public BackfillChooser {
 public:
  explicit RecordingChooser(BackfillChooser& inner) : inner_(inner) {}
  std::optional<std::size_t> choose(const BackfillContext& ctx) override {
    observations.push_back({ctx.rjob, ctx.reservation.shadow_time});
    return inner_.choose(ctx);
  }
  std::string name() const override { return "recording"; }

  struct Observation {
    std::size_t rjob;
    std::int64_t shadow;
  };
  std::vector<Observation> observations;

 private:
  BackfillChooser& inner_;
};

TEST(EventSim, EasyNeverDelaysReservedJobUnderExactEstimates) {
  const swf::Trace trace = workload::lublin_1(5, 600);
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  EasyBackfillChooser easy;
  RecordingChooser recorder(easy);
  const auto results = simulate(trace, fcfs, ar, &recorder);
  ASSERT_FALSE(recorder.observations.empty());
  for (const auto& obs : recorder.observations) {
    EXPECT_LE(results[obs.rjob].start_time, obs.shadow)
        << "reserved job " << obs.rjob << " delayed past its shadow time";
  }
}

TEST(EventSim, MaxBackfillCapRespected) {
  // Three small jobs could all backfill; the cap allows only one per
  // opportunity.
  swf::Trace t("t", 10,
               {make_job(1, 0, 100, 7), make_job(2, 10, 100, 10),
                make_job(3, 20, 10, 1), make_job(4, 20, 10, 1),
                make_job(5, 20, 10, 1)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  EasyBackfillChooser easy;
  SimulationOptions opts;
  opts.max_backfills_per_opportunity = 1;
  const auto results = simulate(t, fcfs, ar, &easy, opts);
  int backfilled_at_20 = 0;
  for (const auto& r : results) {
    if (r.backfilled && r.start_time == 20) ++backfilled_at_20;
  }
  EXPECT_EQ(backfilled_at_20, 1);
}

class ThrowingChooser final : public BackfillChooser {
 public:
  std::optional<std::size_t> choose(const BackfillContext& ctx) override {
    return ctx.candidates.size() + 5;  // out of range
  }
  std::string name() const override { return "bad"; }
};

TEST(EventSim, OutOfRangeChooserPickThrows) {
  swf::Trace t("t", 10,
               {make_job(1, 0, 100, 8), make_job(2, 10, 100, 10),
                make_job(3, 20, 10, 1)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  ThrowingChooser bad;
  EXPECT_THROW(simulate(t, fcfs, ar, &bad), std::runtime_error);
}

TEST(EventSim, InvalidTraceRejected) {
  swf::Trace t("t", 4, {make_job(1, 0, 100, 8)});  // wider than machine
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  EXPECT_THROW(simulate(t, fcfs, ar, nullptr), std::runtime_error);
}

TEST(EventSim, EmptyTraceYieldsNoResults) {
  swf::Trace t("t", 4, {});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  EXPECT_TRUE(simulate(t, fcfs, ar, nullptr).empty());
}

// ---- property tests over generated workloads ----

struct SimPropertyCase {
  const char* trace_name;
  std::uint64_t seed;
  bool backfill;
};

// Deterministic test names: the default byte dump would embed the
// trace_name pointer, which changes from run to run.
void PrintTo(const SimPropertyCase& c, std::ostream* os) {
  *os << c.trace_name << "_seed" << c.seed << (c.backfill ? "_easy" : "_fcfs");
}

class SimPropertyTest : public ::testing::TestWithParam<SimPropertyCase> {};

TEST_P(SimPropertyTest, ScheduleIsCompleteAndConsistent) {
  const auto param = GetParam();
  swf::Trace trace = std::string(param.trace_name) == "SDSC-SP2"
                         ? workload::sdsc_sp2_like(param.seed, 800)
                         : workload::lublin_2(param.seed, 800);
  FcfsPolicy fcfs;
  sched::RequestTimeEstimator est;
  EasyBackfillChooser easy;
  const auto results =
      simulate(trace, fcfs, est, param.backfill ? &easy : nullptr);

  ASSERT_EQ(results.size(), trace.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].job_index, i);
    EXPECT_GE(results[i].start_time, trace[i].submit_time) << "job " << i;
    EXPECT_EQ(results[i].end_time - results[i].start_time, trace[i].run_time);
    EXPECT_EQ(results[i].procs, trace[i].procs());
  }
  const ScheduleMetrics m = compute_metrics(results, trace.machine_procs());
  EXPECT_GT(m.avg_bounded_slowdown, 0.99);
  EXPECT_LE(m.utilization, 1.0 + 1e-9);
  EXPECT_GT(m.utilization, 0.0);
  if (param.backfill) {
    EXPECT_GT(m.backfilled_jobs, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, SimPropertyTest,
    ::testing::Values(SimPropertyCase{"SDSC-SP2", 1, false},
                      SimPropertyCase{"SDSC-SP2", 1, true},
                      SimPropertyCase{"SDSC-SP2", 2, true},
                      SimPropertyCase{"Lublin-2", 3, false},
                      SimPropertyCase{"Lublin-2", 3, true},
                      SimPropertyCase{"Lublin-2", 4, true}));

TEST(EventSim, DeterministicAcrossRuns) {
  const swf::Trace trace = workload::hpc2n_like(9, 500);
  FcfsPolicy fcfs;
  sched::RequestTimeEstimator est;
  EasyBackfillChooser easy1, easy2;
  const auto a = simulate(trace, fcfs, est, &easy1);
  const auto b = simulate(trace, fcfs, est, &easy2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_time, b[i].start_time);
    EXPECT_EQ(a[i].backfilled, b[i].backfilled);
  }
}

/// Adversarial chooser: greedily starts the FIRST candidate every time,
/// ignoring reservations entirely. The simulator must still terminate,
/// schedule everything exactly once, and never oversubscribe.
class GreedyFirstChooser final : public BackfillChooser {
 public:
  std::optional<std::size_t> choose(const BackfillContext&) override { return 0; }
  std::string name() const override { return "greedy-first"; }
};

TEST(EventSim, AdversarialGreedyChooserStillYieldsValidSchedule) {
  const swf::Trace trace = workload::sdsc_sp2_like(41, 800);
  FcfsPolicy fcfs;
  sched::RequestTimeEstimator est;
  GreedyFirstChooser greedy;
  const auto results = simulate(trace, fcfs, est, &greedy);
  ASSERT_EQ(results.size(), trace.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_GE(results[i].start_time, trace[i].submit_time);
    EXPECT_EQ(results[i].run_time(), trace[i].run_time);
  }
  // ClusterState::start throws on oversubscription, so completing at all
  // proves the resource invariant held throughout.
  const ScheduleMetrics m = compute_metrics(results, trace.machine_procs());
  EXPECT_LE(m.utilization, 1.0 + 1e-9);
}

TEST(EventSim, Wfp3PriorityIsDynamic) {
  // Two queued jobs behind a full machine: a long job that has waited
  // long and a short fresh job. Under WFP3 the long waiter's cubed
  // wait/runtime ratio eventually dominates; verify the late-submitted
  // short job does NOT overtake the long waiter once enough time passed.
  swf::Trace t("t", 8,
               {make_job(1, 0, 100000, 8),            // hogs the machine
                make_job(2, 10, 50000, 8, 50000),     // long, waits from t=10
                make_job(3, 99000, 100, 8, 100)});    // short, arrives late
  sched::Wfp3Policy wfp3;
  ActualRuntimeEstimator ar;
  const auto results = simulate(t, wfp3, ar, nullptr);
  // At t=100000: job2 ratio = (99990/50000)^3 * 8 ~ 64; job3 ratio =
  // (1000/100)^3 * 8 = 8000 -> job3's score is MORE negative, so WFP3
  // actually runs the short waiter first. Verify that ordering.
  EXPECT_LT(results[2].start_time, results[1].start_time);

  // Under FCFS the long waiter (earlier submit) would run first instead:
  FcfsPolicy fcfs;
  const auto fcfs_results = simulate(t, fcfs, ar, nullptr);
  EXPECT_LT(fcfs_results[1].start_time, fcfs_results[2].start_time);
}

TEST(EventSim, SimultaneousArrivalsKeepSubmissionOrderUnderFcfs) {
  swf::Trace t("t", 4,
               {make_job(1, 0, 50, 4), make_job(2, 10, 30, 4), make_job(3, 10, 20, 4)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  const auto results = simulate(t, fcfs, ar, nullptr);
  EXPECT_EQ(results[1].start_time, 50);
  EXPECT_EQ(results[2].start_time, 80);  // ties broken by trace order
}

TEST(EventSim, ZeroRuntimeJobsScheduleInstantly) {
  swf::Trace t("t", 4, {make_job(1, 0, 0, 4), make_job(2, 0, 10, 4)});
  FcfsPolicy fcfs;
  ActualRuntimeEstimator ar;
  const auto results = simulate(t, fcfs, ar, nullptr);
  EXPECT_EQ(results[0].start_time, 0);
  EXPECT_EQ(results[0].end_time, 0);
  EXPECT_EQ(results[1].start_time, 0);  // machine free again immediately
}

/// Wraps a policy but reports it as time-varying, forcing the simulator
/// down the full re-sort path. Scheduling results must be identical to
/// the incremental (binary-insert, sort-skipping) path the real policy
/// takes when it declares itself time-invariant.
class ForcedResortPolicy final : public PriorityPolicy {
 public:
  explicit ForcedResortPolicy(const PriorityPolicy& inner) : inner_(inner) {}
  double score(const swf::Job& job, std::int64_t now) const override {
    return inner_.score(job, now);
  }
  std::string name() const override { return inner_.name(); }
  // time_invariant() deliberately stays false.

 private:
  const PriorityPolicy& inner_;
};

TEST(EventSim, IncrementalQueueMatchesFullResortPath) {
  const swf::Trace trace = workload::sdsc_sp2_like(7, 800);
  sched::RequestTimeEstimator est;
  for (const char* pname : {"FCFS", "SJF", "F1"}) {
    const auto policy = sched::make_policy(pname);
    ASSERT_TRUE(policy->time_invariant()) << pname;
    ForcedResortPolicy resort(*policy);
    EasyBackfillChooser easy_fast, easy_slow;
    const auto fast = simulate(trace, *policy, est, &easy_fast);
    const auto slow = simulate(trace, resort, est, &easy_slow);
    ASSERT_EQ(fast.size(), slow.size());
    for (std::size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].start_time, slow[i].start_time) << pname << " job " << i;
      EXPECT_EQ(fast[i].end_time, slow[i].end_time) << pname << " job " << i;
      EXPECT_EQ(fast[i].backfilled, slow[i].backfilled) << pname << " job " << i;
    }
  }
}

/// Scores drawn from {-1, -0.0, +0.0, 1} by job width: exact ties, and
/// signed zeros that `<` must treat as equal.
class SignedZeroTiePolicy final : public PriorityPolicy {
 public:
  double score(const swf::Job& job, std::int64_t /*now*/) const override {
    static constexpr double kScores[] = {-1.0, -0.0, 0.0, 1.0};
    return kScores[job.procs() % 4];
  }
  std::string name() const override { return "ties"; }
};

/// The order the simulator used before keyed sorting: a stable sort
/// whose comparator scores both operands on every comparison.
std::vector<std::size_t> comparator_sorted(std::vector<std::size_t> queue,
                                           const swf::Trace& trace,
                                           const PriorityPolicy& policy, std::int64_t now) {
  std::stable_sort(queue.begin(), queue.end(), [&](std::size_t a, std::size_t b) {
    const double sa = policy.score(trace[a], now);
    const double sb = policy.score(trace[b], now);
    if (sa != sb) return sa < sb;
    return a < b;
  });
  return queue;
}

TEST(EventSim, KeyedSortMatchesComparatorStableSort) {
  util::Rng rng(424242);
  sched::Wfp3Policy wfp3;
  SignedZeroTiePolicy ties;
  std::vector<ScoredJob> keyed;  // reused across calls, as in the simulator
  std::size_t negative_zeros = 0, positive_zeros = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 60));
    std::vector<swf::Job> jobs;
    for (std::size_t i = 0; i < n; ++i) {
      jobs.push_back(make_job(static_cast<std::int64_t>(i), rng.uniform_int(0, 1000),
                              rng.uniform_int(1, 5000), rng.uniform_int(1, 16),
                              rng.uniform_int(1, 5000)));
    }
    const swf::Trace trace("t", 16, jobs);
    // A random subset of the trace in arrival-scrambled order.
    std::vector<std::size_t> queue;
    for (const std::size_t i : rng.permutation(n)) {
      if (rng.bernoulli(0.8)) queue.push_back(i);
    }
    // now = 0 puts every WFP3 job at zero wait (all scores -0.0); later
    // instants mix zero-wait and waiting jobs.
    const std::int64_t now = trial % 3 == 0 ? 0 : rng.uniform_int(0, 2000);
    for (const PriorityPolicy* policy : {static_cast<const PriorityPolicy*>(&wfp3),
                                         static_cast<const PriorityPolicy*>(&ties)}) {
      for (const std::size_t i : queue) {
        const double sc = policy->score(trace[i], now);
        if (sc == 0.0) ++(std::signbit(sc) ? negative_zeros : positive_zeros);
      }
      std::vector<std::size_t> sorted = queue;
      sort_by_priority(sorted, trace, *policy, now, keyed);
      EXPECT_EQ(sorted, comparator_sorted(queue, trace, *policy, now))
          << policy->name() << " trial " << trial << " now " << now;
    }
  }
  // The inputs really did mix signed zeros.
  EXPECT_GT(negative_zeros, 0u);
  EXPECT_GT(positive_zeros, 0u);
}

TEST(EventSim, CachedReservationMatchesDirectEstimates) {
  // Equal estimated ends exercise the unstable sort's tie behavior. The
  // cached call (memoized estimates, reused scratch) must match a
  // reservation walked directly from estimator.estimate(); every running
  // job is 6 processors wide, so no tie order can change extra_procs.
  swf::Trace t("t", 32,
               {make_job(1, 0, 500, 6, 100), make_job(2, 0, 500, 6, 100),
                make_job(3, 0, 400, 6, 80), make_job(4, 0, 600, 6, 100),
                make_job(5, 0, 300, 6, 50)});
  ClusterState cluster(32);
  for (std::size_t i = 0; i < 5; ++i) cluster.start(i, 6, 0, t[i].run_time);
  sched::RequestTimeEstimator est;
  FeatureCache cache(t.size());
  std::vector<RunningJob> scratch;
  std::vector<std::pair<std::int64_t, std::int64_t>> releases;  // (end, procs)
  for (const RunningJob& r : cluster.running_jobs()) {
    releases.emplace_back(estimated_release(r, est.estimate(t[r.job_index]), 10), r.procs);
  }
  std::sort(releases.begin(), releases.end());
  for (std::int64_t need = 8; need <= 32; need += 6) {
    const swf::Job rjob = make_job(9, 1, 50, need);
    Reservation direct;
    std::int64_t free_procs = cluster.free_procs();
    for (const auto& [end, procs] : releases) {
      free_procs += procs;
      if (free_procs >= need) {
        direct = {end, free_procs - need};
        break;
      }
    }
    ASSERT_GT(direct.shadow_time, 10) << "need " << need;
    // Twice through the cache: cold estimates, then memoized.
    for (int pass = 0; pass < 2; ++pass) {
      const Reservation cached =
          compute_reservation(cluster, t, rjob, est, 10, cache, scratch);
      EXPECT_EQ(cached.shadow_time, direct.shadow_time) << "need " << need;
      EXPECT_EQ(cached.extra_procs, direct.extra_procs) << "need " << need;
    }
  }
}

TEST(EventSim, BackfillingImprovesUtilizationOnBlockedWorkload) {
  const swf::Trace trace = workload::sdsc_sp2_like(21, 1000);
  FcfsPolicy fcfs;
  sched::RequestTimeEstimator est;
  EasyBackfillChooser easy;
  const auto with = compute_metrics(simulate(trace, fcfs, est, &easy),
                                    trace.machine_procs());
  const auto without =
      compute_metrics(simulate(trace, fcfs, est, nullptr), trace.machine_procs());
  // EASY should strictly reduce the average wait on a congested trace.
  EXPECT_LT(with.avg_wait_time, without.avg_wait_time);
}

}  // namespace
}  // namespace rlbf::sim
