#include "sched/easy_backfill.h"

#include <gtest/gtest.h>

#include "sched/policies.h"
#include "sched/runtime_estimator.h"
#include "util/rng.h"

namespace rlbf::sched {
namespace {

swf::Job make_job(std::int64_t id, std::int64_t run, std::int64_t procs,
                  std::int64_t submit = 0) {
  swf::Job j;
  j.id = id;
  j.submit_time = submit;
  j.run_time = run;
  j.requested_procs = procs;
  return j;
}

/// The EASY test with the job's actual runtime as its estimate.
bool admissible(const swf::Job& job, const sim::Reservation& res, std::int64_t now) {
  return EasyBackfillChooser::admissible_with_estimate(
      job, res, ActualRuntimeEstimator().estimate(job), now);
}

TEST(EasyAdmissible, FinishesBeforeShadow) {
  sim::Reservation res{/*shadow_time=*/100, /*extra_procs=*/0};
  EXPECT_TRUE(admissible(make_job(1, 50, 4), res, 40));
  EXPECT_TRUE(admissible(make_job(1, 60, 4), res, 40));
}

TEST(EasyAdmissible, RejectedPastShadowWithoutExtraNodes) {
  sim::Reservation res{100, 0};
  EXPECT_FALSE(admissible(make_job(1, 61, 4), res, 40));
}

TEST(EasyAdmissible, ExtraNodesAdmitNarrowOverhang) {
  sim::Reservation res{100, 3};
  EXPECT_TRUE(admissible(make_job(1, 10000, 3), res, 40));
  EXPECT_FALSE(admissible(make_job(1, 10000, 4), res, 40));
}

TEST(EasyAdmissible, BoundaryExactlyAtShadow) {
  sim::Reservation res{100, 0};
  // now + est == shadow is allowed (finishes exactly at the reservation).
  EXPECT_TRUE(admissible(make_job(1, 100, 2), res, 0));
  EXPECT_FALSE(admissible(make_job(1, 101, 2), res, 0));
}

/// Assemble a BackfillContext over explicit running/queued jobs. Like the
/// simulator, the fixture owns the feature cache and starts a decision on
/// it for every context.
struct ContextFixture {
  ContextFixture(std::vector<swf::Job> jobs, std::int64_t machine,
                 std::vector<std::pair<std::size_t, std::int64_t>> running,
                 std::vector<std::size_t> queue_order, std::int64_t now)
      : trace("fixture", machine, std::move(jobs)),
        cluster(machine),
        queue(std::move(queue_order)),
        cache(trace.size()),
        now_(now) {
    for (const auto& [idx, start] : running) {
      cluster.start(idx, trace[idx].procs(), start, trace[idx].run_time);
    }
    for (std::size_t i = 1; i < queue.size(); ++i) {
      if (cluster.can_fit(trace[queue[i]].procs())) candidates.push_back(queue[i]);
    }
    std::vector<sim::RunningJob> scratch;
    reservation =
        sim::compute_reservation(cluster, trace, trace[queue[0]], est, now_, cache, scratch);
  }

  sim::BackfillContext context() {
    cache.begin_decision();
    return sim::BackfillContext{trace,       cluster, est,        now_, queue[0],
                                reservation, queue,   candidates, cache};
  }

  swf::Trace trace;
  sim::ClusterState cluster;
  ActualRuntimeEstimator est;
  std::vector<std::size_t> queue;
  std::vector<std::size_t> candidates;
  sim::FeatureCache cache;
  sim::Reservation reservation;
  std::int64_t now_;
};

TEST(EasyChooser, PicksFirstAdmissibleInQueueOrder) {
  // Machine 10: job0 runs 10 procs until 100. Queue: job1 (blocked rjob),
  // job2 (runs 200 -> inadmissible), job3 (runs 50 -> admissible).
  ContextFixture fx({make_job(1, 100, 8), make_job(2, 100, 10),
                     make_job(3, 200, 2), make_job(4, 50, 2)},
                    10, {{0, 0}}, {1, 2, 3}, 20);
  EasyBackfillChooser easy;
  auto ctx = fx.context();
  const auto pick = easy.choose(ctx);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(fx.candidates[*pick], 3u);  // job index 3 (id 4)
}

TEST(EasyChooser, ReturnsNulloptWhenNothingAdmissible) {
  ContextFixture fx({make_job(1, 100, 8), make_job(2, 100, 10),
                     make_job(3, 200, 2)},
                    10, {{0, 0}}, {1, 2}, 20);
  EasyBackfillChooser easy;
  auto ctx = fx.context();
  EXPECT_FALSE(easy.choose(ctx).has_value());
}

TEST(EasyChooser, ShortestFirstReordersCandidates) {
  // Both candidates admissible; shortest-first must pick the 10 s one
  // even though queue order lists the 50 s job first.
  ContextFixture fx({make_job(1, 100, 8), make_job(2, 100, 10),
                     make_job(3, 50, 2), make_job(4, 10, 2)},
                    10, {{0, 0}}, {1, 2, 3}, 20);
  EasyBackfillChooser sjf(BackfillOrder::ShortestFirst);
  auto ctx = fx.context();
  const auto pick = sjf.choose(ctx);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(fx.candidates[*pick], 3u);  // the 10 s job

  EasyBackfillChooser queue_order(BackfillOrder::QueueOrder);
  const auto pick2 = queue_order.choose(ctx);
  ASSERT_TRUE(pick2.has_value());
  EXPECT_EQ(fx.candidates[*pick2], 2u);  // the 50 s job (queue order)
}

/// A random blocked-head context: a machine partly filled by running
/// jobs and a shuffled queue of the remaining ones.
ContextFixture random_fixture(util::Rng& rng) {
  const std::int64_t machine = rng.uniform_int(8, 64);
  const auto n = static_cast<std::size_t>(rng.uniform_int(4, 24));
  std::vector<swf::Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    jobs.push_back(make_job(static_cast<std::int64_t>(i) + 1, rng.uniform_int(1, 500),
                            rng.uniform_int(1, machine), rng.uniform_int(0, 100)));
  }
  const std::int64_t now = 100;
  std::vector<std::pair<std::size_t, std::int64_t>> running;
  std::vector<std::size_t> queue;
  std::int64_t free = machine;
  for (const std::size_t i : rng.permutation(n)) {
    if (rng.bernoulli(0.4) && jobs[i].procs() <= free) {
      free -= jobs[i].procs();
      running.emplace_back(i, rng.uniform_int(0, now));
    } else {
      queue.push_back(i);
    }
  }
  if (queue.empty()) {
    queue.push_back(running.back().first);
    running.pop_back();
  }
  return ContextFixture(std::move(jobs), machine, std::move(running), std::move(queue),
                        now);
}

TEST(EasyChooser, QueueOrderMatchesLinearAdmissibleScanOnRandomContexts) {
  // Under QueueOrder the chooser scans the candidates in place; its pick
  // must be exactly the first admissible candidate in priority order.
  util::Rng rng(20261018);
  EasyBackfillChooser easy;  // one chooser across every context, as in a run
  std::size_t picked = 0, declined = 0;
  for (int trial = 0; trial < 400; ++trial) {
    ContextFixture fx = random_fixture(rng);
    if (fx.candidates.empty()) continue;  // the simulator never asks then
    std::optional<std::size_t> expected;
    for (std::size_t i = 0; i < fx.candidates.size(); ++i) {
      const swf::Job& job = fx.trace[fx.candidates[i]];
      if (EasyBackfillChooser::admissible_with_estimate(job, fx.reservation,
                                                        fx.est.estimate(job), fx.now_)) {
        expected = i;
        break;
      }
    }
    EXPECT_EQ(easy.choose(fx.context()), expected) << "trial " << trial;
    ++(expected ? picked : declined);
  }
  EXPECT_GT(picked, 0u);
  EXPECT_GT(declined, 0u);
}

TEST(EasyChooser, RerankingOrdersReuseTheirBufferAcrossContexts) {
  // The re-ranking orders keep one order buffer across calls; a chooser
  // reused over contexts of varying size must pick what a fresh one does.
  for (const BackfillOrder order : {BackfillOrder::ShortestFirst, BackfillOrder::WidestFirst,
                                    BackfillOrder::NarrowestFirst}) {
    util::Rng rng(7);
    EasyBackfillChooser reused(order);
    for (int trial = 0; trial < 200; ++trial) {
      ContextFixture fx = random_fixture(rng);
      if (fx.candidates.empty()) continue;
      EasyBackfillChooser fresh(order);
      EXPECT_EQ(reused.choose(fx.context()), fresh.choose(fx.context()))
          << reused.name() << " trial " << trial;
    }
  }
}

TEST(EasyChooser, NamesReflectOrder) {
  EXPECT_EQ(EasyBackfillChooser(BackfillOrder::QueueOrder).name(), "EASY");
  EXPECT_EQ(EasyBackfillChooser(BackfillOrder::ShortestFirst).name(), "EASY-SJF");
}

}  // namespace
}  // namespace rlbf::sched
