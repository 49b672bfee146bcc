// Randomized parity between the production planner (linear sweep, fused
// plan-and-compare) and the quadratic reference in reference_planner.h:
// same profile answers, same admitted candidate, same schedules.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sched/conservative_backfill.h"
#include "sched/policies.h"
#include "sched/reference_planner.h"
#include "sched/runtime_estimator.h"
#include "util/rng.h"
#include "workload/presets.h"

namespace rlbf::sched {
namespace {

// Applies one operation to both profiles; both must throw or neither.
template <class Op>
void both(AvailabilityProfile& fast, reference::Profile& ref, const Op& op,
          const std::string& what) {
  bool fast_threw = false, ref_threw = false;
  try {
    op(fast);
  } catch (const std::runtime_error&) {
    fast_threw = true;
  }
  try {
    op(ref);
  } catch (const std::runtime_error&) {
    ref_threw = true;
  }
  ASSERT_EQ(fast_threw, ref_threw) << what;
}

void expect_same_levels(const AvailabilityProfile& fast, const reference::Profile& ref,
                        std::int64_t now, util::Rng& rng, const std::string& what) {
  // The step function is constant between reference breakpoints, so
  // probing each one and its neighbours compares the whole function.
  for (const auto& seg : ref.breakpoints()) {
    for (const std::int64_t t : {seg.time - 1, seg.time, seg.time + 1}) {
      ASSERT_EQ(fast.free_at(t), ref.free_at(t)) << what << " t=" << t;
    }
  }
  const std::int64_t t = now + rng.uniform_int(-50, 2000);
  ASSERT_EQ(fast.free_at(t), ref.free_at(t)) << what << " t=" << t;
}

TEST(PlannerParity, RandomProfilesMatchReference) {
  util::Rng rng(20240601);
  constexpr int kProfiles = 12000;
  std::size_t queries = 0;
  for (int p = 0; p < kProfiles; ++p) {
    const std::int64_t now = rng.uniform_int(0, 1'000'000);
    const std::int64_t total = rng.uniform_int(1, 64);
    // Short time scales collide breakpoints; long ones spread them out.
    const std::int64_t scale = rng.uniform_int(0, 1) == 0 ? 20 : 5000;
    AvailabilityProfile fast(now, total);
    reference::Profile ref(now, total);
    const int ops = static_cast<int>(rng.uniform_int(0, 40));
    for (int k = 0; k < ops; ++k) {
      const std::string what = "profile " + std::to_string(p) + " op " + std::to_string(k);
      const std::int64_t procs = rng.uniform_int(1, total + 1);  // total+1: infeasible
      const std::int64_t dur = rng.uniform_int(-2, scale);       // <= 0 counts as 1
      std::optional<std::int64_t> fast_start, ref_start;
      try {
        fast_start = fast.earliest_start(procs, dur);
      } catch (const std::runtime_error&) {
      }
      try {
        ref_start = ref.earliest_start(procs, dur);
      } catch (const std::runtime_error&) {
      }
      ++queries;
      ASSERT_EQ(fast_start, ref_start) << what << " procs=" << procs << " dur=" << dur;
      if (rng.uniform_int(0, 3) != 0 && fast_start) {
        // Planner-style: reserve where the job fits.
        const std::int64_t s = *fast_start;
        both(fast, ref, [&](auto& prof) { prof.reserve(s, procs, dur); }, what);
      } else {
        // Arbitrary window at or after now; may overdraw, which both
        // must reject identically and leave in the same state.
        const std::int64_t s = now + rng.uniform_int(0, 2 * scale);
        const std::int64_t w = rng.uniform_int(1, total);
        both(fast, ref, [&](auto& prof) { prof.reserve(s, w, dur); }, what);
      }
      expect_same_levels(fast, ref, now, rng, what);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(queries, 200'000u);
}

// Random decision points: a machine with some running jobs, a queue in
// random priority order whose front is blocked, and the jobs that fit now
// as candidates.
struct RandomDecision {
  swf::Trace trace;
  sim::ClusterState cluster{1};
  std::int64_t now = 0;
  std::vector<std::size_t> queue;
  std::vector<std::size_t> candidates;
};

std::optional<RandomDecision> make_decision(util::Rng& rng) {
  const std::int64_t machine = rng.uniform_int(4, 128);
  const std::size_t jobs = static_cast<std::size_t>(rng.uniform_int(2, 60));
  const std::int64_t now = rng.uniform_int(1000, 100000);
  std::vector<swf::Job> list;
  for (std::size_t i = 0; i < jobs; ++i) {
    swf::Job j;
    j.id = static_cast<std::int64_t>(i) + 1;
    j.submit_time = now - rng.uniform_int(0, 1000);
    j.run_time = rng.uniform_int(1, 20000);
    // Estimates above, at and below the actual runtime.
    j.requested_time = std::max<std::int64_t>(1, j.run_time + rng.uniform_int(-5000, 20000));
    j.requested_procs = rng.uniform_int(1, rng.uniform_int(0, 3) == 0 ? machine : machine / 4 + 1);
    list.push_back(j);
  }
  RandomDecision d{swf::Trace("rand", machine, list), sim::ClusterState(machine), now, {}, {}};
  for (std::size_t i = 0; i < jobs; ++i) {
    const auto& j = d.trace[i];
    if (rng.uniform_int(0, 2) == 0 && d.cluster.can_fit(j.procs())) {
      // Running since some time before now; some estimates already elapsed.
      d.cluster.start(i, j.procs(), now - rng.uniform_int(0, 25000), j.run_time + 30000);
    } else {
      d.queue.push_back(i);
    }
  }
  if (d.queue.size() < 2) return std::nullopt;
  for (std::size_t q = 1; q < d.queue.size(); ++q) {
    if (d.cluster.can_fit(d.trace[d.queue[q]].procs())) d.candidates.push_back(d.queue[q]);
  }
  if (d.candidates.empty()) return std::nullopt;
  return d;
}

TEST(PlannerParity, RandomDecisionsAdmitTheSameCandidate) {
  util::Rng rng(777);
  RequestTimeEstimator request;
  ActualRuntimeEstimator actual;
  const std::vector<std::pair<double, std::int64_t>> slacks = {
      {0.0, 0}, {0.0, 60}, {0.1, 30}, {0.5, 600}, {1.0, 3600}, {3.0, 0}};
  std::size_t decisions = 0, admitted = 0, rejected = 0;
  while (decisions < 3000) {
    auto d = make_decision(rng);
    if (!d) continue;
    ++decisions;
    const sim::RuntimeEstimator& est =
        rng.uniform_int(0, 1) == 0 ? static_cast<const sim::RuntimeEstimator&>(request)
                                   : actual;
    sim::FeatureCache cache(d->trace.size());
    const sim::BackfillContext ctx{d->trace, d->cluster, est,           d->now, d->queue.front(),
                                   {},       d->queue,   d->candidates, cache};
    const std::string what = "decision " + std::to_string(decisions);

    ConservativeBackfillChooser cons;
    reference::Chooser ref_cons(0.0, 0);
    const auto got = cons.choose(ctx);
    ASSERT_EQ(got, ref_cons.choose(ctx)) << what << " CONS";
    if (got) {
      ++admitted;
    } else {
      ++rejected;
    }
    for (const auto& [factor, fixed] : slacks) {
      SlackBackfillChooser slack(factor, fixed);
      reference::Chooser ref_slack(factor, fixed);
      ASSERT_EQ(slack.choose(ctx), ref_slack.choose(ctx))
          << what << " SLACK " << factor << "/" << fixed;
    }
  }
  // Both outcomes are exercised.
  EXPECT_GT(admitted, 100u);
  EXPECT_GT(rejected, 100u);
}

// Records the deepest queue the wrapped chooser was consulted with.
class DepthProbe final : public sim::BackfillChooser {
 public:
  explicit DepthProbe(sim::BackfillChooser& inner) : inner_(inner) {}
  std::optional<std::size_t> choose(const sim::BackfillContext& ctx) override {
    max_queue = std::max(max_queue, ctx.queue.size());
    return inner_.choose(ctx);
  }
  std::string name() const override { return inner_.name(); }
  std::size_t max_queue = 0;

 private:
  sim::BackfillChooser& inner_;
};

TEST(PlannerParity, DeepQueueSimulationsStartEveryJobAtTheSameTime) {
  // 256-job HPC2N windows (the paper's trajectory length) whose queues
  // grow past 80 jobs under conservative backfilling; slack admits more,
  // so its queues stay shallower.
  struct Window {
    std::uint64_t seed;
    std::size_t offset;
  };
  FcfsPolicy fcfs;
  RequestTimeEstimator est;
  for (const Window w : {Window{1, 7424}, Window{1, 8320}, Window{2, 3584}, Window{3, 7808}}) {
    const swf::Trace trace = workload::hpc2n_like(w.seed, 10000).window(w.offset, 256);
    for (const auto& [factor, fixed] :
         std::vector<std::pair<double, std::int64_t>>{{0.0, 0}, {0.5, 600}, {1.0, 3600}}) {
      std::unique_ptr<sim::BackfillChooser> fast;
      if (factor == 0.0 && fixed == 0) {
        fast = std::make_unique<ConservativeBackfillChooser>();
      } else {
        fast = std::make_unique<SlackBackfillChooser>(factor, fixed);
      }
      DepthProbe probe(*fast);
      reference::Chooser ref(factor, fixed);
      const auto a = sim::simulate(trace, fcfs, est, &probe);
      const auto b = sim::simulate(trace, fcfs, est, &ref);
      const std::string what = "seed " + std::to_string(w.seed) + " offset " +
                               std::to_string(w.offset) + " " + fast->name();
      ASSERT_EQ(a.size(), b.size()) << what;
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].start_time, b[i].start_time) << what << " job " << i;
        ASSERT_EQ(a[i].backfilled, b[i].backfilled) << what << " job " << i;
      }
      if (fixed == 0) {
        EXPECT_GE(probe.max_queue, 75u) << what << ": queue not deep";
      }
    }
  }
}

}  // namespace
}  // namespace rlbf::sched
