#include "core/collection.h"

#include <algorithm>

#include "sched/easy_backfill.h"

namespace rlbf::core {

std::vector<rl::SequenceResult> collect_sequences(
    rl::Collector& collector, const rl::CollectionPlan& plan,
    const CollectionContext& ctx, const Agent& agent) {
  // Per-slot agent replicas: collection reads model parameters while the
  // learner later writes them, so collector slots run on private copies
  // synced once per epoch.
  const std::size_t n_slots = collector.slots(plan.seeds.size());
  std::vector<Agent> replicas;
  replicas.reserve(n_slots);
  for (std::size_t s = 0; s < n_slots; ++s) replicas.push_back(agent.clone());

  const rl::SequenceFn produce = [&](std::size_t index, std::uint64_t seed,
                                     std::size_t slot) {
    (void)index;
    Agent& worker_agent = replicas[slot];
    util::Rng traj_rng(seed);

    // Sample the sequence and compute the reward baseline on it:
    // FCFS base + shortest-first EASY backfilling (paper §3.4).
    const swf::Trace seq = ctx.trace->sample(ctx.jobs_per_trajectory, traj_rng);
    sched::FcfsPolicy fcfs;
    sched::EasyBackfillChooser sjf_bf(sched::BackfillOrder::ShortestFirst);
    const auto baseline = sched::run_schedule(seq, fcfs, *ctx.estimator, &sjf_bf);
    const double baseline_bsld =
        std::max(objective_value(ctx.env.objective, baseline.results), 1.0);

    TrainingEnv env(worker_agent, ctx.env, traj_rng.split());
    env.set_baseline_bsld(baseline_bsld);
    (void)sched::run_schedule(seq, *ctx.policy, *ctx.estimator, &env);

    rl::SequenceResult result;
    result.episode = env.take_episode();
    result.bsld = env.last_bsld();
    result.baseline_bsld = baseline_bsld;
    return result;
  };

  return collector.collect(plan, produce);
}

}  // namespace rlbf::core
