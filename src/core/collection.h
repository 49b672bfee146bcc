// The one sequence-production body behind core::Trainer (every
// algorithm: PPO, DQN, REINFORCE) and the `collect-rollouts` worker,
// driven through the rl::Collector transport seam.
//
// Per sequence: sample `jobs_per_trajectory` consecutive jobs from the
// training trace, simulate the reward baseline on them (FCFS base +
// shortest-first EASY backfilling, paper §3.4), then schedule them with
// the base policy and the sampling TrainingEnv. Everything is a pure
// function of the per-sequence seed plus the context — the property the
// transports rely on for byte-identical collection at any thread or
// worker count.
#pragma once

#include "core/agent.h"
#include "core/backfill_env.h"
#include "rl/collect.h"
#include "sched/scheduler.h"

namespace rlbf::core {

/// Everything one epoch's sequence production reads (borrowed; callers
/// keep the referents alive across collect_sequences).
struct CollectionContext {
  const swf::Trace* trace = nullptr;
  const sim::PriorityPolicy* policy = nullptr;
  const sim::RuntimeEstimator* estimator = nullptr;
  /// The epoch's environment, exploration already applied
  /// (Learner::prepare_epoch).
  EnvConfig env;
  std::size_t jobs_per_trajectory = 0;
};

/// Run one epoch's collection through `collector`. Provisions one agent
/// replica per transport slot (replicas are only READ during
/// collection — the learner's update happens after — so a slot serving
/// several sequences is safe) and returns plan.seeds.size() results in
/// sequence order.
std::vector<rl::SequenceResult> collect_sequences(
    rl::Collector& collector, const rl::CollectionPlan& plan,
    const CollectionContext& ctx, const Agent& agent);

}  // namespace rlbf::core
