// The per-algorithm half of core::Trainer's epoch loop. The trainer owns
// everything the algorithms share — seed pre-draw, collection through
// the rl::Collector seam, per-epoch aggregation, greedy evaluation and
// keep-best checkpointing — so bench/ablation_rl_algorithm compares PPO,
// DQN and REINFORCE under one protocol. A Learner owns what differs:
//
//   algorithm  | collection selection mode          | update
//   ppo        | config.env as given                | clipped multi-iteration PPO
//   dqn        | EpsilonGreedy at dqn.epsilon(e-1)  | absorb into replay, then TD steps
//   reinforce  | SampleSoftmax                      | one policy-gradient step
//
// plus the salt of the trainer's RNG stream and the train.* curves its
// update reports.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/backfill_env.h"
#include "rl/collect.h"
#include "rl/dqn.h"

namespace rlbf::obs {
class SeriesRecorder;
}  // namespace rlbf::obs

namespace rlbf::core {

struct TrainerConfig;
struct EpochStats;

class Learner {
 public:
  Learner() = default;
  Learner(const Learner&) = delete;
  Learner& operator=(const Learner&) = delete;
  virtual ~Learner() = default;

  /// XORed into TrainerConfig::seed to seed the trainer's RNG stream
  /// (per-sequence seeds and update randomness). Each algorithm keeps its
  /// own salt, so stored models do not depend on the shared loop.
  virtual std::uint64_t rng_salt() const = 0;

  /// Apply this algorithm's exploration to the collection of epoch
  /// plan.epoch (1-based): force env's selection mode and record any
  /// exploration rate on the plan, where the epoch's stats read it.
  virtual void prepare_epoch(EnvConfig& env, rl::CollectionPlan& plan) const = 0;

  /// Consume the epoch's sequences (in sequence order; episodes may be
  /// moved from) and update the model, filling stats.ppo or stats.loss.
  virtual void update(std::vector<rl::SequenceResult>& results, util::Rng& rng,
                      EpochStats& stats) = 0;

  /// Record the curves of this algorithm's update for one epoch.
  virtual void record_series(obs::SeriesRecorder& series,
                             const EpochStats& stats) const = 0;
};

/// Double-DQN. Experience persists across epochs in the replay buffer
/// (PPO and REINFORCE discard each epoch's rollouts after one update);
/// declared here so callers can inspect it through Trainer::learner().
class DqnLearner : public Learner {
 public:
  DqnLearner(rl::ActorCritic& model, const rl::DqnConfig& config);
  std::uint64_t rng_salt() const override { return 0x64716e2d74726eull; }
  void prepare_epoch(EnvConfig& env, rl::CollectionPlan& plan) const override;
  void update(std::vector<rl::SequenceResult>& results, util::Rng& rng,
              EpochStats& stats) override;
  void record_series(obs::SeriesRecorder& series,
                     const EpochStats& stats) const override;
  const rl::Dqn& dqn() const { return dqn_; }

 private:
  rl::Dqn dqn_;
};

/// The learner for config.algorithm ("ppo" | "dqn" | "reinforce"),
/// updating `model` in place; `pool` (may be null) parallelizes PPO
/// updates. Throws std::invalid_argument on an unknown algorithm.
std::unique_ptr<Learner> make_learner(const TrainerConfig& config,
                                      rl::ActorCritic& model,
                                      util::ThreadPool* pool);

}  // namespace rlbf::core
