#include "core/learner.h"

#include <stdexcept>

#include "core/trainer.h"
#include "obs/series.h"
#include "rl/ppo.h"
#include "rl/reinforce.h"

namespace rlbf::core {

namespace {

/// The on-policy learners' batch: every non-empty episode, in sequence
/// order.
rl::RolloutBuffer take_episodes(std::vector<rl::SequenceResult>& results) {
  rl::RolloutBuffer buffer;
  for (auto& r : results) {
    if (!r.episode.steps.empty()) buffer.add_episode(std::move(r.episode));
  }
  return buffer;
}

class PpoLearner : public Learner {
 public:
  PpoLearner(rl::ActorCritic& model, const rl::PpoConfig& config,
             util::ThreadPool* pool)
      : ppo_(model, config, pool) {}

  std::uint64_t rng_salt() const override { return 0x7261696e65722dull; }

  void prepare_epoch(EnvConfig&, rl::CollectionPlan&) const override {}

  void update(std::vector<rl::SequenceResult>& results, util::Rng& rng,
              EpochStats& stats) override {
    rl::RolloutBuffer buffer = take_episodes(results);
    if (buffer.episode_count() > 0) stats.ppo = ppo_.update(buffer, rng);
  }

  void record_series(obs::SeriesRecorder& series, const EpochStats& s) const override {
    const auto step = static_cast<std::int64_t>(s.epoch);
    series.record("train.policy_loss", step, s.ppo.policy_loss);
    series.record("train.value_loss", step, s.ppo.value_loss);
    series.record("train.entropy", step, s.ppo.entropy);
    series.record("train.grad_norm", step, s.ppo.grad_norm);
    series.record("train.approx_kl", step, s.ppo.approx_kl);
  }

 private:
  rl::Ppo ppo_;
};

class ReinforceLearner : public Learner {
 public:
  ReinforceLearner(rl::ActorCritic& model, const rl::ReinforceConfig& config)
      : reinforce_(model, config) {}

  std::uint64_t rng_salt() const override { return 0x7265696e66ull; }

  void prepare_epoch(EnvConfig& env, rl::CollectionPlan&) const override {
    env.selection = ActionSelection::SampleSoftmax;
  }

  void update(std::vector<rl::SequenceResult>& results, util::Rng& rng,
              EpochStats& stats) override {
    rl::RolloutBuffer buffer = take_episodes(results);
    if (buffer.episode_count() > 0) {
      stats.loss = reinforce_.update(buffer, rng).policy_loss;
    }
  }

  void record_series(obs::SeriesRecorder& series, const EpochStats& s) const override {
    series.record("train.loss", static_cast<std::int64_t>(s.epoch), s.loss);
  }

 private:
  rl::Reinforce reinforce_;
};

}  // namespace

// ---------------------------------------------------------------- DQN --

DqnLearner::DqnLearner(rl::ActorCritic& model, const rl::DqnConfig& config)
    : dqn_(model, config) {}

void DqnLearner::prepare_epoch(EnvConfig& env, rl::CollectionPlan& plan) const {
  env.selection = ActionSelection::EpsilonGreedy;
  env.epsilon = plan.epsilon = dqn_.epsilon(plan.epoch - 1);
}

void DqnLearner::update(std::vector<rl::SequenceResult>& results, util::Rng& rng,
                        EpochStats& stats) {
  for (const auto& r : results) {
    if (!r.episode.steps.empty()) dqn_.absorb(r.episode);
  }
  stats.loss = dqn_.update(rng).loss;
}

void DqnLearner::record_series(obs::SeriesRecorder& series,
                               const EpochStats& s) const {
  const auto step = static_cast<std::int64_t>(s.epoch);
  series.record("train.loss", step, s.loss);
  series.record("train.epsilon", step, s.epsilon);
}

std::unique_ptr<Learner> make_learner(const TrainerConfig& config,
                                      rl::ActorCritic& model,
                                      util::ThreadPool* pool) {
  if (config.algorithm == "ppo") {
    return std::make_unique<PpoLearner>(model, config.ppo, pool);
  }
  if (config.algorithm == "dqn") return std::make_unique<DqnLearner>(model, config.dqn);
  if (config.algorithm == "reinforce") {
    return std::make_unique<ReinforceLearner>(model, config.reinforce);
  }
  throw std::invalid_argument("trainer: unknown algorithm '" + config.algorithm +
                              "' (known: ppo, dqn, reinforce)");
}

}  // namespace rlbf::core
