// Shared test fixture for the RL algorithms (PPO, REINFORCE, DQN): a
// minimal kernel-style ActorCritic plus a contextual-bandit environment
// whose optimal policy is known, so each algorithm's learning can be
// asserted directly.
#pragma once

#include "nn/layers.h"
#include "rl/ppo.h"
#include "rl/rollout.h"
#include "util/rng.h"

namespace rlbf::rl::testing {

/// Minimal kernel-style ActorCritic: scores each observation row with a
/// tiny MLP; the critic reads a fixed 1x4 vector.
class TestActorCritic final : public ActorCritic {
 public:
  explicit TestActorCritic(std::uint64_t seed)
      : rng_(seed),
        policy_({2, 8, 1}, nn::Activation::Tanh, rng_),
        value_({4, 8, 1}, nn::Activation::Tanh, rng_) {}

  TestActorCritic(nn::Mlp p, nn::Mlp v)
      : rng_(0), policy_(std::move(p)), value_(std::move(v)) {}

  nn::VarPtr policy_logits_batch(
      const std::vector<const nn::Tensor*>& obs) const override {
    std::vector<std::size_t> rows;
    for (const nn::Tensor* o : obs) rows.push_back(o->rows());
    return policy_.forward(nn::constant(nn::Tensor::stack_rows(obs)),
                           nn::make_segments(rows));
  }
  nn::VarPtr value(const nn::Tensor& obs) const override {
    return value_.forward(nn::constant(obs));
  }
  void policy_logits_into(const nn::Tensor& obs, nn::Tensor& out,
                          nn::Tensor& scratch) const override {
    policy_.forward_value_into(obs, out, scratch);
  }
  double value_nograd(const nn::Tensor& obs) const override {
    return value_.forward_value(obs).item();
  }
  std::vector<nn::VarPtr> policy_parameters() const override {
    return policy_.parameters();
  }
  std::vector<nn::VarPtr> value_parameters() const override {
    return value_.parameters();
  }
  std::unique_ptr<ActorCritic> clone() const override {
    return std::make_unique<TestActorCritic>(policy_.clone(), value_.clone());
  }
  void sync_from(const ActorCritic& other) override {
    const auto& o = dynamic_cast<const TestActorCritic&>(other);
    policy_.copy_parameters_from(o.policy_);
    value_.copy_parameters_from(o.value_);
  }

 private:
  util::Rng rng_;
  nn::Mlp policy_;
  nn::Mlp value_;
};

/// One contextual-bandit observation: 4 candidate rows, exactly one of
/// which carries feature[0] = 1; picking it yields reward +1.
inline nn::Tensor bandit_obs(util::Rng& rng, std::size_t& good_out) {
  nn::Tensor obs(4, 2);
  const auto good = static_cast<std::size_t>(rng.uniform_int(0, 3));
  for (std::size_t r = 0; r < 4; ++r) {
    obs.at(r, 0) = r == good ? 1.0 : 0.0;
    obs.at(r, 1) = rng.uniform(-0.1, 0.1);
  }
  good_out = good;
  return obs;
}

/// Collect single-step bandit episodes with softmax-sampled actions.
inline RolloutBuffer collect_bandit(TestActorCritic& model, util::Rng& rng,
                                    std::size_t episodes) {
  RolloutBuffer buf;
  std::vector<double> probs;
  for (std::size_t e = 0; e < episodes; ++e) {
    std::size_t good;
    const nn::Tensor obs = bandit_obs(rng, good);
    const std::vector<std::uint8_t> mask = {1, 1, 1, 1};
    const auto logits = model.policy_logits_nograd(obs);
    const auto sample = sample_masked(logits, mask, rng, probs);

    Step s;
    s.policy_obs = obs;
    s.mask = mask;
    s.action = sample.action;
    s.log_prob = sample.log_prob;
    s.value_obs = nn::Tensor(1, 4, 0.25);
    s.value = model.value_nograd(s.value_obs);
    s.reward = sample.action == good ? 1.0 : 0.0;
    Episode ep;
    ep.steps.push_back(std::move(s));
    buf.add_episode(std::move(ep));
  }
  return buf;
}

/// Collect bandit episodes with epsilon-greedy actions (the DQN regime).
inline RolloutBuffer collect_bandit_eps(TestActorCritic& model, util::Rng& rng,
                                        std::size_t episodes, double epsilon) {
  RolloutBuffer buf;
  std::vector<double> probs;
  for (std::size_t e = 0; e < episodes; ++e) {
    std::size_t good;
    const nn::Tensor obs = bandit_obs(rng, good);
    const std::vector<std::uint8_t> mask = {1, 1, 1, 1};
    std::size_t action;
    if (rng.bernoulli(epsilon)) {
      action = static_cast<std::size_t>(rng.uniform_int(0, 3));
    } else {
      action = argmax_masked(model.policy_logits_nograd(obs), mask);
    }
    Step s;
    s.policy_obs = obs;
    s.mask = mask;
    s.action = action;
    s.log_prob = 0.0;
    s.value_obs = nn::Tensor(1, 4, 0.25);
    s.value = 0.0;
    s.reward = action == good ? 1.0 : 0.0;
    Episode ep;
    ep.steps.push_back(std::move(s));
    buf.add_episode(std::move(ep));
  }
  return buf;
}

/// Greedy accuracy of the model on fresh bandit draws.
inline double bandit_accuracy(TestActorCritic& model, util::Rng& rng,
                              std::size_t trials) {
  std::size_t hits = 0;
  for (std::size_t t = 0; t < trials; ++t) {
    std::size_t good;
    const nn::Tensor obs = bandit_obs(rng, good);
    if (argmax_masked(model.policy_logits_nograd(obs), {1, 1, 1, 1}) == good) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(trials);
}

}  // namespace rlbf::rl::testing
