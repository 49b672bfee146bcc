#include "rl/reinforce.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rlbf::rl {

namespace {

/// Steps per policy pass in update().
constexpr std::size_t kStepsPerPass = 128;

}  // namespace

Reinforce::Reinforce(ActorCritic& model, const ReinforceConfig& config)
    : model_(model),
      config_(config),
      policy_opt_(model.policy_parameters(), config.policy_lr),
      value_opt_(model.value_parameters(), config.value_lr) {}

ReinforceStats Reinforce::update(RolloutBuffer& buffer, util::Rng& rng) {
  if (!buffer.finished()) {
    // Advantage normalization is deferred: REINFORCE-without-baseline
    // normalizes the raw returns instead, below.
    buffer.finish(config_.gamma, config_.lambda, /*normalize_advantages=*/false);
  }
  const std::vector<Step*> steps = buffer.flat_steps();
  if (steps.empty()) throw std::invalid_argument("Reinforce::update: empty buffer");

  // Gradient weight per step: advantage (baseline on) or return.
  std::vector<double> weights(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    weights[i] = config_.use_baseline ? steps[i]->advantage : steps[i]->ret;
  }
  if (config_.normalize_weights && weights.size() > 1) {
    double mean = 0.0;
    for (double w : weights) mean += w;
    mean /= static_cast<double>(weights.size());
    double var = 0.0;
    for (double w : weights) var += (w - mean) * (w - mean);
    const double sd = std::sqrt(var / static_cast<double>(weights.size()));
    for (double& w : weights) w = (w - mean) / (sd + 1e-8);
  }

  ReinforceStats stats;

  // --- single policy-gradient step over the whole batch ---
  policy_opt_.zero_grad();
  const double inv_n = 1.0 / static_cast<double>(steps.size());
  double loss_sum = 0.0, entropy_sum = 0.0;
  // One policy pass per chunk of steps bounds the graph's memory; the
  // gradients accumulate step by step, so the chunking leaves no trace
  // in the bytes.
  for (std::size_t begin = 0; begin < steps.size(); begin += kStepsPerPass) {
    const std::size_t end = std::min(steps.size(), begin + kStepsPerPass);
    const std::vector<Step*> chunk(steps.begin() + static_cast<std::ptrdiff_t>(begin),
                                   steps.begin() + static_cast<std::ptrdiff_t>(end));
    nn::Tensor w(chunk.size(), 1);
    for (std::size_t i = 0; i < chunk.size(); ++i) w.at(i, 0) = weights[begin + i];
    const StepPolicyTerms terms = step_policy_terms(model_, chunk);
    nn::VarPtr loss = nn::neg(nn::mul(terms.logp_action, nn::constant(std::move(w))));
    if (config_.entropy_coef > 0.0) {
      loss = nn::sub(loss, nn::mul_scalar(terms.entropy, config_.entropy_coef));
    }
    loss = nn::mul_scalar(loss, inv_n);
    nn::backward(nn::sum(loss));
    for (std::size_t i = 0; i < chunk.size(); ++i) {
      loss_sum += loss->value[i] / inv_n;
      entropy_sum += terms.entropy->value[i];
    }
  }
  policy_opt_.clip_grad_norm(config_.max_grad_norm);
  policy_opt_.step();
  stats.policy_loss = loss_sum * inv_n;
  stats.entropy = entropy_sum * inv_n;

  // --- baseline fitting ---
  if (config_.use_baseline) {
    for (std::size_t iter = 0; iter < config_.value_iters; ++iter) {
      // Minibatch sampling mirrors Ppo::sample_minibatch.
      std::vector<Step*> mb;
      if (config_.minibatch_size == 0 || steps.size() <= config_.minibatch_size) {
        mb = steps;
      } else {
        mb.reserve(config_.minibatch_size);
        const auto n = static_cast<std::int64_t>(steps.size());
        for (std::size_t i = 0; i < config_.minibatch_size; ++i) {
          mb.push_back(steps[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
        }
      }
      value_opt_.zero_grad();
      const double inv_mb = 1.0 / static_cast<double>(mb.size());
      const nn::VarPtr loss = step_value_losses(model_, mb, inv_mb);
      nn::backward(nn::sum(loss));
      double vloss_sum = 0.0;
      for (std::size_t i = 0; i < mb.size(); ++i) vloss_sum += loss->value[i] / inv_mb;
      value_opt_.clip_grad_norm(config_.max_grad_norm);
      value_opt_.step();
      stats.value_loss = vloss_sum * inv_mb;
      ++stats.value_iters;
    }
  }
  return stats;
}

}  // namespace rlbf::rl
