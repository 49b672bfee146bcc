#include "rl/ppo.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace rlbf::rl {

nn::Tensor ActorCritic::policy_logits_nograd(const nn::Tensor& policy_obs) const {
  nn::Tensor out;
  nn::Tensor scratch;
  policy_logits_into(policy_obs, out, scratch);
  return out;
}

std::vector<nn::Tensor> ActorCritic::policy_logits_nograd_batch(
    const std::vector<const nn::Tensor*>& obs) const {
  std::vector<nn::Tensor> out;
  out.reserve(obs.size());
  for (const nn::Tensor* o : obs) out.push_back(policy_logits_nograd(*o));
  return out;
}

CategoricalSample sample_masked(const nn::Tensor& logits,
                                const std::vector<std::uint8_t>& mask, util::Rng& rng,
                                std::vector<double>& probs) {
  if (logits.cols() != 1 || logits.rows() != mask.size()) {
    throw std::invalid_argument("sample_masked: bad shapes");
  }
  double zmax = -std::numeric_limits<double>::infinity();
  std::size_t selectable = 0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    ++selectable;
    const double z = logits.at(i, 0);
    // NaN and +inf have no softmax weight: a diverged policy, named here
    // instead of sampled into a NaN log-probability.
    if (!(z < std::numeric_limits<double>::infinity())) {
      throw std::runtime_error("sample_masked: logit " + std::to_string(z) +
                               " at selectable row " + std::to_string(i) +
                               " is not finite");
    }
    zmax = std::max(zmax, z);
  }
  if (selectable == 0) throw std::invalid_argument("sample_masked: all actions masked");
  if (zmax == -std::numeric_limits<double>::infinity()) {
    throw std::runtime_error("sample_masked: no finite logit among " +
                             std::to_string(selectable) + " selectable rows");
  }
  probs.assign(mask.size(), 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (mask[i]) {
      probs[i] = std::exp(logits.at(i, 0) - zmax);
      total += probs[i];
    }
  }
  const std::size_t action = rng.categorical(probs);
  CategoricalSample out;
  out.action = action;
  out.log_prob = std::log(probs[action] / total);
  return out;
}

std::size_t argmax_masked(const nn::Tensor& logits,
                          const std::vector<std::uint8_t>& mask) {
  if (logits.cols() != 1 || logits.rows() != mask.size()) {
    throw std::invalid_argument("argmax_masked: bad shapes");
  }
  std::size_t best = mask.size();
  std::size_t selectable = 0;
  double best_v = -std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < mask.size(); ++i) {
    if (!mask[i]) continue;
    ++selectable;
    if (logits.at(i, 0) > best_v) {
      best_v = logits.at(i, 0);
      best = i;
    }
  }
  if (selectable == 0) throw std::invalid_argument("argmax_masked: all actions masked");
  if (best == mask.size()) {
    // Every selectable logit is NaN or -inf: a diverged model, not an
    // empty action set.
    throw std::runtime_error("argmax_masked: no finite logit among " +
                             std::to_string(selectable) + " selectable rows");
  }
  return best;
}

StepPolicyTerms step_policy_terms(const ActorCritic& model,
                                  const std::vector<Step*>& steps) {
  std::vector<const nn::Tensor*> obs;
  std::vector<std::size_t> rows;
  std::vector<std::size_t> actions;
  std::vector<std::uint8_t> mask;
  obs.reserve(steps.size());
  rows.reserve(steps.size());
  actions.reserve(steps.size());
  for (const Step* s : steps) {
    if (s->action >= s->mask.size()) throw std::out_of_range("step action out of range");
    obs.push_back(&s->policy_obs);
    rows.push_back(s->mask.size());
    actions.push_back(mask.size() + s->action);
    mask.insert(mask.end(), s->mask.begin(), s->mask.end());
  }
  const nn::Segments segments = nn::make_segments(rows);
  const nn::VarPtr logp_all =
      nn::masked_log_softmax(model.policy_logits_batch(obs), mask, segments);
  return {nn::pick_rows(logp_all, actions), nn::masked_entropy(logp_all, mask, segments)};
}

nn::VarPtr step_value_losses(const ActorCritic& model, const std::vector<Step*>& steps,
                             double scale) {
  std::vector<const nn::Tensor*> obs;
  nn::Tensor returns(steps.size(), 1);
  obs.reserve(steps.size());
  for (std::size_t i = 0; i < steps.size(); ++i) {
    obs.push_back(&steps[i]->value_obs);
    returns.at(i, 0) = steps[i]->ret;
  }
  // Forward rows are row-independent, and a critic weight's gradient
  // sums the rows in step order from zero: on zeroed gradients that is
  // what one graph per step accumulated.
  const nn::VarPtr v = model.value(nn::Tensor::stack_rows(obs));
  return nn::mul_scalar(nn::square(nn::sub(v, nn::constant(std::move(returns)))), scale);
}

struct Ppo::ShardGrads {
  double loss_sum = 0.0;
  double kl_sum = 0.0;
  double entropy_sum = 0.0;
  std::size_t clip_count = 0;
  std::size_t n = 0;
  double inv_batch = 1.0;  // 1 / minibatch size (loss scaling)
};

Ppo::Ppo(ActorCritic& model, const PpoConfig& config, util::ThreadPool* pool)
    : model_(model),
      config_(config),
      pool_(pool),
      policy_opt_(model.policy_parameters(), config.policy_lr),
      value_opt_(model.value_parameters(), config.value_lr) {
  // One replica per gradient shard, independent of the pool size: the
  // shard structure (and thus the reduction order) must not change with
  // the worker count or trained models would differ across machines.
  if (pool_ != nullptr) {
    for (std::size_t i = 0; i < config_.grad_shards; ++i) {
      replicas_.push_back(model_.clone());
    }
  }
}

void Ppo::policy_shard(const std::vector<Step*>& steps, ActorCritic& replica,
                       ShardGrads& out) const {
  if (steps.empty()) return;
  // One policy pass over the whole shard; the per-step loss terms below
  // are elementwise over the S x 1 step columns.
  nn::Tensor old_logp(steps.size(), 1);
  nn::Tensor advantage(steps.size(), 1);
  for (std::size_t i = 0; i < steps.size(); ++i) {
    old_logp.at(i, 0) = steps[i]->log_prob;
    advantage.at(i, 0) = steps[i]->advantage;
  }
  const StepPolicyTerms terms = step_policy_terms(replica, steps);
  const nn::VarPtr ratio =
      nn::exp_act(nn::sub(terms.logp_action, nn::constant(std::move(old_logp))));
  const nn::VarPtr adv = nn::constant(std::move(advantage));
  const nn::VarPtr surr1 = nn::mul(ratio, adv);
  const nn::VarPtr surr2 = nn::mul(
      nn::clamp(ratio, 1.0 - config_.clip_ratio, 1.0 + config_.clip_ratio), adv);
  nn::VarPtr loss = nn::neg(nn::minimum(surr1, surr2));
  if (config_.entropy_coef > 0.0) {
    loss = nn::sub(loss, nn::mul_scalar(terms.entropy, config_.entropy_coef));
  }
  loss = nn::mul_scalar(loss, out.inv_batch);
  nn::backward(nn::sum(loss));

  for (std::size_t i = 0; i < steps.size(); ++i) {
    out.loss_sum += loss->value[i] / out.inv_batch;
    out.kl_sum += steps[i]->log_prob - terms.logp_action->value[i];
    out.entropy_sum += terms.entropy->value[i];
    const double r = ratio->value[i];
    if (r < 1.0 - config_.clip_ratio || r > 1.0 + config_.clip_ratio) ++out.clip_count;
    ++out.n;
  }
}

void Ppo::value_shard(const std::vector<Step*>& steps, ActorCritic& replica,
                      ShardGrads& out) const {
  if (steps.empty()) return;
  const nn::VarPtr loss = step_value_losses(replica, steps, out.inv_batch);
  nn::backward(nn::sum(loss));
  for (std::size_t i = 0; i < steps.size(); ++i) {
    out.loss_sum += loss->value[i] / out.inv_batch;
    ++out.n;
  }
}

std::vector<Step*> Ppo::sample_minibatch(const std::vector<Step*>& all,
                                         util::Rng& rng) const {
  if (config_.minibatch_size == 0 || all.size() <= config_.minibatch_size) return all;
  std::vector<Step*> mb;
  mb.reserve(config_.minibatch_size);
  const auto n = static_cast<std::int64_t>(all.size());
  for (std::size_t i = 0; i < config_.minibatch_size; ++i) {
    mb.push_back(all[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
  }
  return mb;
}

namespace {

/// Zero p's grads, run `shards` (one per replica slice), then reduce the
/// replica gradients into the master parameters.
void reduce_grads(const std::vector<nn::VarPtr>& master,
                  const std::vector<std::vector<nn::VarPtr>>& replica_params) {
  for (const auto& rp : replica_params) {
    for (std::size_t i = 0; i < master.size(); ++i) {
      if (rp[i]->has_grad()) master[i]->accumulate_grad(rp[i]->grad);
    }
  }
}

}  // namespace

PpoStats Ppo::update(RolloutBuffer& buffer, util::Rng& rng) {
  if (!buffer.finished()) {
    buffer.finish(config_.gamma, config_.lambda, config_.normalize_advantages);
  }
  const std::vector<Step*> all = buffer.flat_steps();
  if (all.empty()) throw std::invalid_argument("Ppo::update: empty buffer");

  PpoStats stats;

  // Run one minibatch through (policy|value) shards, possibly in
  // parallel, and leave reduced gradients on the master parameters.
  const auto run_batch = [&](const std::vector<Step*>& mb, bool policy) -> ShardGrads {
    ShardGrads total;
    total.inv_batch = 1.0 / static_cast<double>(mb.size());
    if (pool_ == nullptr || replicas_.empty() || mb.size() < 64) {
      if (policy) {
        policy_shard(mb, model_, total);
      } else {
        value_shard(mb, model_, total);
      }
      return total;
    }
    const std::size_t shards = std::min(replicas_.size(), mb.size());
    std::vector<ShardGrads> grads(shards);
    std::vector<std::vector<Step*>> slices(shards);
    for (std::size_t i = 0; i < mb.size(); ++i) slices[i % shards].push_back(mb[i]);
    pool_->parallel_for(shards, [&](std::size_t k) {
      auto& replica = *replicas_[k];
      replica.sync_from(model_);
      for (const auto& p : replica.policy_parameters()) p->zero_grad();
      for (const auto& p : replica.value_parameters()) p->zero_grad();
      grads[k].inv_batch = total.inv_batch;
      if (policy) {
        policy_shard(slices[k], replica, grads[k]);
      } else {
        value_shard(slices[k], replica, grads[k]);
      }
    });
    std::vector<std::vector<nn::VarPtr>> replica_params;
    replica_params.reserve(shards);
    for (std::size_t k = 0; k < shards; ++k) {
      replica_params.push_back(policy ? replicas_[k]->policy_parameters()
                                      : replicas_[k]->value_parameters());
    }
    reduce_grads(policy ? model_.policy_parameters() : model_.value_parameters(),
                 replica_params);
    for (const auto& g : grads) {
      total.loss_sum += g.loss_sum;
      total.kl_sum += g.kl_sum;
      total.entropy_sum += g.entropy_sum;
      total.clip_count += g.clip_count;
      total.n += g.n;
    }
    return total;
  };

  // --- policy iterations with approximate-KL early stopping ---
  for (std::size_t iter = 0; iter < config_.train_iters; ++iter) {
    const std::vector<Step*> mb = sample_minibatch(all, rng);
    policy_opt_.zero_grad();
    const ShardGrads g = run_batch(mb, /*policy=*/true);
    const auto n = static_cast<double>(std::max<std::size_t>(g.n, 1));
    stats.approx_kl = g.kl_sum / n;
    stats.policy_loss = g.loss_sum / n;
    stats.entropy = g.entropy_sum / n;
    stats.clip_fraction = static_cast<double>(g.clip_count) / n;
    if (config_.target_kl > 0.0 && stats.approx_kl > 1.5 * config_.target_kl) {
      // SpinningUp convention: stop before applying this update.
      break;
    }
    stats.grad_norm = policy_opt_.clip_grad_norm(config_.max_grad_norm);
    policy_opt_.step();
    ++stats.policy_iters;
  }

  // --- value iterations ---
  for (std::size_t iter = 0; iter < config_.train_iters; ++iter) {
    const std::vector<Step*> mb = sample_minibatch(all, rng);
    value_opt_.zero_grad();
    const ShardGrads g = run_batch(mb, /*policy=*/false);
    stats.value_loss = g.loss_sum / static_cast<double>(std::max<std::size_t>(g.n, 1));
    value_opt_.clip_grad_norm(config_.max_grad_norm);
    value_opt_.step();
    ++stats.value_iters;
  }
  return stats;
}

}  // namespace rlbf::rl
