// Test-only reference PPO update: the per-step implementation that the
// batched update replaced. Every step builds its own autograd graph and
// runs its own backward pass, for the policy and for the critic, so the
// gradients accumulate into the parameters one step at a time in step
// order. The parity tests hold rl::Ppo to exactly these bytes.
// Deliberately kept naive — do not batch or optimise it.
#pragma once

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "rl/ppo.h"

namespace rlbf::rl::reference {

class Ppo {
 public:
  Ppo(ActorCritic& model, const PpoConfig& config, util::ThreadPool* pool = nullptr)
      : model_(model),
        config_(config),
        pool_(pool),
        policy_opt_(model.policy_parameters(), config.policy_lr),
        value_opt_(model.value_parameters(), config.value_lr) {
    if (pool_ != nullptr) {
      for (std::size_t i = 0; i < config_.grad_shards; ++i) {
        replicas_.push_back(model_.clone());
      }
    }
  }

  PpoStats update(RolloutBuffer& buffer, util::Rng& rng) {
    if (!buffer.finished()) {
      buffer.finish(config_.gamma, config_.lambda, config_.normalize_advantages);
    }
    const std::vector<Step*> all = buffer.flat_steps();
    if (all.empty()) throw std::invalid_argument("reference::Ppo::update: empty buffer");

    PpoStats stats;
    for (std::size_t iter = 0; iter < config_.train_iters; ++iter) {
      const std::vector<Step*> mb = sample_minibatch(all, rng);
      policy_opt_.zero_grad();
      const ShardGrads g = run_batch(mb, /*policy=*/true);
      const auto n = static_cast<double>(std::max<std::size_t>(g.n, 1));
      stats.approx_kl = g.kl_sum / n;
      stats.policy_loss = g.loss_sum / n;
      stats.entropy = g.entropy_sum / n;
      stats.clip_fraction = static_cast<double>(g.clip_count) / n;
      if (config_.target_kl > 0.0 && stats.approx_kl > 1.5 * config_.target_kl) break;
      stats.grad_norm = policy_opt_.clip_grad_norm(config_.max_grad_norm);
      policy_opt_.step();
      ++stats.policy_iters;
    }
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

 private:
  struct ShardGrads {
    double loss_sum = 0.0;
    double kl_sum = 0.0;
    double entropy_sum = 0.0;
    std::size_t clip_count = 0;
    std::size_t n = 0;
    double inv_batch = 1.0;
  };

  void policy_shard(const std::vector<Step*>& steps, ActorCritic& replica,
                    ShardGrads& out) const {
    for (const Step* s : steps) {
      const nn::VarPtr logits = replica.policy_logits(s->policy_obs);
      const nn::VarPtr logp_all = nn::masked_log_softmax(logits, s->mask);
      const nn::VarPtr logp_a = nn::pick(logp_all, s->action, 0);
      const nn::VarPtr ratio = nn::exp_act(nn::sub(logp_a, nn::scalar(s->log_prob)));
      const nn::VarPtr surr1 = nn::mul_scalar(ratio, s->advantage);
      const nn::VarPtr surr2 = nn::mul_scalar(
          nn::clamp(ratio, 1.0 - config_.clip_ratio, 1.0 + config_.clip_ratio),
          s->advantage);
      nn::VarPtr loss = nn::neg(nn::minimum(surr1, surr2));
      const nn::VarPtr entropy = nn::masked_entropy(logp_all, s->mask);
      if (config_.entropy_coef > 0.0) {
        loss = nn::sub(loss, nn::mul_scalar(entropy, config_.entropy_coef));
      }
      loss = nn::mul_scalar(loss, out.inv_batch);
      nn::backward(loss);

      out.loss_sum += loss->value.item() / out.inv_batch;
      out.kl_sum += s->log_prob - logp_a->value.item();
      out.entropy_sum += entropy->value.item();
      const double r = ratio->value.item();
      if (r < 1.0 - config_.clip_ratio || r > 1.0 + config_.clip_ratio) ++out.clip_count;
      ++out.n;
    }
  }

  void value_shard(const std::vector<Step*>& steps, ActorCritic& replica,
                   ShardGrads& out) const {
    for (const Step* s : steps) {
      const nn::VarPtr v = replica.value(s->value_obs);
      nn::VarPtr loss = nn::square(nn::sub(v, nn::scalar(s->ret)));
      loss = nn::mul_scalar(loss, out.inv_batch);
      nn::backward(loss);
      out.loss_sum += loss->value.item() / out.inv_batch;
      ++out.n;
    }
  }

  std::vector<Step*> sample_minibatch(const std::vector<Step*>& all,
                                      util::Rng& rng) const {
    if (config_.minibatch_size == 0 || all.size() <= config_.minibatch_size) return all;
    std::vector<Step*> mb;
    const auto n = static_cast<std::int64_t>(all.size());
    for (std::size_t i = 0; i < config_.minibatch_size; ++i) {
      mb.push_back(all[static_cast<std::size_t>(rng.uniform_int(0, n - 1))]);
    }
    return mb;
  }

  ShardGrads run_batch(const std::vector<Step*>& mb, bool policy) {
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
    const auto master = policy ? model_.policy_parameters() : model_.value_parameters();
    for (std::size_t k = 0; k < shards; ++k) {
      const auto rp = policy ? replicas_[k]->policy_parameters()
                             : replicas_[k]->value_parameters();
      for (std::size_t i = 0; i < master.size(); ++i) {
        if (rp[i]->has_grad()) master[i]->accumulate_grad(rp[i]->grad);
      }
    }
    for (const auto& g : grads) {
      total.loss_sum += g.loss_sum;
      total.kl_sum += g.kl_sum;
      total.entropy_sum += g.entropy_sum;
      total.clip_count += g.clip_count;
      total.n += g.n;
    }
    return total;
  }

  ActorCritic& model_;
  PpoConfig config_;
  util::ThreadPool* pool_;
  nn::Adam policy_opt_;
  nn::Adam value_opt_;
  std::vector<std::unique_ptr<ActorCritic>> replicas_;
};

}  // namespace rlbf::rl::reference
