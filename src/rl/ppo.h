// Proximal Policy Optimization (Schulman et al. 2017), following the
// OpenAI SpinningUp reference the paper implements against: clipped
// surrogate objective, separate policy/value Adam optimizers, K update
// iterations per epoch with approximate-KL early stopping for the
// policy, GAE-lambda advantages normalized per epoch.
//
// The policy is a masked categorical over a variable number of
// candidates: the ActorCritic scores each observation row and PPO
// renormalizes over the step's valid-action mask. Updates can fan out
// over a thread pool (per-thread model replicas, gradient reduction on
// the caller thread).
#pragma once

#include <memory>

#include "nn/optim.h"
#include "rl/rollout.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rlbf::rl {

/// The model PPO trains: a row-scoring policy and a scalar critic.
class ActorCritic {
 public:
  virtual ~ActorCritic() = default;

  /// Logits column (rows x 1) over the observation's rows, as a graph.
  nn::VarPtr policy_logits(const nn::Tensor& policy_obs) const {
    return policy_logits_batch({&policy_obs});
  }
  /// Logits of many observations stacked into one column (observation
  /// i's rows right after observation i-1's), as one graph. Parameter
  /// gradients from backpropagating it equal, byte for byte, those from
  /// backpropagating each observation's policy_logits graph in turn.
  virtual nn::VarPtr policy_logits_batch(
      const std::vector<const nn::Tensor*>& obs) const = 0;
  /// Critic estimate (1 x 1) of the flattened observation, as a graph.
  virtual nn::VarPtr value(const nn::Tensor& value_obs) const = 0;

  /// Graph-free logits column (rows x 1) into caller-owned buffers:
  /// `out` receives it, `scratch` holds intermediate activations.
  /// Allocation-free once both have seen their largest shapes — the
  /// deployed agent's per-decision path.
  virtual void policy_logits_into(const nn::Tensor& policy_obs, nn::Tensor& out,
                                  nn::Tensor& scratch) const = 0;
  /// policy_logits_into with fresh buffers (rollout collection).
  nn::Tensor policy_logits_nograd(const nn::Tensor& policy_obs) const;
  virtual double value_nograd(const nn::Tensor& value_obs) const = 0;

  /// Score many observations in one pass where the model supports it
  /// (DQN target batches). Bit-identical element-wise to calling
  /// policy_logits_nograd once per observation; the base implementation
  /// is exactly that loop. `obs` pointers must be non-null.
  virtual std::vector<nn::Tensor> policy_logits_nograd_batch(
      const std::vector<const nn::Tensor*>& obs) const;

  virtual std::vector<nn::VarPtr> policy_parameters() const = 0;
  virtual std::vector<nn::VarPtr> value_parameters() const = 0;

  /// Independent deep copy (worker-thread replica).
  virtual std::unique_ptr<ActorCritic> clone() const = 0;
  /// Overwrite parameter values from a same-shaped model.
  virtual void sync_from(const ActorCritic& other) = 0;
};

/// Masked-categorical helpers over a logits column.
struct CategoricalSample {
  std::size_t action = 0;
  double log_prob = 0.0;
};
/// Sample from softmax(logits[mask]); used during training rollouts.
/// The softmax weights go to the caller's `probs` (resized to the
/// mask), so a caller reusing it across decisions allocates nothing
/// once it has seen the widest mask.
CategoricalSample sample_masked(const nn::Tensor& logits,
                                const std::vector<std::uint8_t>& mask, util::Rng& rng,
                                std::vector<double>& probs);
/// Argmax over valid entries; used at test time ("during testing, we
/// directly select the job with the highest probability").
std::size_t argmax_masked(const nn::Tensor& logits,
                          const std::vector<std::uint8_t>& mask);

/// A run of steps' masked categoricals from one batched policy pass:
/// each step's log-probability of its taken action and its entropy
/// (S x 1 each). Backpropagating any per-step loss built from them gives
/// the parameter gradients, byte for byte, of backpropagating every
/// step's own graph in step order.
struct StepPolicyTerms {
  nn::VarPtr logp_action;
  nn::VarPtr entropy;
};
StepPolicyTerms step_policy_terms(const ActorCritic& model,
                                  const std::vector<Step*>& steps);

/// Each step's critic loss scale * (V(s) - return)^2 (S x 1) from one
/// batched critic pass. Backpropagated onto zeroed critic gradients it
/// gives the bytes of one graph per step backpropagated in step order.
nn::VarPtr step_value_losses(const ActorCritic& model, const std::vector<Step*>& steps,
                             double scale);

struct PpoConfig {
  /// 1.0 (undiscounted) matches the paper's delayed terminal reward —
  /// "only accumulated rewards are used for training".
  double gamma = 1.0;
  double lambda = 0.97;
  double clip_ratio = 0.2;
  double policy_lr = 1e-3;  // the paper's learning rate
  double value_lr = 1e-3;
  std::size_t train_iters = 80;  // the paper's 80 update iterations
  /// Steps per update iteration; 0 = full batch (SpinningUp behavior,
  /// expensive for large buffers).
  std::size_t minibatch_size = 1024;
  /// Entropy bonus coefficient. SpinningUp defaults to 0; a small bonus
  /// keeps the masked categorical from collapsing early on the long
  /// sparse-reward episodes this problem produces.
  double entropy_coef = 0.01;
  /// Stop policy iterations when approx-KL exceeds 1.5x this; <= 0
  /// disables early stopping.
  double target_kl = 0.015;
  double max_grad_norm = 10.0;
  bool normalize_advantages = true;
  /// Gradient shards per minibatch when a thread pool is available. The
  /// shard count is FIXED (not derived from the pool size) so the
  /// floating-point reduction order — and therefore the trained model —
  /// is bit-identical at any thread count; shards are merely distributed
  /// over however many workers exist. 0 disables sharding.
  std::size_t grad_shards = 8;
};

struct PpoStats {
  double policy_loss = 0.0;   // last-iteration clipped surrogate
  double value_loss = 0.0;    // last-iteration MSE
  double approx_kl = 0.0;     // last policy iteration estimate
  double entropy = 0.0;       // mean over last policy minibatch
  std::size_t policy_iters = 0;
  std::size_t value_iters = 0;
  double clip_fraction = 0.0;  // fraction of clipped ratios, last iter
  /// Pre-clip policy gradient L2 norm, last applied iteration (the
  /// value clip_grad_norm measured before scaling). 0 when no policy
  /// iteration applied its update.
  double grad_norm = 0.0;
};

class Ppo {
 public:
  /// `pool` may be null (single-threaded updates). The model reference
  /// must outlive the Ppo instance.
  Ppo(ActorCritic& model, const PpoConfig& config, util::ThreadPool* pool = nullptr);

  /// One PPO epoch over a finished buffer (finish() already called —
  /// update() calls it if not). `rng` drives minibatch sampling.
  PpoStats update(RolloutBuffer& buffer, util::Rng& rng);

  const PpoConfig& config() const { return config_; }

 private:
  struct ShardGrads;

  /// Mean policy loss + grads for a shard of steps on a replica.
  void policy_shard(const std::vector<Step*>& steps, ActorCritic& replica,
                    ShardGrads& out) const;
  void value_shard(const std::vector<Step*>& steps, ActorCritic& replica,
                   ShardGrads& out) const;

  std::vector<Step*> sample_minibatch(const std::vector<Step*>& all,
                                      util::Rng& rng) const;

  ActorCritic& model_;
  PpoConfig config_;
  util::ThreadPool* pool_;
  nn::Adam policy_opt_;
  nn::Adam value_opt_;
  std::vector<std::unique_ptr<ActorCritic>> replicas_;
};

}  // namespace rlbf::rl
