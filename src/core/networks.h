// The two RLBackfilling actor-critic variants.
//
// KernelActorCritic (paper §3.3): the policy is a small 3-hidden-layer
// MLP applied to *each job vector independently* (a batched matmul over
// the observation rows), producing one score per job; masked softmax
// over the scores gives the backfill distribution. Order-insensitive
// and parameter-light by construction. The critic is a plain MLP over
// the flattened fixed-size observation.
//
// FlatActorCritic (ablation A1): the policy is an MLP over the whole
// flattened, zero-padded observation emitting MAX_OBSV_SIZE logits —
// the design the paper's kernel network is contrasted against.
#pragma once

#include <memory>

#include "core/observation.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "rl/ppo.h"

namespace rlbf::core {

struct NetworkConfig {
  std::vector<std::size_t> policy_hidden = {32, 16, 8};
  std::vector<std::size_t> value_hidden = {64, 32};
  nn::Activation activation = nn::Activation::Relu;
  /// Scale of the policy head's output layer at init. Small values keep
  /// the initial softmax near-uniform over candidates so exploration
  /// and log-prob gradients survive the first epochs.
  double policy_output_scale = 0.01;
};

class KernelActorCritic final : public rl::ActorCritic {
 public:
  KernelActorCritic(const ObservationConfig& obs, const NetworkConfig& net,
                    util::Rng& rng);
  /// Reconstruct from saved networks (shape-checked).
  KernelActorCritic(const ObservationConfig& obs, nn::Mlp policy, nn::Mlp value);

  /// Every observation's job rows stacked into one kernel pass, one
  /// gradient segment per observation.
  nn::VarPtr policy_logits_batch(
      const std::vector<const nn::Tensor*>& obs) const override;
  nn::VarPtr value(const nn::Tensor& value_obs) const override;
  void policy_logits_into(const nn::Tensor& policy_obs, nn::Tensor& out,
                          nn::Tensor& scratch) const override;
  double value_nograd(const nn::Tensor& value_obs) const override;
  /// Kernel batching: all observations' job rows concatenate into ONE
  /// matrix-matrix forward (the kernel scores rows independently), then
  /// split back per observation — bit-identical to per-observation calls.
  std::vector<nn::Tensor> policy_logits_nograd_batch(
      const std::vector<const nn::Tensor*>& obs) const override;
  std::vector<nn::VarPtr> policy_parameters() const override;
  std::vector<nn::VarPtr> value_parameters() const override;
  std::unique_ptr<rl::ActorCritic> clone() const override;
  void sync_from(const rl::ActorCritic& other) override;

  const nn::Mlp& policy_net() const { return policy_; }
  const nn::Mlp& value_net() const { return value_; }

 private:
  ObservationConfig obs_;
  nn::Mlp policy_;  // per-row kernel: [F, hidden..., 1]
  nn::Mlp value_;   // [value_feature_dim, hidden..., 1]
};

class FlatActorCritic final : public rl::ActorCritic {
 public:
  FlatActorCritic(const ObservationConfig& obs, const NetworkConfig& net,
                  util::Rng& rng);
  FlatActorCritic(const ObservationConfig& obs, nn::Mlp policy, nn::Mlp value);

  /// One flattened row per observation, each its own gradient segment.
  nn::VarPtr policy_logits_batch(
      const std::vector<const nn::Tensor*>& obs) const override;
  nn::VarPtr value(const nn::Tensor& value_obs) const override;
  /// The padded observation read as one flattened row; `out` is
  /// reshaped to padded_policy_rows() x 1.
  void policy_logits_into(const nn::Tensor& policy_obs, nn::Tensor& out,
                          nn::Tensor& scratch) const override;
  double value_nograd(const nn::Tensor& value_obs) const override;
  /// Flat batching: the padded observations each flatten to one row, so
  /// B observations stack into a B-row matrix for one forward pass.
  std::vector<nn::Tensor> policy_logits_nograd_batch(
      const std::vector<const nn::Tensor*>& obs) const override;
  std::vector<nn::VarPtr> policy_parameters() const override;
  std::vector<nn::VarPtr> value_parameters() const override;
  std::unique_ptr<rl::ActorCritic> clone() const override;
  void sync_from(const rl::ActorCritic& other) override;

  const nn::Mlp& policy_net() const { return policy_; }
  const nn::Mlp& value_net() const { return value_; }

 private:
  /// The padded observations as one flattened row each.
  nn::Tensor stack_flat(const std::vector<const nn::Tensor*>& obs) const;

  ObservationConfig obs_;
  nn::Mlp policy_;  // [max_obsv_size * F, hidden..., max_obsv_size]
  nn::Mlp value_;
};

}  // namespace rlbf::core
