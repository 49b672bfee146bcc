#include "core/networks.h"

#include <algorithm>
#include <stdexcept>

namespace rlbf::core {

namespace {

std::vector<std::size_t> with_ends(std::size_t in, const std::vector<std::size_t>& hidden,
                                   std::size_t out) {
  std::vector<std::size_t> dims;
  dims.reserve(hidden.size() + 2);
  dims.push_back(in);
  dims.insert(dims.end(), hidden.begin(), hidden.end());
  dims.push_back(out);
  return dims;
}

void check_dims(const nn::Mlp& mlp, std::size_t in, std::size_t out, const char* what) {
  if (mlp.in_features() != in || mlp.out_features() != out) {
    throw std::invalid_argument(std::string(what) + ": dimension mismatch");
  }
}

}  // namespace

// ---------------- KernelActorCritic ----------------

KernelActorCritic::KernelActorCritic(const ObservationConfig& obs,
                                     const NetworkConfig& net, util::Rng& rng)
    : obs_(obs),
      policy_(with_ends(ObservationConfig::kFeatures, net.policy_hidden, 1),
              net.activation, rng),
      value_(with_ends(obs.value_feature_dim(), net.value_hidden, 1), net.activation,
             rng) {
  policy_.scale_output_layer(net.policy_output_scale);
}

KernelActorCritic::KernelActorCritic(const ObservationConfig& obs, nn::Mlp policy,
                                     nn::Mlp value)
    : obs_(obs), policy_(std::move(policy)), value_(std::move(value)) {
  check_dims(policy_, ObservationConfig::kFeatures, 1, "kernel policy");
  check_dims(value_, obs.value_feature_dim(), 1, "kernel value");
}

nn::VarPtr KernelActorCritic::policy_logits_batch(
    const std::vector<const nn::Tensor*>& obs) const {
  // The kernel trick: one matmul applies the same per-job MLP to every
  // row, yielding an N x 1 score column directly.
  std::vector<std::size_t> rows;
  rows.reserve(obs.size());
  for (const nn::Tensor* o : obs) rows.push_back(o->rows());
  return policy_.forward(nn::constant(nn::Tensor::stack_rows(obs)),
                         nn::make_segments(rows));
}

nn::VarPtr KernelActorCritic::value(const nn::Tensor& value_obs) const {
  return value_.forward(nn::constant(value_obs));
}

void KernelActorCritic::policy_logits_into(const nn::Tensor& policy_obs, nn::Tensor& out,
                                           nn::Tensor& scratch) const {
  policy_.forward_value_into(policy_obs, out, scratch);
}

double KernelActorCritic::value_nograd(const nn::Tensor& value_obs) const {
  return value_.forward_value(value_obs).item();
}

std::vector<nn::Tensor> KernelActorCritic::policy_logits_nograd_batch(
    const std::vector<const nn::Tensor*>& obs) const {
  if (obs.empty()) return {};
  const nn::Tensor scores = policy_.forward_value(nn::Tensor::stack_rows(obs));
  std::vector<nn::Tensor> out;
  out.reserve(obs.size());
  std::size_t at = 0;
  for (const nn::Tensor* o : obs) {
    nn::Tensor piece(o->rows(), 1);
    for (std::size_t r = 0; r < o->rows(); ++r) piece.at(r, 0) = scores.at(at + r, 0);
    out.push_back(std::move(piece));
    at += o->rows();
  }
  return out;
}

std::vector<nn::VarPtr> KernelActorCritic::policy_parameters() const {
  return policy_.parameters();
}

std::vector<nn::VarPtr> KernelActorCritic::value_parameters() const {
  return value_.parameters();
}

std::unique_ptr<rl::ActorCritic> KernelActorCritic::clone() const {
  return std::make_unique<KernelActorCritic>(obs_, policy_.clone(), value_.clone());
}

void KernelActorCritic::sync_from(const rl::ActorCritic& other) {
  const auto* o = dynamic_cast<const KernelActorCritic*>(&other);
  if (o == nullptr) throw std::invalid_argument("sync_from: model type mismatch");
  policy_.copy_parameters_from(o->policy_);
  value_.copy_parameters_from(o->value_);
}

// ---------------- FlatActorCritic ----------------

FlatActorCritic::FlatActorCritic(const ObservationConfig& obs, const NetworkConfig& net,
                                 util::Rng& rng)
    : obs_(obs),
      policy_(with_ends(obs.padded_policy_rows() * ObservationConfig::kFeatures,
                        net.policy_hidden, obs.padded_policy_rows()),
              net.activation, rng),
      value_(with_ends(obs.value_feature_dim(), net.value_hidden, 1), net.activation,
             rng) {
  if (!obs.pad_policy_obs) {
    throw std::invalid_argument(
        "FlatActorCritic requires ObservationConfig::pad_policy_obs");
  }
  policy_.scale_output_layer(net.policy_output_scale);
}

FlatActorCritic::FlatActorCritic(const ObservationConfig& obs, nn::Mlp policy,
                                 nn::Mlp value)
    : obs_(obs), policy_(std::move(policy)), value_(std::move(value)) {
  check_dims(policy_, obs.padded_policy_rows() * ObservationConfig::kFeatures,
             obs.padded_policy_rows(), "flat policy");
  check_dims(value_, obs.value_feature_dim(), 1, "flat value");
}

nn::Tensor FlatActorCritic::stack_flat(const std::vector<const nn::Tensor*>& obs) const {
  const std::size_t flat = obs_.padded_policy_rows() * ObservationConfig::kFeatures;
  for (const nn::Tensor* o : obs) {
    if (o->size() != flat) {
      throw std::invalid_argument("flat policy: observation must be padded");
    }
  }
  return nn::Tensor::stack_rows(obs).reshaped(obs.size(), flat);
}

nn::VarPtr FlatActorCritic::policy_logits_batch(
    const std::vector<const nn::Tensor*>& obs) const {
  const nn::VarPtr scores = policy_.forward(
      nn::constant(stack_flat(obs)),
      nn::make_segments(std::vector<std::size_t>(obs.size(), 1)));
  return nn::reshape(scores, obs.size() * obs_.padded_policy_rows(), 1);
}

nn::VarPtr FlatActorCritic::value(const nn::Tensor& value_obs) const {
  return value_.forward(nn::constant(value_obs));
}

void FlatActorCritic::policy_logits_into(const nn::Tensor& policy_obs, nn::Tensor& out,
                                         nn::Tensor& scratch) const {
  policy_.forward_value_into(nn::MatrixRef{policy_obs.data().data(), 1, policy_obs.size()},
                             out, scratch);
  out.reshape_(obs_.padded_policy_rows(), 1);
}

double FlatActorCritic::value_nograd(const nn::Tensor& value_obs) const {
  return value_.forward_value(value_obs).item();
}

std::vector<nn::Tensor> FlatActorCritic::policy_logits_nograd_batch(
    const std::vector<const nn::Tensor*>& obs) const {
  if (obs.empty()) return {};
  const nn::Tensor scores = policy_.forward_value(stack_flat(obs));
  std::vector<nn::Tensor> out;
  out.reserve(obs.size());
  for (std::size_t i = 0; i < obs.size(); ++i) {
    out.push_back(scores.row(i).reshaped(obs_.padded_policy_rows(), 1));
  }
  return out;
}

std::vector<nn::VarPtr> FlatActorCritic::policy_parameters() const {
  return policy_.parameters();
}

std::vector<nn::VarPtr> FlatActorCritic::value_parameters() const {
  return value_.parameters();
}

std::unique_ptr<rl::ActorCritic> FlatActorCritic::clone() const {
  return std::make_unique<FlatActorCritic>(obs_, policy_.clone(), value_.clone());
}

void FlatActorCritic::sync_from(const rl::ActorCritic& other) {
  const auto* o = dynamic_cast<const FlatActorCritic*>(&other);
  if (o == nullptr) throw std::invalid_argument("sync_from: model type mismatch");
  policy_.copy_parameters_from(o->policy_);
  value_.copy_parameters_from(o->value_);
}

}  // namespace rlbf::core
