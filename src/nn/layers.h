// Neural-network building blocks on top of the autograd layer: Linear,
// and the 3-layer MLP both RLBackfilling networks are built from (the
// kernel policy net applies the MLP to each job vector independently;
// the value net applies it to the flattened observation).
#pragma once

#include <string>
#include <vector>

#include "nn/autograd.h"
#include "util/rng.h"

namespace rlbf::nn {

enum class Activation { None, Relu, Tanh };

/// Apply an activation as an autograd op.
VarPtr activate(const VarPtr& x, Activation act);

/// Fully connected layer: y = x W + b, Xavier-initialized.
class Linear {
 public:
  Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng);

  /// x: [batch x in] -> [batch x out]. W and b gradients are summed per
  /// segment of x's rows (see nn::Segments).
  VarPtr forward(const VarPtr& x, const Segments& segments = nullptr) const;

  std::size_t in_features() const { return in_; }
  std::size_t out_features() const { return out_; }

  /// Parameter nodes (W, b) — shared with every forward graph.
  std::vector<VarPtr> parameters() const { return {weight_, bias_}; }
  const VarPtr& weight() const { return weight_; }
  const VarPtr& bias() const { return bias_; }

  /// Deep copy with independent parameters (for worker-thread snapshots).
  Linear clone() const;

 private:
  Linear() = default;
  std::size_t in_ = 0;
  std::size_t out_ = 0;
  VarPtr weight_;  // [in x out]
  VarPtr bias_;    // [1 x out]
};

/// Multi-layer perceptron with a shared hidden activation and linear
/// output. `dims` = {in, h1, ..., out}, so {7, 32, 16, 8, 1} is the
/// paper's 3-hidden-layer kernel network.
class Mlp {
 public:
  Mlp(const std::vector<std::size_t>& dims, Activation hidden_activation,
      util::Rng& rng);

  /// Graph forward. With segments, x stacks several inputs and the
  /// parameter gradients come out as if each segment had been its own
  /// forward and backward pass, in segment order (see nn::Segments).
  VarPtr forward(const VarPtr& x, const Segments& segments = nullptr) const;
  /// Value-only forward (no graph construction) for rollout collection.
  /// `x` may hold any number of rows — the whole batch goes through one
  /// matrix-matrix pass per layer. Bit-identical per row to a
  /// row-at-a-time pass (row-independent matmul/bias/activation).
  Tensor forward_value(const Tensor& x) const;
  /// forward_value into caller-owned buffers: `out` receives the result,
  /// `scratch` holds intermediate activations; neither may hold `x`.
  /// Allocation-free once both have seen their largest shapes; results
  /// are bit-identical to forward_value.
  void forward_value_into(MatrixRef x, Tensor& out, Tensor& scratch) const;

  std::size_t in_features() const;
  std::size_t out_features() const;
  const std::vector<std::size_t>& dims() const { return dims_; }
  Activation hidden_activation() const { return act_; }

  std::vector<VarPtr> parameters() const;
  std::size_t parameter_count() const;
  /// Multiply the output layer's weights (and bias) by `factor`. Policy
  /// heads use a small factor (e.g. 0.01) so the initial action
  /// distribution is near-uniform — a saturated softmax at init kills
  /// both exploration and the log-prob gradient.
  void scale_output_layer(double factor);
  Mlp clone() const;
  /// Overwrite this MLP's parameter values from another of equal shape.
  void copy_parameters_from(const Mlp& other);

 private:
  std::vector<std::size_t> dims_;
  Activation act_ = Activation::Tanh;
  std::vector<Linear> layers_;
};

}  // namespace rlbf::nn
