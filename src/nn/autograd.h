// Reverse-mode automatic differentiation over Tensor.
//
// Computation graphs are built dynamically: every op returns a new
// Variable holding its value, its parents, and a closure that scatters
// the upstream gradient to the parents. backward() topologically sorts
// the graph from a scalar root and runs the closures in reverse.
//
// This is the substrate standing in for PyTorch (DESIGN.md §3): the op
// set is exactly what PPO with a masked categorical policy needs, and
// every op's gradient is finite-difference-checked in tests/nn/.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "nn/tensor.h"

namespace rlbf::nn {

class Variable;
using VarPtr = std::shared_ptr<Variable>;

class Variable {
 public:
  explicit Variable(Tensor value, bool requires_grad = false)
      : value(std::move(value)), requires_grad(requires_grad) {}

  Tensor value;
  /// Lazily sized on first accumulation; survives across graphs for
  /// parameter nodes (zeroed by the optimizer).
  Tensor grad;
  bool requires_grad = false;

  std::vector<VarPtr> parents;
  /// Reads this->grad, accumulates into parents' grads. Null for leaves.
  std::function<void()> backward_fn;

  /// Accumulate g into grad (allocating on first use).
  void accumulate_grad(const Tensor& g);
  /// grad, allocated as zeros on first use (for in-place accumulation).
  Tensor& grad_buffer();
  bool has_grad() const { return grad.size() == value.size() && grad.size() > 0; }
  void zero_grad();
};

/// Leaf node; set requires_grad for parameters.
VarPtr make_var(Tensor value, bool requires_grad = false);
/// Non-differentiable constant.
VarPtr constant(Tensor value);
VarPtr scalar(double v);

/// Row offsets {0, e_1, ..., e_S = rows} that cut a stacked batch into S
/// consecutive row segments, one per stacked item (say, one training
/// step's candidate rows). Null stands for one segment over every row.
///
/// Ops that take segments reduce over rows segment by segment, exactly
/// as if each segment had been its own graph: a batch of S segments
/// backpropagated once leaves the same gradient bytes as S one-segment
/// graphs backpropagated in segment order.
using Segments = std::shared_ptr<const std::vector<std::size_t>>;
/// Segments over consecutive runs of the given row counts.
Segments make_segments(const std::vector<std::size_t>& row_counts);

/// Elementwise a + b. b may also be 1 x cols (row broadcast over a's
/// rows, the Linear bias case) or 1 x 1 (scalar broadcast). A broadcast
/// row's gradient is summed per segment of a's rows, and each segment's
/// sum is added to b's gradient in turn.
VarPtr add(const VarPtr& a, const VarPtr& b, const Segments& segments = nullptr);
/// a - b (same broadcast rules via add/neg).
VarPtr sub(const VarPtr& a, const VarPtr& b);
/// Elementwise product, same shape only.
VarPtr mul(const VarPtr& a, const VarPtr& b);
VarPtr mul_scalar(const VarPtr& a, double s);
VarPtr neg(const VarPtr& a);
/// a x b. b's gradient is aᵀg formed per segment of a's rows, each
/// segment's product added to b's gradient in turn.
VarPtr matmul(const VarPtr& a, const VarPtr& b, const Segments& segments = nullptr);
/// matmul's gradient for b: grad += Σ_s a_sᵀ g_s over the row segments
/// `off` (as make_segments builds them) of a and g. Each segment's product
/// is formed from zero by matmul_kernel and only then added to grad: the
/// bytes a per-segment graph's backward plus accumulate_grad would give.
void accumulate_segment_products(const Tensor& a, const Tensor& g,
                                 const std::vector<std::size_t>& off, Tensor& grad);

VarPtr relu(const VarPtr& a);
VarPtr tanh_act(const VarPtr& a);
VarPtr exp_act(const VarPtr& a);
VarPtr square(const VarPtr& a);
/// Elementwise Huber loss of a residual: 0.5 x^2 inside |x| <= delta,
/// delta(|x| - delta/2) outside. Gradient clamp(x, -delta, delta) — the
/// outlier-robust regression loss DQN fits Q targets with.
VarPtr huber(const VarPtr& a, double delta);

/// Reductions to 1 x 1.
VarPtr sum(const VarPtr& a);
VarPtr mean(const VarPtr& a);

/// Elementwise clamp; gradient passes only strictly inside (lo, hi).
VarPtr clamp(const VarPtr& a, double lo, double hi);
/// Elementwise min; gradient follows the smaller input (ties -> a).
VarPtr minimum(const VarPtr& a, const VarPtr& b);

/// Select one element as a 1 x 1 variable.
VarPtr pick(const VarPtr& a, std::size_t r, std::size_t c);
/// Select rows (in any order, repeats allowed) as a rows.size() x cols
/// variable.
VarPtr pick_rows(const VarPtr& a, const std::vector<std::size_t>& rows);
/// Copy-reshape (gradient reshapes back).
VarPtr reshape(const VarPtr& a, std::size_t rows, std::size_t cols);

/// Value used for masked-out logits' log-probabilities.
inline constexpr double kMaskedLogProb = -1e30;

/// Masked log-softmax over a column vector (N x 1), normalized within
/// each segment. Entries with mask[i] == 0 are excluded from the
/// normalization, produce kMaskedLogProb, and receive zero gradient.
/// Every segment needs at least one valid entry.
VarPtr masked_log_softmax(const VarPtr& logits, const std::vector<std::uint8_t>& mask,
                          const Segments& segments = nullptr);

/// Entropy of each segment's masked categorical given its
/// log-probabilities: -sum_valid exp(lp) * lp, as an S x 1 variable
/// (1 x 1 without segments).
VarPtr masked_entropy(const VarPtr& log_probs, const std::vector<std::uint8_t>& mask,
                      const Segments& segments = nullptr);

/// Backpropagate from a scalar (1 x 1) root with seed gradient 1.
void backward(const VarPtr& root);

}  // namespace rlbf::nn
