#include "nn/layers.h"

#include <cmath>
#include <stdexcept>

#include "obs/metrics.h"

namespace rlbf::nn {

VarPtr activate(const VarPtr& x, Activation act) {
  switch (act) {
    case Activation::None: return x;
    case Activation::Relu: return relu(x);
    case Activation::Tanh: return tanh_act(x);
  }
  throw std::logic_error("unknown activation");
}

Linear::Linear(std::size_t in_features, std::size_t out_features, util::Rng& rng)
    : in_(in_features), out_(out_features) {
  if (in_ == 0 || out_ == 0) throw std::invalid_argument("Linear: zero dimension");
  weight_ = make_var(Tensor::xavier(in_, out_, rng), /*requires_grad=*/true);
  bias_ = make_var(Tensor::zeros(1, out_), /*requires_grad=*/true);
}

VarPtr Linear::forward(const VarPtr& x, const Segments& segments) const {
  return add(matmul(x, weight_, segments), bias_, segments);
}

Linear Linear::clone() const {
  Linear copy;
  copy.in_ = in_;
  copy.out_ = out_;
  copy.weight_ = make_var(weight_->value, true);
  copy.bias_ = make_var(bias_->value, true);
  return copy;
}

Mlp::Mlp(const std::vector<std::size_t>& dims, Activation hidden_activation,
         util::Rng& rng)
    : dims_(dims), act_(hidden_activation) {
  if (dims.size() < 2) throw std::invalid_argument("Mlp: need at least in/out dims");
  layers_.reserve(dims.size() - 1);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

namespace {

/// One multi-row call that replaces what would otherwise be a per-row
/// pass per job: the ratio of batched_forward to (forward +
/// forward_value) shows how much per-job work the batching collapsed.
void count_forward(std::size_t rows, const char* which) {
  static obs::CachedCounter forward("nn.forward_calls");
  static obs::CachedCounter value("nn.forward_value_calls");
  static obs::CachedCounter batched("nn.batched_forward_calls");
  static obs::CachedCounter batched_rows("nn.batched_forward_rows");
  (which[0] == 'g' ? forward : value).add(1);
  if (rows > 1) {
    batched.add(1);
    batched_rows.add(rows);
  }
}

}  // namespace

VarPtr Mlp::forward(const VarPtr& x, const Segments& segments) const {
  if (obs::enabled()) count_forward(x->value.rows(), "graph");
  VarPtr h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].forward(h, segments);
    if (i + 1 < layers_.size()) h = activate(h, act_);
  }
  return h;
}

Tensor Mlp::forward_value(const Tensor& x) const {
  Tensor out, scratch;
  forward_value_into(x, out, scratch);
  return out;
}

void Mlp::forward_value_into(MatrixRef x, Tensor& out, Tensor& scratch) const {
  if (obs::enabled()) count_forward(x.rows, "value");
  // Ping-pong between `out` and `scratch` so a caller-owned pair of
  // buffers makes the whole pass allocation-free once warmed up. Each
  // element gets its matmul sum, then its bias, then the activation —
  // the graph forward's operations in its order, so values match it bit
  // for bit.
  MatrixRef h = x;
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    // Layers alternate targets; the final layer must land in `out`.
    const bool last = i + 1 == layers_.size();
    const bool to_out = last || (layers_.size() - 1 - i) % 2 == 0;
    Tensor& dst = to_out ? out : scratch;
    Tensor::matmul_into(h, layers_[i].weight()->value, dst);
    const double* bias = layers_[i].bias()->value.data().data();
    const std::size_t rows = dst.rows();
    const std::size_t cols = dst.cols();
    double* d = dst.data().data();
    const auto bias_then = [&](auto activation) {
      for (std::size_t r = 0; r < rows; ++r, d += cols) {
        for (std::size_t c = 0; c < cols; ++c) d[c] = activation(d[c] + bias[c]);
      }
    };
    switch (last ? Activation::None : act_) {
      case Activation::None: bias_then([](double v) { return v; }); break;
      case Activation::Relu: bias_then([](double v) { return v > 0.0 ? v : 0.0; }); break;
      case Activation::Tanh: bias_then([](double v) { return std::tanh(v); }); break;
    }
    h = dst;
  }
}

std::size_t Mlp::in_features() const { return dims_.front(); }
std::size_t Mlp::out_features() const { return dims_.back(); }

std::vector<VarPtr> Mlp::parameters() const {
  std::vector<VarPtr> params;
  params.reserve(layers_.size() * 2);
  for (const auto& l : layers_) {
    for (auto& p : l.parameters()) params.push_back(std::move(p));
  }
  return params;
}

std::size_t Mlp::parameter_count() const {
  std::size_t n = 0;
  for (const auto& p : parameters()) n += p->value.size();
  return n;
}

void Mlp::scale_output_layer(double factor) {
  const Linear& last = layers_.back();
  last.weight()->value.mul_(factor);
  last.bias()->value.mul_(factor);
}

Mlp Mlp::clone() const {
  Mlp copy = *this;
  copy.layers_.clear();
  for (const auto& l : layers_) copy.layers_.push_back(l.clone());
  return copy;
}

void Mlp::copy_parameters_from(const Mlp& other) {
  const auto mine = parameters();
  const auto theirs = other.parameters();
  if (mine.size() != theirs.size()) {
    throw std::invalid_argument("copy_parameters_from: layer count mismatch");
  }
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (!mine[i]->value.same_shape(theirs[i]->value)) {
      throw std::invalid_argument("copy_parameters_from: shape mismatch");
    }
    mine[i]->value = theirs[i]->value;
  }
}

}  // namespace rlbf::nn
