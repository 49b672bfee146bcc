#include "nn/autograd.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "obs/metrics.h"

namespace rlbf::nn {

void Variable::accumulate_grad(const Tensor& g) { grad_buffer().add_(g); }

Tensor& Variable::grad_buffer() {
  if (!has_grad()) grad = Tensor::zeros(value.rows(), value.cols());
  return grad;
}

void Variable::zero_grad() {
  if (grad.size() > 0) grad.fill(0.0);
}

VarPtr make_var(Tensor value, bool requires_grad) {
  return std::make_shared<Variable>(std::move(value), requires_grad);
}

VarPtr constant(Tensor value) { return make_var(std::move(value), false); }

VarPtr scalar(double v) { return constant(Tensor::full(1, 1, v)); }

Segments make_segments(const std::vector<std::size_t>& row_counts) {
  auto offsets = std::make_shared<std::vector<std::size_t>>();
  offsets->reserve(row_counts.size() + 1);
  offsets->push_back(0);
  for (const std::size_t n : row_counts) offsets->push_back(offsets->back() + n);
  return offsets;
}

namespace {

/// `segments` over `rows` rows, with null resolved to one segment.
Segments resolve_segments(const Segments& segments, std::size_t rows, const char* op) {
  if (segments == nullptr) return make_segments({rows});
  const std::vector<std::size_t>& off = *segments;
  if (off.empty() || off.front() != 0 || off.back() != rows ||
      !std::is_sorted(off.begin(), off.end())) {
    throw std::invalid_argument(std::string(op) + ": segments do not cover " +
                                std::to_string(rows) + " rows");
  }
  return segments;
}

}  // namespace

void accumulate_segment_products(const Tensor& a, const Tensor& g,
                                 const std::vector<std::size_t>& off, Tensor& grad) {
  const std::size_t m = a.cols();
  const std::size_t n = g.cols();
  if (g.rows() != a.rows() || grad.rows() != m || grad.cols() != n ||
      !std::is_sorted(off.begin(), off.end()) || (!off.empty() && off.back() > a.rows())) {
    throw std::invalid_argument("accumulate_segment_products: shapes " + a.shape_str() +
                                ", " + g.shape_str() + " into " + grad.shape_str());
  }
  Tensor partial;
  for (std::size_t s = 0; s + 1 < off.size(); ++s) {
    if (off[s] == off[s + 1]) continue;
    const std::size_t rows = off[s + 1] - off[s];
    const MatrixRef a_seg{a.data().data() + off[s] * m, rows, m};
    const MatrixRef g_seg{g.data().data() + off[s] * n, rows, n};
    // Adding a one-row product straight into grad gives the same bytes
    // as adding it via a partial formed from zero, without the scratch
    // pass.
    if (rows == 1) {
      matmul_kernel(a_seg, g_seg, grad.data().data(), /*trans_a=*/true, false,
                    /*accumulate=*/true);
      continue;
    }
    if (partial.size() == 0) partial = Tensor::zeros(m, n);
    matmul_kernel(a_seg, g_seg, partial.data().data(), /*trans_a=*/true, false,
                  /*accumulate=*/false);
    grad.add_(partial);
  }
}

namespace {

/// grad (1 x cols) += each segment's column sum of g, formed from zero
/// in row order and added segment by segment.
void accumulate_segment_colsums(const Tensor& g, const std::vector<std::size_t>& off,
                                Tensor& grad) {
  const std::size_t n = g.cols();
  Tensor partial(1, n);
  for (std::size_t s = 0; s + 1 < off.size(); ++s) {
    if (off[s] == off[s + 1]) continue;
    const bool direct = off[s + 1] - off[s] == 1;
    if (!direct) partial.fill(0.0);
    double* dst = (direct ? grad : partial).data().data();
    for (std::size_t r = off[s]; r < off[s + 1]; ++r) {
      const double* grow = g.data().data() + r * n;
      for (std::size_t c = 0; c < n; ++c) dst[c] += grow[c];
    }
    if (!direct) grad.add_(partial);
  }
}

/// Whether gradient needs to flow into `v`'s subgraph.
bool needs_grad(const VarPtr& v) {
  return v->requires_grad || !v->parents.empty() || v->backward_fn != nullptr;
}

VarPtr make_op(Tensor value, std::vector<VarPtr> parents, std::function<void()> fn) {
  auto out = make_var(std::move(value), false);
  bool any = false;
  for (const auto& p : parents) any = any || needs_grad(p);
  if (any) {
    out->parents = std::move(parents);
    out->backward_fn = std::move(fn);
  }
  return out;
}

}  // namespace

VarPtr add(const VarPtr& a, const VarPtr& b, const Segments& segments) {
  const Tensor& av = a->value;
  const Tensor& bv = b->value;
  Tensor out = av;
  const bool row_broadcast =
      !bv.same_shape(av) && bv.rows() == 1 && bv.cols() == av.cols();
  if (bv.same_shape(av)) {
    out.add_(bv);
  } else if (row_broadcast) {
    for (std::size_t r = 0; r < av.rows(); ++r) {
      for (std::size_t c = 0; c < av.cols(); ++c) out.at(r, c) += bv.at(0, c);
    }
  } else if (bv.size() == 1) {
    const double s = bv[0];
    for (std::size_t i = 0; i < out.size(); ++i) out[i] += s;
  } else {
    throw std::invalid_argument("add: incompatible shapes " + av.shape_str() + " + " +
                                bv.shape_str());
  }
  const Segments segs = row_broadcast ? resolve_segments(segments, av.rows(), "add")
                                      : nullptr;
  auto result = make_op(std::move(out), {a, b}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, b, segs, wr] {
    const auto r = wr.lock();
    const Tensor& g = r->grad;
    if (needs_grad(a)) a->accumulate_grad(g);
    if (!needs_grad(b)) return;
    if (segs != nullptr) {
      accumulate_segment_colsums(g, *segs, b->grad_buffer());
    } else if (b->value.same_shape(a->value)) {
      b->accumulate_grad(g);
    } else {  // scalar broadcast
      b->accumulate_grad(Tensor::full(1, 1, g.sum()));
    }
  };
  return result;
}

VarPtr sub(const VarPtr& a, const VarPtr& b) { return add(a, neg(b)); }

VarPtr mul(const VarPtr& a, const VarPtr& b) {
  if (!a->value.same_shape(b->value)) {
    throw std::invalid_argument("mul: shape mismatch " + a->value.shape_str() + " * " +
                                b->value.shape_str());
  }
  Tensor out = a->value;
  out.hadamard_(b->value);
  auto result = make_op(std::move(out), {a, b}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, b, wr] {
    const auto r = wr.lock();
    if (needs_grad(a)) {
      Tensor ga = r->grad;
      ga.hadamard_(b->value);
      a->accumulate_grad(ga);
    }
    if (needs_grad(b)) {
      Tensor gb = r->grad;
      gb.hadamard_(a->value);
      b->accumulate_grad(gb);
    }
  };
  return result;
}

VarPtr mul_scalar(const VarPtr& a, double s) {
  Tensor out = a->value;
  out.mul_(s);
  auto result = make_op(std::move(out), {a}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, s, wr] {
    Tensor g = wr.lock()->grad;
    g.mul_(s);
    a->accumulate_grad(g);
  };
  return result;
}

VarPtr neg(const VarPtr& a) { return mul_scalar(a, -1.0); }

VarPtr matmul(const VarPtr& a, const VarPtr& b, const Segments& segments) {
  Tensor out;
  Tensor::matmul_into(a->value, b->value, out);
  const Segments segs = resolve_segments(segments, a->value.rows(), "matmul");
  auto result = make_op(std::move(out), {a, b}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, b, segs, wr] {
    const auto r = wr.lock();
    const Tensor& g = r->grad;
    // dA = G * B^T ; dB = A^T * G. An operand that needs no gradient (a
    // layer's constant input) costs nothing.
    if (needs_grad(a)) {
      Tensor ga;
      Tensor::matmul_into(g, b->value, ga, false, true);
      a->accumulate_grad(ga);
    }
    if (needs_grad(b)) accumulate_segment_products(a->value, g, *segs, b->grad_buffer());
  };
  return result;
}

namespace {

/// Unary elementwise op with derivative computed from input & output.
VarPtr unary_op(const VarPtr& a, const std::function<double(double)>& f,
                const std::function<double(double /*x*/, double /*y*/)>& df) {
  Tensor out = a->value;
  for (auto& x : out.data()) x = f(x);
  auto result = make_op(std::move(out), {a}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, df, wr] {
    const auto r = wr.lock();
    Tensor g = r->grad;
    for (std::size_t i = 0; i < g.size(); ++i) {
      g[i] *= df(a->value[i], r->value[i]);
    }
    a->accumulate_grad(g);
  };
  return result;
}

}  // namespace

VarPtr relu(const VarPtr& a) {
  return unary_op(
      a, [](double x) { return x > 0.0 ? x : 0.0; },
      [](double x, double) { return x > 0.0 ? 1.0 : 0.0; });
}

VarPtr tanh_act(const VarPtr& a) {
  return unary_op(
      a, [](double x) { return std::tanh(x); },
      [](double, double y) { return 1.0 - y * y; });
}

VarPtr exp_act(const VarPtr& a) {
  return unary_op(
      a, [](double x) { return std::exp(x); }, [](double, double y) { return y; });
}

VarPtr square(const VarPtr& a) {
  return unary_op(
      a, [](double x) { return x * x; }, [](double x, double) { return 2.0 * x; });
}

VarPtr huber(const VarPtr& a, double delta) {
  if (delta <= 0.0) throw std::invalid_argument("huber: delta must be positive");
  return unary_op(
      a,
      [delta](double x) {
        const double ax = std::abs(x);
        return ax <= delta ? 0.5 * x * x : delta * (ax - 0.5 * delta);
      },
      [delta](double x, double) { return std::clamp(x, -delta, delta); });
}

VarPtr sum(const VarPtr& a) {
  auto result = make_op(Tensor::full(1, 1, a->value.sum()), {a}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, wr] {
    const double g = wr.lock()->grad[0];
    a->accumulate_grad(Tensor::full(a->value.rows(), a->value.cols(), g));
  };
  return result;
}

VarPtr mean(const VarPtr& a) {
  const auto n = static_cast<double>(a->value.size());
  if (n == 0.0) throw std::invalid_argument("mean of empty variable");
  return mul_scalar(sum(a), 1.0 / n);
}

VarPtr clamp(const VarPtr& a, double lo, double hi) {
  if (lo > hi) throw std::invalid_argument("clamp: lo > hi");
  return unary_op(
      a, [lo, hi](double x) { return std::clamp(x, lo, hi); },
      [lo, hi](double x, double) { return (x > lo && x < hi) ? 1.0 : 0.0; });
}

VarPtr minimum(const VarPtr& a, const VarPtr& b) {
  if (!a->value.same_shape(b->value)) {
    throw std::invalid_argument("minimum: shape mismatch");
  }
  Tensor out = a->value;
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = std::min(out[i], b->value[i]);
  auto result = make_op(std::move(out), {a, b}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, b, wr] {
    const auto r = wr.lock();
    Tensor ga = Tensor::zeros(r->grad.rows(), r->grad.cols());
    Tensor gb = ga;
    for (std::size_t i = 0; i < r->grad.size(); ++i) {
      if (a->value[i] <= b->value[i]) {
        ga[i] = r->grad[i];
      } else {
        gb[i] = r->grad[i];
      }
    }
    if (needs_grad(a)) a->accumulate_grad(ga);
    if (needs_grad(b)) b->accumulate_grad(gb);
  };
  return result;
}

VarPtr pick(const VarPtr& a, std::size_t r, std::size_t c) {
  if (r >= a->value.rows() || c >= a->value.cols()) {
    throw std::out_of_range("pick: index out of range");
  }
  auto result = make_op(Tensor::full(1, 1, a->value.at(r, c)), {a}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, r, c, wr] {
    Tensor g = Tensor::zeros(a->value.rows(), a->value.cols());
    g.at(r, c) = wr.lock()->grad[0];
    a->accumulate_grad(g);
  };
  return result;
}

VarPtr pick_rows(const VarPtr& a, const std::vector<std::size_t>& rows) {
  const std::size_t cols = a->value.cols();
  Tensor out(rows.size(), cols);
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k] >= a->value.rows()) throw std::out_of_range("pick_rows: index out of range");
    for (std::size_t c = 0; c < cols; ++c) out.at(k, c) = a->value.at(rows[k], c);
  }
  auto result = make_op(std::move(out), {a}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, rows, wr] {
    const auto r = wr.lock();
    Tensor g = Tensor::zeros(a->value.rows(), a->value.cols());
    for (std::size_t k = 0; k < rows.size(); ++k) {
      for (std::size_t c = 0; c < g.cols(); ++c) g.at(rows[k], c) += r->grad.at(k, c);
    }
    a->accumulate_grad(g);
  };
  return result;
}

VarPtr reshape(const VarPtr& a, std::size_t rows, std::size_t cols) {
  auto result = make_op(a->value.reshaped(rows, cols), {a}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [a, wr] {
    const auto r = wr.lock();
    a->accumulate_grad(r->grad.reshaped(a->value.rows(), a->value.cols()));
  };
  return result;
}

VarPtr masked_log_softmax(const VarPtr& logits, const std::vector<std::uint8_t>& mask,
                          const Segments& segments) {
  const Tensor& z = logits->value;
  if (z.cols() != 1) throw std::invalid_argument("masked_log_softmax: want N x 1");
  if (mask.size() != z.rows()) {
    throw std::invalid_argument("masked_log_softmax: mask size mismatch");
  }
  const Segments segs = resolve_segments(segments, z.rows(), "masked_log_softmax");
  const std::vector<std::size_t>& off = *segs;
  Tensor out(z.rows(), 1, kMaskedLogProb);
  for (std::size_t s = 0; s + 1 < off.size(); ++s) {
    // log-sum-exp over the segment's valid entries, numerically stabilized.
    double zmax = -std::numeric_limits<double>::infinity();
    bool any = false;
    for (std::size_t i = off[s]; i < off[s + 1]; ++i) {
      if (mask[i]) {
        zmax = std::max(zmax, z.at(i, 0));
        any = true;
      }
    }
    if (!any) throw std::invalid_argument("masked_log_softmax: all masked");
    double lse = 0.0;
    for (std::size_t i = off[s]; i < off[s + 1]; ++i) {
      if (mask[i]) lse += std::exp(z.at(i, 0) - zmax);
    }
    lse = zmax + std::log(lse);
    for (std::size_t i = off[s]; i < off[s + 1]; ++i) {
      if (mask[i]) out.at(i, 0) = z.at(i, 0) - lse;
    }
  }
  auto result = make_op(std::move(out), {logits}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [logits, mask, segs, wr] {
    const auto r = wr.lock();
    const std::vector<std::size_t>& off = *segs;
    Tensor g = Tensor::zeros(r->value.rows(), 1);
    for (std::size_t s = 0; s + 1 < off.size(); ++s) {
      // d lp_i / d z_j = delta_ij - softmax_j (valid entries only).
      double gsum = 0.0;
      for (std::size_t i = off[s]; i < off[s + 1]; ++i) {
        if (mask[i]) gsum += r->grad.at(i, 0);
      }
      for (std::size_t i = off[s]; i < off[s + 1]; ++i) {
        if (!mask[i]) continue;
        const double p = std::exp(r->value.at(i, 0));
        g.at(i, 0) = r->grad.at(i, 0) - p * gsum;
      }
    }
    logits->accumulate_grad(g);
  };
  return result;
}

VarPtr masked_entropy(const VarPtr& log_probs, const std::vector<std::uint8_t>& mask,
                      const Segments& segments) {
  const Tensor& lp = log_probs->value;
  if (lp.cols() != 1 || mask.size() != lp.rows()) {
    throw std::invalid_argument("masked_entropy: bad shapes");
  }
  const Segments segs = resolve_segments(segments, lp.rows(), "masked_entropy");
  const std::vector<std::size_t>& off = *segs;
  Tensor out(off.size() - 1, 1);
  for (std::size_t s = 0; s + 1 < off.size(); ++s) {
    double h = 0.0;
    for (std::size_t i = off[s]; i < off[s + 1]; ++i) {
      if (mask[i]) h -= std::exp(lp.at(i, 0)) * lp.at(i, 0);
    }
    out.at(s, 0) = h;
  }
  auto result = make_op(std::move(out), {log_probs}, nullptr);
  if (result->parents.empty()) return result;
  std::weak_ptr<Variable> wr = result;
  result->backward_fn = [log_probs, mask, segs, wr] {
    const auto r = wr.lock();
    const std::vector<std::size_t>& off = *segs;
    Tensor out = Tensor::zeros(log_probs->value.rows(), 1);
    for (std::size_t s = 0; s + 1 < off.size(); ++s) {
      const double g = r->grad.at(s, 0);
      for (std::size_t i = off[s]; i < off[s + 1]; ++i) {
        if (!mask[i]) continue;
        const double lpi = log_probs->value.at(i, 0);
        out.at(i, 0) = -g * std::exp(lpi) * (lpi + 1.0);
      }
    }
    log_probs->accumulate_grad(out);
  };
  return result;
}

void backward(const VarPtr& root) {
  if (obs::enabled()) {
    static obs::CachedCounter c("nn.backward_calls");
    c.add(1);
  }
  if (root->value.size() != 1) {
    throw std::invalid_argument("backward: root must be scalar, got " +
                                root->value.shape_str());
  }
  // Iterative post-order DFS for the topological order.
  std::vector<VarPtr> topo;
  std::unordered_set<const Variable*> visited;
  std::vector<std::pair<VarPtr, std::size_t>> stack;
  stack.emplace_back(root, 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, child] = stack.back();
    if (child < node->parents.size()) {
      const VarPtr next = node->parents[child++];
      if (visited.insert(next.get()).second) stack.emplace_back(next, 0);
    } else {
      topo.push_back(node);
      stack.pop_back();
    }
  }
  root->accumulate_grad(Tensor::ones(1, 1));
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    if ((*it)->backward_fn && (*it)->has_grad()) (*it)->backward_fn();
  }
}

}  // namespace rlbf::nn
