#include "nn/autograd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>

#include "util/rng.h"

namespace rlbf::nn {
namespace {

/// Central finite-difference gradient check: builds the graph twice per
/// perturbed element and compares the analytic gradient of a scalar
/// function of `input` against (f(x+h) - f(x-h)) / 2h.
void grad_check(const Tensor& input,
                const std::function<VarPtr(const VarPtr&)>& fn, double h = 1e-5,
                double tol = 1e-6) {
  auto x = make_var(input, /*requires_grad=*/true);
  auto y = fn(x);
  ASSERT_EQ(y->value.size(), 1u) << "grad_check needs a scalar output";
  backward(y);
  ASSERT_TRUE(x->has_grad());
  const Tensor analytic = x->grad;

  for (std::size_t i = 0; i < input.size(); ++i) {
    Tensor plus = input;
    plus[i] += h;
    Tensor minus = input;
    minus[i] -= h;
    const double f_plus = fn(make_var(plus, true))->value.item();
    const double f_minus = fn(make_var(minus, true))->value.item();
    const double numeric = (f_plus - f_minus) / (2.0 * h);
    EXPECT_NEAR(analytic[i], numeric, tol * std::max(1.0, std::abs(numeric)))
        << "element " << i;
  }
}

Tensor arange(std::size_t rows, std::size_t cols, double start = 0.1,
              double step = 0.3) {
  Tensor t(rows, cols);
  for (std::size_t i = 0; i < t.size(); ++i) t[i] = start + step * static_cast<double>(i);
  return t;
}

TEST(Autograd, AddForwardSameShape) {
  auto a = make_var(Tensor{{1.0, 2.0}});
  auto b = make_var(Tensor{{10.0, 20.0}});
  EXPECT_DOUBLE_EQ(add(a, b)->value.at(0, 1), 22.0);
}

TEST(Autograd, AddRowBroadcastForward) {
  auto a = make_var(Tensor{{1.0, 2.0}, {3.0, 4.0}});
  auto b = make_var(Tensor{{10.0, 20.0}});
  const auto c = add(a, b);
  EXPECT_DOUBLE_EQ(c->value.at(1, 1), 24.0);
}

TEST(Autograd, AddScalarBroadcastForward) {
  auto a = make_var(Tensor{{1.0}, {2.0}});
  EXPECT_DOUBLE_EQ(add(a, scalar(5.0))->value.at(1, 0), 7.0);
}

TEST(Autograd, AddIncompatibleShapesThrow) {
  auto a = make_var(Tensor(2, 3));
  auto b = make_var(Tensor(3, 2));
  EXPECT_THROW(add(a, b), std::invalid_argument);
}

TEST(Autograd, GradSumOfInput) {
  grad_check(arange(2, 3), [](const VarPtr& x) { return sum(x); });
}

TEST(Autograd, GradMeanOfInput) {
  grad_check(arange(3, 2), [](const VarPtr& x) { return mean(x); });
}

TEST(Autograd, GradAddBroadcastIntoBias) {
  // d/db of sum(x + b) where b is a broadcast row.
  const Tensor xval = arange(3, 2);
  grad_check(Tensor{{0.5, -0.25}}, [&](const VarPtr& b) {
    return sum(add(constant(xval), b));
  });
}

TEST(Autograd, GradMulElementwise) {
  const Tensor other = arange(2, 2, -0.4, 0.7);
  grad_check(arange(2, 2), [&](const VarPtr& x) {
    return sum(mul(x, constant(other)));
  });
}

TEST(Autograd, GradMulScalar) {
  grad_check(arange(2, 2), [](const VarPtr& x) { return sum(mul_scalar(x, -2.5)); });
}

TEST(Autograd, GradMatmulLeft) {
  const Tensor b = arange(3, 2, 0.2, 0.5);
  grad_check(arange(2, 3), [&](const VarPtr& x) {
    return sum(matmul(x, constant(b)));
  });
}

TEST(Autograd, GradMatmulRight) {
  const Tensor a = arange(2, 3, -0.3, 0.4);
  grad_check(arange(3, 2), [&](const VarPtr& x) {
    return sum(matmul(constant(a), x));
  });
}

TEST(Autograd, GradMatmulChained) {
  const Tensor a = arange(2, 2, 0.1, 0.2);
  grad_check(arange(2, 2, 0.4, -0.3), [&](const VarPtr& x) {
    return sum(matmul(matmul(constant(a), x), x));
  });
}

TEST(Autograd, GradRelu) {
  // Keep points away from the kink at 0.
  Tensor in{{-1.0, -0.4}, {0.3, 2.0}};
  grad_check(in, [](const VarPtr& x) { return sum(relu(x)); });
}

TEST(Autograd, GradTanh) {
  grad_check(arange(2, 2, -0.8, 0.5), [](const VarPtr& x) {
    return sum(tanh_act(x));
  });
}

TEST(Autograd, GradExp) {
  grad_check(arange(1, 3, -0.5, 0.4), [](const VarPtr& x) {
    return sum(exp_act(x));
  });
}

TEST(Autograd, GradSquare) {
  grad_check(arange(2, 2, -0.7, 0.45), [](const VarPtr& x) {
    return sum(square(x));
  });
}

TEST(Autograd, GradSub) {
  const Tensor b = arange(2, 2, 0.9, -0.2);
  grad_check(arange(2, 2), [&](const VarPtr& x) {
    return sum(sub(x, constant(b)));
  });
}

TEST(Autograd, GradClampInterior) {
  // All elements strictly inside (lo, hi): gradient 1.
  grad_check(arange(1, 4, -0.3, 0.2), [](const VarPtr& x) {
    return sum(clamp(x, -2.0, 2.0));
  });
}

TEST(Autograd, ClampBlocksGradientOutside) {
  auto x = make_var(Tensor{{-5.0, 0.0, 5.0}}, true);
  auto y = sum(clamp(x, -1.0, 1.0));
  backward(y);
  EXPECT_DOUBLE_EQ(x->grad.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(x->grad.at(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(x->grad.at(0, 2), 0.0);
}

TEST(Autograd, GradMinimum) {
  const Tensor b = arange(2, 2, 0.5, 0.1);
  grad_check(arange(2, 2, 0.2, 0.3), [&](const VarPtr& x) {
    return sum(minimum(x, constant(b)));
  });
}

TEST(Autograd, MinimumRoutesGradientToSmaller) {
  auto a = make_var(Tensor{{1.0, 5.0}}, true);
  auto b = make_var(Tensor{{2.0, 3.0}}, true);
  backward(sum(minimum(a, b)));
  EXPECT_DOUBLE_EQ(a->grad.at(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(a->grad.at(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(b->grad.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(b->grad.at(0, 1), 1.0);
}

TEST(Autograd, GradPick) {
  grad_check(arange(3, 2), [](const VarPtr& x) { return pick(x, 2, 1); });
}

TEST(Autograd, PickOutOfRangeThrows) {
  auto x = make_var(Tensor(2, 2));
  EXPECT_THROW(pick(x, 2, 0), std::out_of_range);
}

TEST(Autograd, GradReshape) {
  grad_check(arange(2, 3), [](const VarPtr& x) {
    return pick(reshape(x, 3, 2), 2, 1);
  });
}

TEST(Autograd, MaskedLogSoftmaxNormalizesOverValidEntries) {
  auto z = make_var(Tensor{{1.0}, {2.0}, {3.0}});
  const std::vector<std::uint8_t> mask = {1, 0, 1};
  const auto lp = masked_log_softmax(z, mask);
  EXPECT_DOUBLE_EQ(lp->value.at(1, 0), kMaskedLogProb);
  const double p0 = std::exp(lp->value.at(0, 0));
  const double p2 = std::exp(lp->value.at(2, 0));
  EXPECT_NEAR(p0 + p2, 1.0, 1e-12);
  EXPECT_GT(p2, p0);
}

TEST(Autograd, MaskedLogSoftmaxAllMaskedThrows) {
  auto z = make_var(Tensor(2, 1));
  EXPECT_THROW(masked_log_softmax(z, {0, 0}), std::invalid_argument);
}

TEST(Autograd, MaskedLogSoftmaxStableUnderLargeLogits) {
  auto z = make_var(Tensor{{1000.0}, {1001.0}});
  const auto lp = masked_log_softmax(z, {1, 1});
  EXPECT_TRUE(std::isfinite(lp->value.at(0, 0)));
  EXPECT_NEAR(std::exp(lp->value.at(0, 0)) + std::exp(lp->value.at(1, 0)), 1.0, 1e-9);
}

TEST(Autograd, GradMaskedLogSoftmaxPickedEntry) {
  const std::vector<std::uint8_t> mask = {1, 1, 0, 1};
  grad_check(arange(4, 1, -0.5, 0.6), [&](const VarPtr& x) {
    return pick(masked_log_softmax(x, mask), 1, 0);
  });
}

TEST(Autograd, GradMaskedEntropy) {
  const std::vector<std::uint8_t> mask = {1, 0, 1, 1};
  grad_check(arange(4, 1, -0.4, 0.5), [&](const VarPtr& x) {
    return masked_entropy(masked_log_softmax(x, mask), mask);
  });
}

TEST(Autograd, EntropyOfUniformIsLogN) {
  auto z = make_var(Tensor(4, 1, 0.0));
  const std::vector<std::uint8_t> mask = {1, 1, 1, 1};
  const auto h = masked_entropy(masked_log_softmax(z, mask), mask);
  EXPECT_NEAR(h->value.item(), std::log(4.0), 1e-12);
}

TEST(Autograd, DiamondGraphAccumulatesBothPaths) {
  // y = sum(x * x_used_twice): d/dx of sum(x + x) = 2.
  auto x = make_var(Tensor{{3.0}}, true);
  backward(add(x, x));
  EXPECT_DOUBLE_EQ(x->grad.item(), 2.0);
}

TEST(Autograd, GradDiamondThroughSquare) {
  grad_check(arange(1, 2, 0.3, 0.4), [](const VarPtr& x) {
    // f = sum(x^2 + 3x): mixes two paths from the same leaf.
    return add(sum(square(x)), mul_scalar(sum(x), 3.0));
  });
}

TEST(Autograd, BackwardRequiresScalarRoot) {
  auto x = make_var(Tensor(2, 2), true);
  EXPECT_THROW(backward(add(x, x)), std::invalid_argument);
}

TEST(Autograd, NoGradThroughConstants) {
  auto c = constant(Tensor{{1.0, 2.0}});
  auto y = sum(mul_scalar(c, 3.0));
  backward(y);
  EXPECT_FALSE(c->has_grad());
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data().data(), b.data().data(), a.size() * sizeof(double)) == 0;
}

TEST(Autograd, ConstantOperandsGetNoGradient) {
  // y = sum(x W + b - C) + sum(L x) with W, b, C and L constants.
  const auto x = make_var(Tensor{{1.0, 2.0}, {3.0, 4.0}}, true);
  const auto w = constant(Tensor{{0.5, -1.0}, {2.0, 0.25}});
  const auto b = constant(Tensor{{0.125, 0.0}});
  const auto c = constant(Tensor{{1.0, 1.0}, {1.0, 1.0}});
  const auto l = constant(Tensor{{1.0, 2.0}, {3.0, 4.0}});
  backward(add(sum(sub(add(matmul(x, w), b), c)), sum(matmul(l, x))));
  for (const auto& k : {w, b, c, l}) EXPECT_FALSE(k->has_grad());
  // dy/dx = 1 Wᵀ + Lᵀ 1: row sums of W along each row, column sums of L
  // down each column.
  ASSERT_TRUE(x->has_grad());
  EXPECT_TRUE(same_bytes(x->grad, Tensor{{-0.5 + 4.0, 2.25 + 4.0}, {-0.5 + 6.0, 2.25 + 6.0}}));
}

TEST(Autograd, SegmentedMatmulAndBiasMatchPerSegmentGraphs) {
  // Three stacked inputs of 2, 1 and 3 rows through one Linear-shaped
  // graph must leave the weight and bias gradients of three graphs
  // backpropagated in turn, byte for byte.
  util::Rng rng(7);
  const Tensor w0 = Tensor::randn(3, 2, rng);
  const Tensor b0 = Tensor::randn(1, 2, rng);
  const std::vector<std::size_t> rows = {2, 1, 3};
  std::vector<Tensor> parts;
  for (const std::size_t r : rows) parts.push_back(Tensor::randn(r, 3, rng));
  parts[2].at(1, 0) = 0.0;  // exercise the zero skip

  const auto w_ref = make_var(w0, true);
  const auto b_ref = make_var(b0, true);
  for (const Tensor& p : parts) {
    backward(sum(tanh_act(add(matmul(constant(p), w_ref), b_ref))));
  }

  const auto w = make_var(w0, true);
  const auto bias = make_var(b0, true);
  const Segments segs = make_segments(rows);
  const Tensor stacked = Tensor::stack_rows({&parts[0], &parts[1], &parts[2]});
  backward(sum(tanh_act(add(matmul(constant(stacked), w, segs), bias, segs))));
  EXPECT_TRUE(same_bytes(w->grad, w_ref->grad));
  EXPECT_TRUE(same_bytes(bias->grad, b_ref->grad));
}

TEST(Autograd, SegmentedSoftmaxAndEntropyMatchPerSegment) {
  const Tensor z{{0.3}, {-1.2}, {2.0}, {0.7}, {0.1}};
  const std::vector<std::uint8_t> mask = {1, 0, 1, 1, 1};
  const Segments segs = make_segments({3, 1, 1});
  const auto batched = make_var(z, true);
  const auto lp = masked_log_softmax(batched, mask, segs);
  const auto h = masked_entropy(lp, mask, segs);
  ASSERT_EQ(h->value.rows(), 3u);
  backward(add(sum(h), sum(pick_rows(lp, {0, 3, 4}))));

  const std::vector<std::vector<std::uint8_t>> masks = {{1, 0, 1}, {1}, {1}};
  std::size_t at = 0;
  for (std::size_t s = 0; s < 3; ++s) {
    const std::size_t n = masks[s].size();
    Tensor piece(n, 1);
    for (std::size_t i = 0; i < n; ++i) piece.at(i, 0) = z.at(at + i, 0);
    const auto zs = make_var(piece, true);
    const auto lps = masked_log_softmax(zs, masks[s]);
    const auto hs = masked_entropy(lps, masks[s]);
    EXPECT_TRUE(same_bytes(hs->value, Tensor{{h->value.at(s, 0)}}));
    backward(add(hs, pick(lps, 0, 0)));
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bytes(Tensor{{lp->value.at(at + i, 0)}}, Tensor{{lps->value.at(i, 0)}}));
      EXPECT_TRUE(same_bytes(Tensor{{batched->grad.at(at + i, 0)}}, Tensor{{zs->grad.at(i, 0)}}));
    }
    at += n;
  }
}

TEST(Autograd, SegmentsMustCoverTheRows) {
  const auto z = make_var(Tensor(4, 1), true);
  const std::vector<std::uint8_t> mask(4, 1);
  EXPECT_THROW(masked_log_softmax(z, mask, make_segments({1, 2})), std::invalid_argument);
  EXPECT_THROW(matmul(z, make_var(Tensor(1, 2), true), make_segments({5})),
               std::invalid_argument);
  // A segment without a valid entry has no distribution.
  EXPECT_THROW(masked_log_softmax(z, {1, 1, 0, 1}, make_segments({2, 1, 1})),
               std::invalid_argument);
}

TEST(Autograd, GradAccumulatesAcrossBackwardCalls) {
  // Parameter-style accumulation: two graphs, grads add up.
  auto x = make_var(Tensor{{2.0}}, true);
  backward(sum(mul_scalar(x, 3.0)));
  backward(sum(mul_scalar(x, 4.0)));
  EXPECT_DOUBLE_EQ(x->grad.item(), 7.0);
  x->zero_grad();
  EXPECT_DOUBLE_EQ(x->grad.item(), 0.0);
}

TEST(Autograd, RandomCompositeGraphsGradCheck) {
  // Stress: random small graphs combining matmul/tanh/mul/add/mean.
  util::Rng rng(61);
  for (int iter = 0; iter < 10; ++iter) {
    const Tensor w1 = Tensor::randn(3, 4, rng, 0.5);
    const Tensor w2 = Tensor::randn(4, 2, rng, 0.5);
    const Tensor other = Tensor::randn(2, 2, rng, 0.5);
    grad_check(Tensor::randn(2, 3, rng, 0.5), [&](const VarPtr& x) {
      auto h = tanh_act(matmul(x, constant(w1)));
      auto y = matmul(h, constant(w2));
      return mean(mul(y, constant(other)));
    }, 1e-5, 1e-4);
  }
}

TEST(Autograd, DeepChainGradCheck) {
  // 12 stacked tanh layers: gradients survive a deep graph.
  util::Rng rng(62);
  const Tensor w = Tensor::randn(3, 3, rng, 0.4);
  grad_check(Tensor::randn(1, 3, rng, 0.5), [&](const VarPtr& x) {
    VarPtr h = x;
    for (int i = 0; i < 12; ++i) h = tanh_act(matmul(h, constant(w)));
    return sum(h);
  }, 1e-5, 1e-3);
}

TEST(Autograd, MaskedSoftmaxSingleValidEntryHasZeroGradient) {
  // With one valid action its probability is pinned at 1: logp = 0 and
  // d logp / d z = 0 — forced moves contribute nothing to learning.
  auto z = make_var(Tensor{{5.0}, {1.0}}, true);
  const std::vector<std::uint8_t> mask = {1, 0};
  auto lp = masked_log_softmax(z, mask);
  EXPECT_DOUBLE_EQ(lp->value.at(0, 0), 0.0);
  backward(pick(lp, 0, 0));
  EXPECT_DOUBLE_EQ(z->grad.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(z->grad.at(1, 0), 0.0);
}

TEST(Autograd, ExtremeNegativeLogitsStayFinite) {
  auto z = make_var(Tensor{{-1e8}, {-1e8 + 1.0}});
  const auto lp = masked_log_softmax(z, {1, 1});
  EXPECT_TRUE(std::isfinite(lp->value.at(0, 0)));
  EXPECT_TRUE(std::isfinite(lp->value.at(1, 0)));
  EXPECT_NEAR(std::exp(lp->value.at(0, 0)) + std::exp(lp->value.at(1, 0)), 1.0, 1e-9);
}

TEST(Autograd, GraphReuseOfLeafAcrossTwoRoots) {
  // Backward through two separate roots sharing a leaf accumulates.
  auto x = make_var(Tensor{{1.0, 2.0}}, true);
  auto y1 = sum(square(x));     // grad: 2x = {2, 4}
  auto y2 = mean(x);            // grad: {0.5, 0.5}
  backward(y1);
  backward(y2);
  EXPECT_DOUBLE_EQ(x->grad.at(0, 0), 2.5);
  EXPECT_DOUBLE_EQ(x->grad.at(0, 1), 4.5);
}

TEST(Autograd, PpoClipObjectiveGradCheck) {
  // The full clipped-surrogate composite used by Ppo::policy_shard.
  const std::vector<std::uint8_t> mask = {1, 1, 1};
  const double old_logp = -1.0;
  const double adv = 0.7;
  grad_check(arange(3, 1, -0.2, 0.35), [&](const VarPtr& logits) {
    const auto lp = masked_log_softmax(logits, mask);
    const auto ratio = exp_act(sub(pick(lp, 1, 0), scalar(old_logp)));
    const auto s1 = mul_scalar(ratio, adv);
    const auto s2 = mul_scalar(clamp(ratio, 0.8, 1.2), adv);
    return neg(minimum(s1, s2));
  }, 1e-6, 1e-4);
}

}  // namespace
}  // namespace rlbf::nn
