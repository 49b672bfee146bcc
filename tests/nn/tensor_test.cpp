#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "nn/autograd.h"

namespace rlbf::nn {
namespace {

TEST(Tensor, ConstructionAndFill) {
  Tensor t(2, 3, 1.5);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 3u);
  EXPECT_EQ(t.size(), 6u);
  for (std::size_t i = 0; i < t.size(); ++i) EXPECT_DOUBLE_EQ(t[i], 1.5);
}

TEST(Tensor, InitializerList) {
  Tensor t{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(t.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(t.at(1, 0), 3.0);
}

TEST(Tensor, RaggedInitializerThrows) {
  EXPECT_THROW((Tensor{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Tensor, ItemRequiresScalar) {
  EXPECT_DOUBLE_EQ(Tensor::full(1, 1, 7.0).item(), 7.0);
  EXPECT_THROW(Tensor(2, 1).item(), std::logic_error);
}

TEST(Tensor, MatmulKnownValues) {
  Tensor a{{1.0, 2.0}, {3.0, 4.0}};
  Tensor b{{5.0, 6.0}, {7.0, 8.0}};
  const Tensor c = a.matmul(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 19.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 22.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 43.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 50.0);
}

TEST(Tensor, MatmulShapeMismatchThrows) {
  Tensor a(2, 3);
  Tensor b(2, 3);
  EXPECT_THROW(a.matmul(b), std::invalid_argument);
}

TEST(Tensor, MatmulTransposedVariantsAgree) {
  util::Rng rng(1);
  const Tensor a = Tensor::randn(4, 3, rng);
  const Tensor b = Tensor::randn(3, 5, rng);
  const Tensor expected = a.matmul(b);

  Tensor via_ta;
  Tensor::matmul_into(a.transpose(), b, via_ta, /*trans_a=*/true, false);
  EXPECT_LT(Tensor::max_abs_diff(expected, via_ta), 1e-12);

  Tensor via_tb;
  Tensor::matmul_into(a, b.transpose(), via_tb, false, /*trans_b=*/true);
  EXPECT_LT(Tensor::max_abs_diff(expected, via_tb), 1e-12);
}

TEST(Tensor, MatmulAccumulate) {
  Tensor a{{1.0}};
  Tensor b{{2.0}};
  Tensor out = Tensor::full(1, 1, 10.0);
  Tensor::matmul_into(a, b, out, false, false, /*accumulate=*/true);
  EXPECT_DOUBLE_EQ(out.item(), 12.0);
}

TEST(Tensor, Transpose) {
  Tensor t{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Tensor tt = t.transpose();
  EXPECT_EQ(tt.rows(), 3u);
  EXPECT_EQ(tt.cols(), 2u);
  EXPECT_DOUBLE_EQ(tt.at(2, 1), 6.0);
}

TEST(Tensor, ElementwiseOps) {
  Tensor a{{1.0, 2.0}};
  Tensor b{{3.0, 4.0}};
  Tensor c = a;
  c.add_(b);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 6.0);
  c.sub_(b);
  EXPECT_LT(Tensor::max_abs_diff(c, a), 1e-15);
  c.hadamard_(b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 3.0);
  c.mul_(2.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 16.0);
}

TEST(Tensor, ElementwiseShapeMismatchThrows) {
  Tensor a(1, 2);
  Tensor b(2, 1);
  EXPECT_THROW(a.add_(b), std::invalid_argument);
  EXPECT_THROW(a.hadamard_(b), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  Tensor t{{1.0, -2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(t.sum(), 6.0);
  EXPECT_DOUBLE_EQ(t.mean(), 1.5);
  EXPECT_DOUBLE_EQ(t.min(), -2.0);
  EXPECT_DOUBLE_EQ(t.max(), 4.0);
  EXPECT_DOUBLE_EQ(t.norm(), std::sqrt(1.0 + 4.0 + 9.0 + 16.0));
}

TEST(Tensor, RowExtraction) {
  Tensor t{{1.0, 2.0}, {3.0, 4.0}};
  const Tensor r = t.row(1);
  EXPECT_EQ(r.rows(), 1u);
  EXPECT_DOUBLE_EQ(r.at(0, 0), 3.0);
  EXPECT_THROW(t.row(2), std::out_of_range);
}

TEST(Tensor, ReshapePreservesData) {
  Tensor t{{1.0, 2.0, 3.0, 4.0}};
  const Tensor r = t.reshaped(2, 2);
  EXPECT_DOUBLE_EQ(r.at(1, 0), 3.0);
  EXPECT_THROW(t.reshaped(3, 2), std::invalid_argument);
}

TEST(Tensor, XavierBounds) {
  util::Rng rng(3);
  const Tensor w = Tensor::xavier(100, 50, rng);
  const double bound = std::sqrt(6.0 / 150.0);
  EXPECT_LE(w.max(), bound);
  EXPECT_GE(w.min(), -bound);
  EXPECT_NEAR(w.mean(), 0.0, 0.01);
}

TEST(Tensor, RandnMoments) {
  util::Rng rng(4);
  const Tensor t = Tensor::randn(200, 200, rng, 2.0);
  EXPECT_NEAR(t.mean(), 0.0, 0.05);
  double ss = 0.0;
  for (std::size_t i = 0; i < t.size(); ++i) ss += t[i] * t[i];
  EXPECT_NEAR(ss / static_cast<double>(t.size()), 4.0, 0.15);
}

TEST(Tensor, EqualityAndDiff) {
  Tensor a{{1.0, 2.0}};
  Tensor b{{1.0, 2.5}};
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
  EXPECT_DOUBLE_EQ(Tensor::max_abs_diff(a, b), 0.5);
}

// ---- kernel parity: the blocked kernel against the plain i-k-j loop ----

/// The i-k-j loop matmul_kernel replaced, kept here as the reference:
/// out (+)= op(A) op(B), skipping zero entries of op(A).
void reference_matmul(const Tensor& a, const Tensor& b, Tensor& out, bool trans_a,
                      bool trans_b, bool accumulate) {
  const std::size_t m = trans_a ? a.cols() : a.rows();
  const std::size_t k = trans_a ? a.rows() : a.cols();
  const std::size_t n = trans_b ? b.rows() : b.cols();
  if (!accumulate) out = Tensor::zeros(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = trans_a ? a.at(kk, i) : a.at(i, kk);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < n; ++j) {
        out.at(i, j) += aik * (trans_b ? b.at(j, kk) : b.at(kk, j));
      }
    }
  }
}

/// The per-segment aᵀg loop accumulate_segment_products replaced.
void reference_segment_products(const Tensor& a, const Tensor& g,
                                const std::vector<std::size_t>& off, Tensor& grad) {
  const std::size_t m = a.cols();
  const std::size_t n = g.cols();
  for (std::size_t s = 0; s + 1 < off.size(); ++s) {
    if (off[s] == off[s + 1]) continue;
    const bool direct = off[s + 1] - off[s] == 1;
    Tensor partial = Tensor::zeros(m, n);
    Tensor& dst = direct ? grad : partial;
    for (std::size_t r = off[s]; r < off[s + 1]; ++r) {
      for (std::size_t i = 0; i < m; ++i) {
        const double aik = a.at(r, i);
        if (aik == 0.0) continue;
        for (std::size_t j = 0; j < n; ++j) dst.at(i, j) += aik * g.at(r, j);
      }
    }
    if (!direct) grad.add_(partial);
  }
}

bool same_bytes(const Tensor& x, const Tensor& y) {
  return x.same_shape(y) &&
         std::memcmp(x.data().data(), y.data().data(), x.size() * sizeof(double)) == 0;
}

/// Random entries with about a quarter +0.0 and a tenth -0.0.
Tensor with_zeros(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Tensor t = Tensor::randn(rows, cols, rng);
  for (auto& x : t.data()) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.25) x = 0.0;
    else if (u < 0.35) x = -0.0;
  }
  return t;
}

/// Random entries with a few +inf and -inf.
Tensor with_infinities(std::size_t rows, std::size_t cols, util::Rng& rng) {
  const double inf = std::numeric_limits<double>::infinity();
  Tensor t = Tensor::randn(rows, cols, rng);
  for (auto& x : t.data()) {
    const double u = rng.uniform(0.0, 1.0);
    if (u < 0.05) x = inf;
    else if (u < 0.10) x = -inf;
  }
  return t;
}

TEST(MatmulKernel, BitIdenticalToTheIkjLoop) {
  util::Rng rng(23);
  constexpr std::size_t m = 5;
  // k = 70 and 130 also cross the kernel's 64-entry gather chunks.
  for (const std::size_t n : {1, 7, 8, 9, 32}) {
    for (const std::size_t k : {1, 10, 33, 70, 130}) {
      for (const bool trans_a : {false, true}) {
        for (const bool trans_b : {false, true}) {
          const std::string where = "n=" + std::to_string(n) + " k=" + std::to_string(k) +
                                    " trans_a=" + std::to_string(trans_a) +
                                    " trans_b=" + std::to_string(trans_b);
          const Tensor a = trans_a ? with_zeros(k, m, rng) : with_zeros(m, k, rng);
          const Tensor b =
              trans_b ? with_infinities(n, k, rng) : with_infinities(k, n, rng);

          Tensor expected;
          reference_matmul(a, b, expected, trans_a, trans_b, false);
          Tensor fresh;  // reshaped from empty
          Tensor::matmul_into(a, b, fresh, trans_a, trans_b);
          EXPECT_TRUE(same_bytes(fresh, expected)) << where;
          Tensor reused = Tensor::full(m, n, 3.0);  // right shape, stale values
          Tensor::matmul_into(a, b, reused, trans_a, trans_b);
          EXPECT_TRUE(same_bytes(reused, expected)) << where;

          // accumulate onto -0.0: a row whose op(A) entries are all zero
          // must leave it -0.0, which adding +0.0 products would not.
          Tensor expected_acc = Tensor::full(m, n, -0.0);
          reference_matmul(a, b, expected_acc, trans_a, trans_b, true);
          Tensor acc = Tensor::full(m, n, -0.0);
          Tensor::matmul_into(a, b, acc, trans_a, trans_b, /*accumulate=*/true);
          EXPECT_TRUE(same_bytes(acc, expected_acc)) << where;
        }
      }
    }
  }
}

TEST(MatmulKernel, ZeroRowSkipsInfinityAndKeepsNegativeZero) {
  const double inf = std::numeric_limits<double>::infinity();
  const Tensor a{{0.0, -0.0}, {1.0, 0.0}};
  const Tensor b{{inf, 1.0}, {-inf, 2.0}};
  Tensor out = Tensor::full(2, 2, -0.0);
  Tensor::matmul_into(a, b, out, false, false, /*accumulate=*/true);
  EXPECT_TRUE(std::signbit(out.at(0, 0)));  // no 0 * inf = NaN, no -0.0 + 0.0
  EXPECT_TRUE(std::signbit(out.at(0, 1)));
  EXPECT_EQ(out.at(1, 0), inf);
  EXPECT_EQ(out.at(1, 1), 1.0);
}

TEST(MatmulKernel, EmptyInnerDimensionGivesZeros) {
  Tensor out = Tensor::full(2, 3, 5.0);
  Tensor::matmul_into(Tensor(2, 0), Tensor(0, 3), out);
  EXPECT_TRUE(same_bytes(out, Tensor::zeros(2, 3)));
}

TEST(MatmulKernel, SegmentProductsBitIdenticalToPerSegmentLoop) {
  util::Rng rng(29);
  // One-row, multi-row and empty segments, in a mix.
  const std::vector<std::size_t> off = {0, 1, 4, 5, 5, 9, 10, 80};
  for (const std::size_t n : {1, 7, 8, 9, 32}) {
    for (const std::size_t m : {1, 10, 33}) {
      const Tensor a = with_zeros(off.back(), m, rng);
      const Tensor g = with_infinities(off.back(), n, rng);
      Tensor start = with_zeros(m, n, rng);
      for (std::size_t i = 0; i < start.size(); i += 3) start[i] = -0.0;
      Tensor expected = start;
      reference_segment_products(a, g, off, expected);
      Tensor grad = start;
      accumulate_segment_products(a, g, off, grad);
      EXPECT_TRUE(same_bytes(grad, expected)) << "n=" << n << " m=" << m;
    }
  }
}

TEST(MatmulKernel, SegmentProductsRejectBadShapes) {
  const Tensor a(4, 3);
  const Tensor g(4, 2);
  Tensor grad(3, 2);
  EXPECT_THROW(accumulate_segment_products(a, Tensor(3, 2), {0, 3}, grad),
               std::invalid_argument);
  EXPECT_THROW(accumulate_segment_products(a, g, {0, 5}, grad), std::invalid_argument);
  EXPECT_THROW(accumulate_segment_products(a, g, {0, 3, 1}, grad), std::invalid_argument);
  Tensor wrong(2, 3);
  EXPECT_THROW(accumulate_segment_products(a, g, {0, 4}, wrong), std::invalid_argument);
}

}  // namespace
}  // namespace rlbf::nn
