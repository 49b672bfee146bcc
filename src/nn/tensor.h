// Dense row-major 2-D tensor of doubles — the numeric substrate for the
// autograd library. Networks in this project are small (the kernel MLP
// scores a few dozen job vectors per decision; PPO updates push minibatch
// stacks of them through the same layers), so the work is dense small
// matmuls and one kernel does all of them: each output row gathers the
// nonzero entries of its A row, then keeps a block of columns in local
// accumulators while it runs over them. Results are bit-identical to the
// plain i-k-j loop: every output element receives the same products in
// the same k order.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

#include "util/rng.h"

namespace rlbf::nn {

/// Read-only view of a row-major rows x cols matrix in borrowed storage.
struct MatrixRef {
  const double* data = nullptr;
  std::size_t rows = 0;
  std::size_t cols = 0;
};

/// The matmul kernel: out (+)= op(A) op(B), out being the m x n
/// row-major result at `out`. Shapes are the caller's to check
/// (Tensor::matmul_into does). Each element starts from its stored value
/// (accumulate) or +0.0 and adds aik * bkj in increasing k, skipping
/// aik == 0: so 0 * inf never reaches the result and a -0.0 already in
/// `out` survives an accumulate that adds only skipped terms.
void matmul_kernel(MatrixRef a, MatrixRef b, double* out, bool trans_a, bool trans_b,
                   bool accumulate);

class Tensor {
 public:
  Tensor() = default;
  Tensor(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// 2-D initializer: Tensor{{1,2},{3,4}}. All rows must be equal length.
  Tensor(std::initializer_list<std::initializer_list<double>> rows);

  static Tensor zeros(std::size_t rows, std::size_t cols);
  static Tensor ones(std::size_t rows, std::size_t cols);
  static Tensor full(std::size_t rows, std::size_t cols, double v);
  /// i.i.d. N(0, stddev^2).
  static Tensor randn(std::size_t rows, std::size_t cols, util::Rng& rng,
                      double stddev = 1.0);
  /// Xavier/Glorot uniform: U(-a, a), a = sqrt(6 / (fan_in + fan_out)).
  static Tensor xavier(std::size_t fan_in, std::size_t fan_out, util::Rng& rng);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool same_shape(const Tensor& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

  double& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }
  double& operator[](std::size_t i) { return data_[i]; }
  double operator[](std::size_t i) const { return data_[i]; }
  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// The single element of a 1x1 tensor; throws otherwise.
  double item() const;

  // ---- value-level math (no autograd; used by op backward passes) ----

  /// Read-only view of this tensor's storage; valid until it is resized.
  operator MatrixRef() const { return {data_.data(), rows_, cols_}; }

  /// out (+)= op(A, B) with optional transposes, through matmul_kernel;
  /// inner dimensions must agree. Without accumulate, `out` is reshaped
  /// to fit, reusing its capacity. `out` must not share storage with A or B.
  static void matmul_into(MatrixRef a, MatrixRef b, Tensor& out, bool trans_a = false,
                          bool trans_b = false, bool accumulate = false);
  Tensor matmul(const Tensor& other) const;
  Tensor transpose() const;

  Tensor& add_(const Tensor& other);       // elementwise +=
  Tensor& sub_(const Tensor& other);       // elementwise -=
  Tensor& mul_(double s);                  // scale
  Tensor& hadamard_(const Tensor& other);  // elementwise *=
  void fill(double v);

  double sum() const;
  double mean() const;
  double min() const;
  double max() const;
  /// sqrt(sum of squares).
  double norm() const;

  /// Every part's rows, in order, in one tensor. Parts must share their
  /// column count; at least one part is required.
  static Tensor stack_rows(const std::vector<const Tensor*>& parts);
  /// Row `r` as a new 1 x cols tensor.
  Tensor row(std::size_t r) const;
  /// Copy with new shape (rows*cols must match).
  Tensor reshaped(std::size_t rows, std::size_t cols) const;
  /// In-place reshape (rows*cols must match); the elements stay as they are.
  Tensor& reshape_(std::size_t rows, std::size_t cols);
  /// Become rows x cols with every element `v`, reusing capacity.
  void assign(std::size_t rows, std::size_t cols, double v);

  bool operator==(const Tensor& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_ && data_ == o.data_;
  }

  /// Max |a - b| over elements; throws on shape mismatch.
  static double max_abs_diff(const Tensor& a, const Tensor& b);

  std::string shape_str() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace rlbf::nn
