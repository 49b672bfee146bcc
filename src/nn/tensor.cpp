#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace rlbf::nn {

Tensor::Tensor(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Tensor::Tensor(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument("Tensor: ragged init list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Tensor Tensor::zeros(std::size_t rows, std::size_t cols) { return Tensor(rows, cols, 0.0); }
Tensor Tensor::ones(std::size_t rows, std::size_t cols) { return Tensor(rows, cols, 1.0); }
Tensor Tensor::full(std::size_t rows, std::size_t cols, double v) {
  return Tensor(rows, cols, v);
}

Tensor Tensor::randn(std::size_t rows, std::size_t cols, util::Rng& rng, double stddev) {
  Tensor t(rows, cols);
  for (auto& x : t.data_) x = rng.normal(0.0, stddev);
  return t;
}

Tensor Tensor::xavier(std::size_t fan_in, std::size_t fan_out, util::Rng& rng) {
  Tensor t(fan_in, fan_out);
  const double a = std::sqrt(6.0 / static_cast<double>(fan_in + fan_out));
  for (auto& x : t.data_) x = rng.uniform(-a, a);
  return t;
}

double Tensor::item() const {
  if (size() != 1) throw std::logic_error("Tensor::item on non-scalar " + shape_str());
  return data_[0];
}

namespace {

/// Output columns one row keeps in local accumulators while its k loop
/// runs: eight doubles fill four SSE2 (two AVX) registers.
constexpr std::size_t kColumnBlock = 8;
/// Entries of an A row gathered per pass. Bounds the stack buffers; a
/// longer row (the flat and value networks' wide inputs) takes several
/// passes, each resuming from the partial sums stored in the output row.
constexpr std::size_t kChunk = 64;

/// B(kk, j) of the (possibly transposed) row-major B with `ldb` columns.
template <bool kTransB>
inline double b_at(const double* b, std::size_t ldb, std::size_t kk, std::size_t j) {
  return kTransB ? b[j * ldb + kk] : b[kk * ldb + j];
}

/// Columns [j0, j0 + width) of one output row: start from the stored
/// values (`resume`) or +0.0, add val[c] * B(idx[c], j) for c in order,
/// and store them back.
template <bool kTransB, std::size_t kWidth>
inline void row_block(const std::size_t* idx, const double* val, std::size_t count,
                      const double* b, std::size_t ldb, double* orow, std::size_t j0,
                      std::size_t width, bool resume) {
  const std::size_t w = kWidth != 0 ? kWidth : width;
  double acc[kColumnBlock];
  for (std::size_t jj = 0; jj < w; ++jj) acc[jj] = resume ? orow[j0 + jj] : 0.0;
  for (std::size_t c = 0; c < count; ++c) {
    const double aik = val[c];
    for (std::size_t jj = 0; jj < w; ++jj) {
      acc[jj] += aik * b_at<kTransB>(b, ldb, idx[c], j0 + jj);
    }
  }
  for (std::size_t jj = 0; jj < w; ++jj) orow[j0 + jj] = acc[jj];
}

/// Each output row gathers the nonzero entries of its A row (in k
/// order, a chunk at a time) and then runs every column block over just
/// those. Skipping aik == 0 is the reference loop's rule; gathering
/// first applies it once per row without a branch, so the ReLU zeros of
/// a hidden layer cost neither a mispredicted branch nor a product.
template <bool kTransB>
void blocked_matmul(MatrixRef a, bool trans_a, MatrixRef b, double* out, std::size_t m,
                    std::size_t n, std::size_t k, bool accumulate) {
  if (k == 0) {
    if (!accumulate) std::fill(out, out + m * n, 0.0);
    return;
  }
  // Row i of op(A) starts at a.data + i * a_row and steps by a_step.
  const std::size_t a_row = trans_a ? 1 : a.cols;
  const std::size_t a_step = trans_a ? a.cols : 1;
  std::size_t idx[kChunk];
  double val[kChunk];
  for (std::size_t i = 0; i < m; ++i) {
    const double* arow = a.data + i * a_row;
    double* orow = out + i * n;
    for (std::size_t k0 = 0; k0 < k; k0 += kChunk) {
      const std::size_t k1 = std::min(k, k0 + kChunk);
      std::size_t count = 0;
      for (std::size_t kk = k0; kk < k1; ++kk) {
        const double aik = arow[kk * a_step];
        idx[count] = kk;
        val[count] = aik;
        count += aik != 0.0 ? 1 : 0;
      }
      const bool resume = accumulate || k0 > 0;
      if (n == 1) {
        // A dot product: one accumulator, the same terms in the same order.
        double acc = resume ? orow[0] : 0.0;
        for (std::size_t c = 0; c < count; ++c) {
          acc += val[c] * b_at<kTransB>(b.data, b.cols, idx[c], 0);
        }
        orow[0] = acc;
        continue;
      }
      std::size_t j0 = 0;
      for (; j0 + kColumnBlock <= n; j0 += kColumnBlock) {
        row_block<kTransB, kColumnBlock>(idx, val, count, b.data, b.cols, orow, j0,
                                         kColumnBlock, resume);
      }
      if (j0 < n) {
        row_block<kTransB, 0>(idx, val, count, b.data, b.cols, orow, j0, n - j0, resume);
      }
    }
  }
}

}  // namespace

void matmul_kernel(MatrixRef a, MatrixRef b, double* out, bool trans_a, bool trans_b,
                   bool accumulate) {
  const std::size_t m = trans_a ? a.cols : a.rows;
  const std::size_t k = trans_a ? a.rows : a.cols;
  const std::size_t n = trans_b ? b.rows : b.cols;
  if (trans_b) {
    blocked_matmul<true>(a, trans_a, b, out, m, n, k, accumulate);
  } else {
    blocked_matmul<false>(a, trans_a, b, out, m, n, k, accumulate);
  }
}

namespace {
std::string shape_of(MatrixRef m) {
  return '[' + std::to_string(m.rows) + 'x' + std::to_string(m.cols) + ']';
}
}  // namespace

void Tensor::matmul_into(MatrixRef a, MatrixRef b, Tensor& out, bool trans_a, bool trans_b,
                         bool accumulate) {
  const std::size_t m = trans_a ? a.cols : a.rows;
  const std::size_t k = trans_a ? a.rows : a.cols;
  const std::size_t k2 = trans_b ? b.cols : b.rows;
  const std::size_t n = trans_b ? b.rows : b.cols;
  if (k != k2) {
    throw std::invalid_argument("matmul: inner dims " + shape_of(a) + " x " + shape_of(b));
  }
  if (out.rows_ != m || out.cols_ != n) {
    if (accumulate) throw std::invalid_argument("matmul: bad accumulate shape");
    // Reshape in place without clearing: the kernel writes every element
    // when not accumulating, and vector::resize reuses existing capacity,
    // so a caller cycling one scratch tensor through different layer
    // shapes stops allocating once the largest shape has been seen.
    out.rows_ = m;
    out.cols_ = n;
    out.data_.resize(m * n);
  }
  matmul_kernel(a, b, out.data_.data(), trans_a, trans_b, accumulate);
}

Tensor Tensor::matmul(const Tensor& other) const {
  Tensor out;
  matmul_into(*this, other, out);
  return out;
}

Tensor Tensor::transpose() const {
  Tensor t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  }
  return t;
}

namespace {
void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  if (!a.same_shape(b)) {
    throw std::invalid_argument(std::string(op) + ": shape mismatch " + a.shape_str() +
                                " vs " + b.shape_str());
  }
}
}  // namespace

Tensor& Tensor::add_(const Tensor& other) {
  check_same_shape(*this, other, "add_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Tensor& Tensor::sub_(const Tensor& other) {
  check_same_shape(*this, other, "sub_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Tensor& Tensor::mul_(double s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Tensor& Tensor::hadamard_(const Tensor& other) {
  check_same_shape(*this, other, "hadamard_");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

void Tensor::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

double Tensor::sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

double Tensor::mean() const {
  if (data_.empty()) return 0.0;
  return sum() / static_cast<double>(data_.size());
}

double Tensor::min() const {
  if (data_.empty()) throw std::logic_error("Tensor::min on empty");
  return *std::min_element(data_.begin(), data_.end());
}

double Tensor::max() const {
  if (data_.empty()) throw std::logic_error("Tensor::max on empty");
  return *std::max_element(data_.begin(), data_.end());
}

double Tensor::norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

Tensor Tensor::stack_rows(const std::vector<const Tensor*>& parts) {
  if (parts.empty()) throw std::invalid_argument("stack_rows: no parts");
  const std::size_t cols = parts.front()->cols_;
  std::size_t rows = 0;
  for (const Tensor* p : parts) {
    if (p->cols_ != cols) throw std::invalid_argument("stack_rows: column mismatch");
    rows += p->rows_;
  }
  Tensor t;
  t.rows_ = rows;
  t.cols_ = cols;
  t.data_.reserve(rows * cols);
  for (const Tensor* p : parts) t.data_.insert(t.data_.end(), p->data_.begin(), p->data_.end());
  return t;
}

Tensor Tensor::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Tensor::row");
  Tensor t(1, cols_);
  std::copy(data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
            data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_),
            t.data_.begin());
  return t;
}

Tensor Tensor::reshaped(std::size_t rows, std::size_t cols) const {
  Tensor t = *this;
  t.reshape_(rows, cols);
  return t;
}

Tensor& Tensor::reshape_(std::size_t rows, std::size_t cols) {
  if (rows * cols != size()) {
    throw std::invalid_argument("reshape: size mismatch " + shape_str());
  }
  rows_ = rows;
  cols_ = cols;
  return *this;
}

void Tensor::assign(std::size_t rows, std::size_t cols, double v) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, v);
}

double Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

std::string Tensor::shape_str() const { return shape_of(*this); }

}  // namespace rlbf::nn
