#include "nn/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>
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

void Tensor::matmul_into(const Tensor& a, const Tensor& b, Tensor& out, bool trans_a,
                         bool trans_b, bool accumulate) {
  const std::size_t m = trans_a ? a.cols_ : a.rows_;
  const std::size_t k = trans_a ? a.rows_ : a.cols_;
  const std::size_t k2 = trans_b ? b.cols_ : b.rows_;
  const std::size_t n = trans_b ? b.rows_ : b.cols_;
  if (k != k2) {
    throw std::invalid_argument("matmul: inner dims " + a.shape_str() + " x " +
                                b.shape_str());
  }
  if (out.rows_ != m || out.cols_ != n) {
    if (accumulate) throw std::invalid_argument("matmul: bad accumulate shape");
    // Reshape in place: vector::assign reuses existing capacity, so a
    // caller cycling one scratch tensor through different layer shapes
    // stops allocating once the largest shape has been seen.
    out.rows_ = m;
    out.cols_ = n;
    out.data_.assign(m * n, 0.0);
  } else if (!accumulate) {
    out.fill(0.0);
  }
  // i-k-j ordering keeps the inner loop streaming over contiguous rows
  // of B and OUT for the common non-transposed case.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t kk = 0; kk < k; ++kk) {
      const double aik = trans_a ? a.at(kk, i) : a.at(i, kk);
      if (aik == 0.0) continue;
      if (!trans_b) {
        const double* brow = b.data_.data() + kk * b.cols_;
        double* orow = out.data_.data() + i * out.cols_;
        for (std::size_t j = 0; j < n; ++j) orow[j] += aik * brow[j];
      } else {
        double* orow = out.data_.data() + i * out.cols_;
        for (std::size_t j = 0; j < n; ++j) orow[j] += aik * b.at(j, kk);
      }
    }
  }
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
  if (rows * cols != size()) {
    throw std::invalid_argument("reshape: size mismatch " + shape_str());
  }
  Tensor t = *this;
  t.rows_ = rows;
  t.cols_ = cols;
  return t;
}

double Tensor::max_abs_diff(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "max_abs_diff");
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[' << rows_ << 'x' << cols_ << ']';
  return os.str();
}

}  // namespace rlbf::nn
