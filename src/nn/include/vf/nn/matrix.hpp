#pragma once
// Dense row-major matrix with the handful of BLAS-like kernels the MLP
// engine needs. This replaces the GPU tensor library the paper trained on
// (see DESIGN.md substitutions): the model is a tiny 5-hidden-layer MLP, so
// a cache-blocked CPU GEMM is entirely adequate and keeps the maths
// identical to the paper's.
//
// The GEMM entry points below dispatch to the tiled/packed kernel layer in
// kernels.hpp (Mc/Kc blocked, 8x8 register-tiled SIMD micro-kernel).
// Storage is 64-byte aligned so the micro-kernel's vector accesses never
// straddle cache lines.

#include <cstddef>
#include <span>

#include "vf/util/aligned.hpp"
#include "vf/util/contract.hpp"

namespace vf::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  [[nodiscard]] std::size_t rows() const { return rows_; }
  [[nodiscard]] std::size_t cols() const { return cols_; }
  [[nodiscard]] std::size_t size() const { return data_.size(); }

  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    VF_BOUNDS_CHECK(r, rows_);
    VF_BOUNDS_CHECK(c, cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    VF_BOUNDS_CHECK(r, rows_);
    VF_BOUNDS_CHECK(c, cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] std::span<const double> data() const { return data_; }
  [[nodiscard]] std::span<double> data() { return data_; }
  [[nodiscard]] const double* row(std::size_t r) const {
    VF_BOUNDS_CHECK(r, rows_);
    return data_.data() + r * cols_;
  }
  [[nodiscard]] double* row(std::size_t r) {
    VF_BOUNDS_CHECK(r, rows_);
    return data_.data() + r * cols_;
  }

  void fill(double v);
  /// Zero every element in place (shape unchanged).
  void set_zero() { fill(0.0); }

  /// Reshape to (rows x cols). When the shape is unchanged this is a no-op
  /// and the existing contents are KEPT — callers that previously relied on
  /// resize() zero-filling a same-shaped buffer must call set_zero()
  /// explicitly. A shape change reallocates and zero-fills as before. This
  /// removes the alloc + memset churn of the per-minibatch resizes on the
  /// training and inference hot paths.
  void resize(std::size_t rows, std::size_t cols);

  /// Frobenius-norm squared (used by tests and gradient clipping).
  [[nodiscard]] double squared_norm() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  vf::util::AlignedVector<double> data_;
};

// out = a * b              (m x k) . (k x n) -> (m x n)
void gemm(const Matrix& a, const Matrix& b, Matrix& out);
// out = a^T * b            (k x m)^T . (k x n) -> (m x n)
void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& out);
// out += a^T * b           into an existing (m x n) out (gradient
//                          accumulation; no temporary product)
void gemm_at_b_add(const Matrix& a, const Matrix& b, Matrix& out);
// out = a * b^T            (m x k) . (n x k)^T -> (m x n)
void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& out);

/// out(r, :) += bias for every row r.
void add_row_vector(Matrix& out, const Matrix& bias);

/// bias(0, :) = sum over rows of grad (bias gradient reduction).
void sum_rows(const Matrix& grad, Matrix& bias);

/// bias(0, :) += sum over rows of grad, into an existing (1 x cols) bias;
/// each column adds grad's rows in order.
void sum_rows_add(const Matrix& grad, Matrix& bias);

/// y = alpha * x + y, elementwise over equal-shaped matrices.
void axpy(double alpha, const Matrix& x, Matrix& y);

}  // namespace vf::nn
