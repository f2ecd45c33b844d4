#include "vf/nn/matrix.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "vf/nn/kernels.hpp"
#include "vf/util/contract.hpp"
#include "vf/util/parallel.hpp"

namespace vf::nn {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  VF_REQUIRE(cols == 0 || rows * cols / cols == rows,
             "Matrix: rows * cols overflows size_t");
}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

void Matrix::resize(std::size_t rows, std::size_t cols) {
  VF_REQUIRE(cols == 0 || rows * cols / cols == rows,
             "Matrix::resize: rows * cols overflows size_t");
  if (rows == rows_ && cols == cols_) return;  // shape-preserving: keep data
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, 0.0);
}

double Matrix::squared_norm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return acc;
}

namespace {

void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// Parallelise only when the work amortises the fork.
constexpr std::int64_t kParallelWork = 1 << 14;

/// Grain so parallel_for stays serial until ~kParallelWork elements of work.
std::int64_t row_grain(std::size_t cols) {
  return std::max<std::int64_t>(
      1, kParallelWork / static_cast<std::int64_t>(std::max<std::size_t>(
             cols, 1)));
}

}  // namespace

void gemm(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.cols() == b.rows(), "gemm: inner dims mismatch");
  out.resize(a.rows(), b.cols());
  detail::gemm_blocked(a.rows(), b.cols(), a.cols(), a.data().data(),
                       a.cols(), /*a_trans=*/false, b.data().data(), b.cols(),
                       /*b_trans=*/false, out.data().data(), out.cols(),
                       nullptr, false, /*accumulate=*/false);
}

void gemm_at_b(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.rows() == b.rows(), "gemm_at_b: outer dims mismatch");
  // a is stored (k x m); op(A) = a^T.
  out.resize(a.cols(), b.cols());
  detail::gemm_blocked(a.cols(), b.cols(), a.rows(), a.data().data(),
                       a.cols(), /*a_trans=*/true, b.data().data(), b.cols(),
                       /*b_trans=*/false, out.data().data(), out.cols(),
                       nullptr, false, /*accumulate=*/false);
}

void gemm_at_b_add(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.rows() == b.rows(), "gemm_at_b_add: outer dims mismatch");
  check(out.rows() == a.cols() && out.cols() == b.cols(),
        "gemm_at_b_add: out shape mismatch");
  detail::gemm_blocked(a.cols(), b.cols(), a.rows(), a.data().data(),
                       a.cols(), /*a_trans=*/true, b.data().data(), b.cols(),
                       /*b_trans=*/false, out.data().data(), out.cols(),
                       nullptr, false, /*accumulate=*/true);
}

void gemm_a_bt(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.cols() == b.cols(), "gemm_a_bt: inner dims mismatch");
  // b is stored (n x k); op(B) = b^T.
  out.resize(a.rows(), b.rows());
  detail::gemm_blocked(a.rows(), b.rows(), a.cols(), a.data().data(),
                       a.cols(), /*a_trans=*/false, b.data().data(), b.cols(),
                       /*b_trans=*/true, out.data().data(), out.cols(),
                       nullptr, false, /*accumulate=*/false);
}

void add_row_vector(Matrix& out, const Matrix& bias) {
  check(bias.rows() == 1 && bias.cols() == out.cols(),
        "add_row_vector: bias shape mismatch");
  const double* b = bias.row(0);
  const std::size_t cols = out.cols();
  vf::util::parallel_for(
      0, static_cast<std::int64_t>(out.rows()),
      [&](std::int64_t r) {
        double* orow = out.row(static_cast<std::size_t>(r));
#pragma omp simd
        for (std::size_t c = 0; c < cols; ++c) orow[c] += b[c];
      },
      row_grain(cols));
}

void sum_rows(const Matrix& grad, Matrix& bias) {
  bias.resize(1, grad.cols());
  bias.set_zero();
  sum_rows_add(grad, bias);
}

void sum_rows_add(const Matrix& grad, Matrix& bias) {
  check(bias.rows() == 1 && bias.cols() == grad.cols(),
        "sum_rows_add: bias shape mismatch");
  double* b = bias.row(0);
  const std::size_t rows = grad.rows(), cols = grad.cols();
  // Parallelise over disjoint column chunks: each thread owns a slice of
  // the output row and scans every input row's contiguous segment for it,
  // so no reduction combine step is needed.
  constexpr std::int64_t kChunk = 64;
  const auto nchunks =
      (static_cast<std::int64_t>(cols) + kChunk - 1) / kChunk;
  const std::int64_t grain =
      static_cast<std::int64_t>(rows * cols) < kParallelWork ? nchunks + 1
                                                             : 1;
  vf::util::parallel_for(
      0, nchunks,
      [&](std::int64_t ch) {
        const std::size_t c0 = static_cast<std::size_t>(ch) * kChunk;
        const std::size_t c1 =
            std::min(cols, c0 + static_cast<std::size_t>(kChunk));
        for (std::size_t r = 0; r < rows; ++r) {
          const double* grow = grad.row(r);
#pragma omp simd
          for (std::size_t c = c0; c < c1; ++c) b[c] += grow[c];
        }
      },
      grain);
}

void axpy(double alpha, const Matrix& x, Matrix& y) {
  check(x.rows() == y.rows() && x.cols() == y.cols(), "axpy: shape mismatch");
  const double* xd = x.data().data();
  double* yd = y.data().data();
  const auto n = static_cast<std::int64_t>(x.size());
  constexpr std::int64_t kChunk = 4096;
  const std::int64_t nchunks = (n + kChunk - 1) / kChunk;
  const std::int64_t grain = n < kParallelWork ? nchunks + 1 : 1;
  vf::util::parallel_for(
      0, nchunks,
      [&](std::int64_t ch) {
        const std::int64_t i0 = ch * kChunk;
        const std::int64_t i1 = std::min(n, i0 + kChunk);
#pragma omp simd
        for (std::int64_t i = i0; i < i1; ++i) yd[i] += alpha * xd[i];
      },
      grain);
}

}  // namespace vf::nn
