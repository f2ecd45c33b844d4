#pragma once
// Compute-kernel layer under vf::nn: cache-blocked, packed-panel GEMM with a
// register-resident SIMD micro-kernel, plus the fused dense-layer forward
// used by the streaming inference path.
//
// Layout (BLIS-style):
//   - the k dimension is split into Kc = 192 panels, the n dimension into
//     Nc blocks; for each (Kc, Nc) slice the B panel is packed once into
//     Kc x NR micro-panels and each thread packs its ~128-row block of A
//     into MR x Kc micro-panels (packing also absorbs the A^T / B^T
//     operand layouts, so all three GEMM variants share one micro-kernel);
//   - the micro-kernel (src/nn/gemm_tile.hpp, shared with the fp32
//     quantized path) holds the whole MR x NR accumulator tile in vector
//     registers and issues full-width FMAs: the width comes from the
//     compile target (8 x 16 doubles in 512-bit registers under AVX-512,
//     6 x 8 under AVX2, 5 x 4 on baseline SSE2), never from a runtime
//     switch. Each thread sweeps one MR-row strip across every column
//     panel before the next, so C is written row-contiguously;
//   - the tile write-back is vectorised for every full-width tile,
//     whatever its row count: adding the partial sums of earlier Kc
//     panels (or C's prior contents in accumulate mode), bias, and ReLU.
//     Only a ragged right edge falls back to scalars;
//   - the k-summation order per output element matches the naive triple
//     loop; the only deviation is that partial sums are re-associated at
//     Kc-panel boundaries (and FMA contraction may differ), so results
//     agree with the reference kernels to a few ulps (~1e-13 relative),
//     not necessarily bit-for-bit. The tile shape decides only which
//     elements share registers, so tuning MR/NR never changes a result.
//
// The fused forward applies `+ bias` and optionally ReLU inside the tile
// write-back of the last Kc panel, eliminating the separate full passes
// over the output that add_row_vector + ReluLayer::forward used to make.

#include "vf/nn/matrix.hpp"

namespace vf::nn {

/// Fused inference dense layer: out = act(input . weights + bias) with
/// act = ReLU when `relu`, identity otherwise. Equivalent to
/// gemm + add_row_vector + elementwise ReLU up to GEMM rounding (see the
/// header note). `out` must not alias `input`.
void fused_dense_forward(const Matrix& input, const Matrix& weights,
                         const Matrix& bias, bool relu, Matrix& out);

// Naive reference kernels (the pre-kernel-layer implementations), retained
// for the equivalence test suite and as the comparison baseline in
// bench/micro_kernels.
void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out);
void gemm_at_b_naive(const Matrix& a, const Matrix& b, Matrix& out);
void gemm_a_bt_naive(const Matrix& a, const Matrix& b, Matrix& out);

namespace detail {

/// Blocked GEMM core: C(m x n, leading dim ldc) = op(A) . op(B), where
/// op(A) is A(m x k) row-major with leading dimension lda, or, when
/// `a_trans`, the transpose of A stored (k x m); likewise op(B) is
/// B(k x n) or, when `b_trans`, the transpose of B stored (n x k).
/// C is overwritten, or, when `accumulate`, the product is added to C's
/// prior contents (C += op(A) . op(B)) in the same tile write-back that
/// joins Kc panels. When `bias` is non-null it is a length-n row added to
/// every output row; `relu` clamps negatives, both applied in the
/// final-panel write-back.
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, bool a_trans,
                  const double* b, std::size_t ldb, bool b_trans, double* c,
                  std::size_t ldc, const double* bias, bool relu,
                  bool accumulate);

/// The blocking gemm_blocked runs with in this build: the MR x NR register
/// tile (sized by the compile target's vector width) and the Kc panel
/// depth at which each element's k sum is split into partial sums.
/// Exposed so the tests can aim shapes at the tile edges.
struct GemmBlocking {
  std::size_t mr;
  std::size_t nr;
  std::size_t kc;
};
[[nodiscard]] GemmBlocking gemm_blocking();

}  // namespace detail

}  // namespace vf::nn
