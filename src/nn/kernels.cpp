#include "vf/nn/kernels.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "gemm_tile.hpp"
#include "vf/obs/obs.hpp"
#include "vf/util/aligned.hpp"
#include "vf/util/contract.hpp"
#include "vf/util/parallel.hpp"

namespace vf::nn {

namespace {

void check(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(what);
}

// Below this many multiply-adds the fork/join cost dominates any speedup.
constexpr std::size_t kParallelWork = 1 << 14;

}  // namespace

namespace detail {
namespace {

// Cache blocking around the shared tile engine (gemm_tile.hpp): the packed
// B block (KC x the layer width, <= 768 KiB for the model's layers) sits
// in L2 and streams past one MR x KC A micro-panel held in L1. KC also
// fixes where each element's k sum is split into partial sums, so it is
// part of the numerical contract, not just a tuning knob.
constexpr std::size_t KC = 192;
constexpr std::size_t NC = 4096;

}  // namespace

void gemm_blocked(std::size_t m, std::size_t n, std::size_t k,
                  const double* a, std::size_t lda, bool a_trans,
                  const double* b, std::size_t ldb, bool b_trans, double* c,
                  std::size_t ldc, const double* bias, bool relu,
                  bool accumulate) {
  // Leading dimensions are row strides of the *stored* operands: op(A) is
  // (m x k) but A is stored (k x m) when transposed, and likewise for B.
  VF_REQUIRE(lda >= (a_trans ? m : k), "gemm_blocked: lda below logical row");
  VF_REQUIRE(ldb >= (b_trans ? k : n), "gemm_blocked: ldb below logical row");
  VF_REQUIRE(ldc >= n, "gemm_blocked: ldc below output row");
  // Every dense forward/backward funnels through here, so these two
  // counters cover the model's entire multiply-add volume.
  VF_OBS_COUNT("nn.gemm.calls", 1);
  VF_OBS_COUNT("nn.gemm.flops", 2 * m * n * k);
  if (m == 0 || n == 0) return;
  if (k == 0) {
    // Degenerate inner dimension: the product is all zeros + epilogue.
    for (std::size_t i = 0; i < m; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        double v = accumulate ? c[i * ldc + j] : 0.0;
        if (bias) v = accumulate ? v + bias[j] : bias[j];
        if (relu && v < 0.0) v = 0.0;
        c[i * ldc + j] = v;
      }
    }
    return;
  }

  constexpr std::size_t NR = Tile<double>::NR;
  const bool threads =
      vf::util::thread_count() > 1 && m * n * k >= kParallelWork;
  const std::size_t max_nc = std::min(NC, n);
  const std::size_t max_kc = std::min(KC, k);
  vf::util::AlignedVector<double> bpack(((max_nc + NR - 1) / NR) * NR *
                                        max_kc);

  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      const bool last = pc + kc == k;
      pack_b(b, ldb, b_trans, pc, kc, jc, nc, bpack.data());
      // Later Kc panels add to the partial sums already in C; bias and
      // ReLU fire only once the sum is complete.
      const Epilogue<double> ep{.accumulate = accumulate || pc > 0,
                                .bias = last && bias ? bias + jc : nullptr,
                                .relu = last && relu};
      sweep_block(m, nc, kc, a, lda, a_trans, pc, bpack.data(), c + jc, ldc,
                  ep, threads);
    }
  }
}

GemmBlocking gemm_blocking() {
  return {Tile<double>::MR, Tile<double>::NR, KC};
}

}  // namespace detail

void fused_dense_forward(const Matrix& input, const Matrix& weights,
                         const Matrix& bias, bool relu, Matrix& out) {
  check(input.cols() == weights.rows(),
        "fused_dense_forward: inner dims mismatch");
  check(bias.rows() == 1 && bias.cols() == weights.cols(),
        "fused_dense_forward: bias shape mismatch");
  check(&input != &out, "fused_dense_forward: out must not alias input");
  out.resize(input.rows(), weights.cols());
  detail::gemm_blocked(input.rows(), weights.cols(), input.cols(),
                       input.data().data(), input.cols(), false,
                       weights.data().data(), weights.cols(), false,
                       out.data().data(), out.cols(), bias.row(0), relu,
                       /*accumulate=*/false);
}

// ---------------------------------------------------------------------------
// Naive reference kernels: the pre-kernel-layer implementations, kept
// verbatim (plus the explicit zeroing the new resize() semantics require)
// so the equivalence tests always have an independent baseline.

void gemm_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.cols() == b.rows(), "gemm: inner dims mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  out.resize(m, n);
  out.set_zero();
  auto body = [&](std::int64_t ri) {
    auto r = static_cast<std::size_t>(ri);
    double* orow = out.row(r);
    const double* arow = a.row(r);
    for (std::size_t kk = 0; kk < k; ++kk) {
      double av = arow[kk];
      if (av == 0.0) continue;
      const double* brow = b.row(kk);
      for (std::size_t c = 0; c < n; ++c) orow[c] += av * brow[c];
    }
  };
  vf::util::parallel_for(
      0, static_cast<std::int64_t>(m), body,
      m * k * n < kParallelWork ? static_cast<std::int64_t>(m + 1) : 1);
}

void gemm_at_b_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.rows() == b.rows(), "gemm_at_b: outer dims mismatch");
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  out.resize(m, n);
  out.set_zero();
  // out(m,n) = sum_k a(k,m) * b(k,n). Iterate k outermost so both inputs
  // are read row-contiguously; `out` (m*n, typically the weight-gradient
  // shape) stays cache-resident across the k accumulation.
  if (static_cast<std::size_t>(vf::util::thread_count()) > 1 &&
      m * k * n >= kParallelWork) {
    // Parallel: split output rows; each thread scans its slice of a's rows.
    // vf-par: disjoint-writes — iteration ri writes only out.row(ri).
#pragma omp parallel for schedule(static)
    for (std::int64_t ri = 0; ri < static_cast<std::int64_t>(m); ++ri) {
      auto r = static_cast<std::size_t>(ri);
      double* orow = out.row(r);
      for (std::size_t kk = 0; kk < k; ++kk) {
        double av = a(kk, r);
        if (av == 0.0) continue;
        const double* brow = b.row(kk);
        for (std::size_t c = 0; c < n; ++c) orow[c] += av * brow[c];
      }
    }
    return;
  }
  for (std::size_t kk = 0; kk < k; ++kk) {
    const double* arow = a.row(kk);
    const double* brow = b.row(kk);
    for (std::size_t r = 0; r < m; ++r) {
      double av = arow[r];
      if (av == 0.0) continue;
      double* orow = out.row(r);
      for (std::size_t c = 0; c < n; ++c) orow[c] += av * brow[c];
    }
  }
}

void gemm_a_bt_naive(const Matrix& a, const Matrix& b, Matrix& out) {
  check(a.cols() == b.cols(), "gemm_a_bt: inner dims mismatch");
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  out.resize(m, n);
  out.set_zero();
  // Process four output columns per pass: one read of a's row feeds four
  // independent accumulation chains (better ILP than a single dot product).
  auto body = [&](std::int64_t ri) {
    auto r = static_cast<std::size_t>(ri);
    double* orow = out.row(r);
    const double* arow = a.row(r);
    std::size_t c = 0;
    for (; c + 4 <= n; c += 4) {
      const double* b0 = b.row(c);
      const double* b1 = b.row(c + 1);
      const double* b2 = b.row(c + 2);
      const double* b3 = b.row(c + 3);
      double acc0 = 0.0, acc1 = 0.0, acc2 = 0.0, acc3 = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        double av = arow[kk];
        acc0 += av * b0[kk];
        acc1 += av * b1[kk];
        acc2 += av * b2[kk];
        acc3 += av * b3[kk];
      }
      orow[c] = acc0;
      orow[c + 1] = acc1;
      orow[c + 2] = acc2;
      orow[c + 3] = acc3;
    }
    for (; c < n; ++c) {
      const double* brow = b.row(c);
      double acc = 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      orow[c] = acc;
    }
  };
  vf::util::parallel_for(
      0, static_cast<std::int64_t>(m), body,
      m * k * n < kParallelWork ? static_cast<std::int64_t>(m + 1) : 1);
}

}  // namespace vf::nn
