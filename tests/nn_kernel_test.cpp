// Equivalence suite for the blocked GEMM kernel layer against the retained
// naive reference kernels, plus the fused dense forward and the Matrix
// storage semantics the kernels rely on.
//
// The blocked path keeps the naive per-element k-summation order but
// re-associates partial sums at Kc-panel boundaries, so comparisons use a
// magnitude-scaled tolerance (a few ulps) rather than exact equality. The
// TileEdges shapes sit one either side of this build's register tile and
// Kc panel (detail::gemm_blocking()), where the write-back changes path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <tuple>
#include <vector>

#include "vf/nn/kernels.hpp"
#include "vf/nn/matrix.hpp"
#include "vf/nn/network.hpp"
#include "vf/nn/quant.hpp"
#include "vf/util/rng.hpp"

namespace {

using vf::nn::Matrix;

Matrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Matrix m(rows, cols);
  vf::util::Rng rng(seed, 0x6b65726e);
  for (auto& v : m.data()) v = rng.uniform(-1.0, 1.0);
  return m;
}

void expect_close(const Matrix& got, const Matrix& want, double tol = 1e-12) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  for (std::size_t r = 0; r < want.rows(); ++r) {
    for (std::size_t c = 0; c < want.cols(); ++c) {
      double scale = std::max(1.0, std::abs(want(r, c)));
      ASSERT_NEAR(got(r, c), want(r, c), tol * scale)
          << "at (" << r << ", " << c << ")";
    }
  }
}

// (m, n, k) shapes: exact-tile, tile remainders, degenerate 1s, primes, the
// 23-wide feature dimension, tall-skinny batches, and multi-Kc-panel depths
// that exercise the accumulate path.
using Shape = std::tuple<std::size_t, std::size_t, std::size_t>;

class GemmEquivalence : public ::testing::TestWithParam<Shape> {};

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmEquivalence,
    ::testing::Values(Shape{1, 1, 1}, Shape{1, 1, 7}, Shape{7, 1, 1},
                      Shape{1, 9, 1}, Shape{2, 3, 5}, Shape{8, 16, 192},
                      Shape{9, 17, 193}, Shape{23, 23, 23}, Shape{31, 29, 37},
                      Shape{256, 24, 23}, Shape{1000, 4, 23},
                      Shape{13, 512, 23}, Shape{129, 17, 192},
                      Shape{8, 16, 384}, Shape{40, 50, 450}));

// m in {1, MR-1, MR+1} x n in {1, NR-1, NR+1} x k in {KC-1, KC, KC+1, 23}.
std::vector<Shape> tile_edge_shapes() {
  const auto blk = vf::nn::detail::gemm_blocking();
  std::vector<Shape> shapes;
  for (std::size_t m : {std::size_t{1}, blk.mr - 1, blk.mr + 1}) {
    for (std::size_t n : {std::size_t{1}, blk.nr - 1, blk.nr + 1}) {
      for (std::size_t k : {blk.kc - 1, blk.kc, blk.kc + 1, std::size_t{23}}) {
        shapes.emplace_back(m, n, k);
      }
    }
  }
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(TileEdges, GemmEquivalence,
                         ::testing::ValuesIn(tile_edge_shapes()));

TEST_P(GemmEquivalence, GemmMatchesNaive) {
  auto [m, n, k] = GetParam();
  Matrix a = random_matrix(m, k, 11 * m + 13 * n + k);
  Matrix b = random_matrix(k, n, 17 * m + 19 * n + k);
  Matrix want, got;
  vf::nn::gemm_naive(a, b, want);
  vf::nn::gemm(a, b, got);
  expect_close(got, want);
}

TEST_P(GemmEquivalence, GemmAtBMatchesNaive) {
  auto [m, n, k] = GetParam();
  // a is stored (k x m): out = a^T . b.
  Matrix a = random_matrix(k, m, 23 * m + 29 * n + k);
  Matrix b = random_matrix(k, n, 31 * m + 37 * n + k);
  Matrix want, got;
  vf::nn::gemm_at_b_naive(a, b, want);
  vf::nn::gemm_at_b(a, b, got);
  expect_close(got, want);
}

TEST_P(GemmEquivalence, GemmABtMatchesNaive) {
  auto [m, n, k] = GetParam();
  // b is stored (n x k): out = a . b^T.
  Matrix a = random_matrix(m, k, 41 * m + 43 * n + k);
  Matrix b = random_matrix(n, k, 47 * m + 53 * n + k);
  Matrix want, got;
  vf::nn::gemm_a_bt_naive(a, b, want);
  vf::nn::gemm_a_bt(a, b, got);
  expect_close(got, want);
}

// gemm_blocked's epilogue on every operand layout: bias, bias + ReLU, and
// accumulate-into-C (with and without bias + ReLU), against the naive
// product with the same epilogue applied afterwards.
TEST_P(GemmEquivalence, EpilogueAndAccumulateMatchNaive) {
  auto [m, n, k] = GetParam();
  const Matrix bias = random_matrix(1, n, 61 * m + n + k);
  const Matrix prior = random_matrix(m, n, 67 * m + n + k);
  for (int variant = 0; variant < 3; ++variant) {
    const bool a_trans = variant == 1;
    const bool b_trans = variant == 2;
    const Matrix a = a_trans ? random_matrix(k, m, 71 * m + k)
                             : random_matrix(m, k, 73 * m + k);
    const Matrix b = b_trans ? random_matrix(n, k, 79 * n + k)
                             : random_matrix(k, n, 83 * n + k);
    Matrix product;
    if (a_trans) {
      vf::nn::gemm_at_b_naive(a, b, product);
    } else if (b_trans) {
      vf::nn::gemm_a_bt_naive(a, b, product);
    } else {
      vf::nn::gemm_naive(a, b, product);
    }
    struct Mode {
      bool accumulate, bias, relu;
    };
    for (const Mode mode : {Mode{false, true, false}, Mode{false, true, true},
                            Mode{true, false, false}, Mode{true, true, true}}) {
      Matrix want = product;
      for (std::size_t r = 0; r < m; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          double v = want(r, c);
          if (mode.accumulate) v += prior(r, c);
          if (mode.bias) v += bias(0, c);
          if (mode.relu && v < 0.0) v = 0.0;
          want(r, c) = v;
        }
      }
      Matrix got = mode.accumulate ? prior : Matrix(m, n, 7.0);
      vf::nn::detail::gemm_blocked(
          m, n, k, a.data().data(), a.cols(), a_trans, b.data().data(),
          b.cols(), b_trans, got.data().data(), got.cols(),
          mode.bias ? bias.row(0) : nullptr, mode.relu, mode.accumulate);
      SCOPED_TRACE(::testing::Message()
                   << "variant " << variant << " accumulate "
                   << mode.accumulate << " bias " << mode.bias << " relu "
                   << mode.relu);
      expect_close(got, want);
    }
  }
}

TEST(Gemm, AddVariantsAccumulateIntoExistingOutput) {
  // The gradient-accumulation entry points add into what is already there
  // and refuse an output of the wrong shape.
  const Matrix x = random_matrix(300, 23, 201);
  const Matrix dy = random_matrix(300, 17, 202);
  Matrix wg = random_matrix(23, 17, 203), bg = random_matrix(1, 17, 204);
  Matrix want_w, want_b;
  vf::nn::gemm_at_b_naive(x, dy, want_w);
  vf::nn::sum_rows(dy, want_b);
  for (std::size_t i = 0; i < want_w.size(); ++i) {
    want_w.data()[i] += wg.data()[i];
  }
  for (std::size_t i = 0; i < want_b.size(); ++i) {
    want_b.data()[i] += bg.data()[i];
  }
  vf::nn::gemm_at_b_add(x, dy, wg);
  vf::nn::sum_rows_add(dy, bg);
  expect_close(wg, want_w);
  expect_close(bg, want_b);

  Matrix wrong(17, 23);
  EXPECT_THROW(vf::nn::gemm_at_b_add(x, dy, wrong), std::invalid_argument);
  Matrix wrong_bias(1, 16);
  EXPECT_THROW(vf::nn::sum_rows_add(dy, wrong_bias), std::invalid_argument);
}

TEST(Gemm, DegenerateDims) {
  // k == 0 contracts an empty sum: the output must be all zeros even if the
  // destination held stale values.
  Matrix a(3, 0), b(0, 4);
  Matrix out(3, 4);
  out.fill(7.0);
  vf::nn::gemm(a, b, out);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.data()[i], 0.0);
  }
  // m == 0 / n == 0 produce empty outputs without touching memory.
  Matrix e0(0, 5), e1(5, 0), r;
  vf::nn::gemm(e0, random_matrix(5, 3, 1), r);
  EXPECT_EQ(r.rows(), 0u);
  EXPECT_EQ(r.cols(), 3u);
  vf::nn::gemm(random_matrix(4, 5, 2), e1, r);
  EXPECT_EQ(r.rows(), 4u);
  EXPECT_EQ(r.cols(), 0u);
}

TEST(FusedDense, MatchesUnfusedPipeline) {
  const std::size_t m = 37, k = 23, n = 19;
  Matrix x = random_matrix(m, k, 101);
  Matrix w = random_matrix(k, n, 102);
  Matrix bias = random_matrix(1, n, 103);

  Matrix want;
  vf::nn::gemm(x, w, want);
  vf::nn::add_row_vector(want, bias);

  Matrix fused;
  vf::nn::fused_dense_forward(x, w, bias, /*relu=*/false, fused);
  expect_close(fused, want);

  // ReLU variant: clamp the reference, rerun fused.
  for (auto& v : want.data()) v = v > 0.0 ? v : 0.0;
  vf::nn::fused_dense_forward(x, w, bias, /*relu=*/true, fused);
  expect_close(fused, want);
}

TEST(FusedDense, RejectsBadShapesAndAliasing) {
  Matrix x = random_matrix(4, 6, 1);
  Matrix w = random_matrix(6, 3, 2);
  Matrix bias = random_matrix(1, 3, 3);
  Matrix out;
  Matrix bad_w = random_matrix(5, 3, 4);
  EXPECT_THROW(vf::nn::fused_dense_forward(x, bad_w, bias, false, out),
               std::invalid_argument);
  Matrix bad_bias = random_matrix(1, 2, 5);
  EXPECT_THROW(vf::nn::fused_dense_forward(x, w, bad_bias, false, out),
               std::invalid_argument);
  EXPECT_THROW(vf::nn::fused_dense_forward(x, w, bias, false, x),
               std::invalid_argument);
}

TEST(FusedDense, RowsDoNotDependOnTheirBatch) {
  // A served probe computes a handful of rows; the grid engine computes
  // the same rows inside a full tile. Each row's answer must be the same
  // bytes either way, on the fp64 path and on the fp32/fp16 quantized
  // paths (the int8 counterpart lives in nn_quant_test).
  const vf::nn::Network net =
      vf::nn::Network::mlp(23, {512, 256, 128, 64, 16}, 4, 11);
  const std::size_t tile_rows = 2048, probe_rows = 4, first = 1001;
  const Matrix tile = random_matrix(tile_rows, 23, 401);
  Matrix probe(probe_rows, 23);
  for (std::size_t r = 0; r < probe_rows; ++r) {
    for (std::size_t c = 0; c < 23; ++c) probe(r, c) = tile(first + r, c);
  }
  auto expect_same_rows = [&](const Matrix& in_tile, const Matrix& alone) {
    ASSERT_EQ(alone.rows(), probe_rows);
    ASSERT_EQ(alone.cols(), in_tile.cols());
    for (std::size_t r = 0; r < probe_rows; ++r) {
      EXPECT_EQ(std::memcmp(in_tile.row(first + r), alone.row(r),
                            alone.cols() * sizeof(double)),
                0)
          << "row " << first + r;
    }
  };

  Matrix tile_out, probe_out;
  vf::nn::InferScratch scratch;
  net.infer(tile, tile_out, scratch);
  net.infer(probe, probe_out, scratch);
  expect_same_rows(tile_out, probe_out);

  for (const auto policy :
       {vf::nn::QuantPolicy::Fp32, vf::nn::QuantPolicy::Fp16}) {
    SCOPED_TRACE(vf::nn::to_string(policy));
    const vf::nn::QuantizedNetwork q(net, policy);
    vf::nn::QuantScratch qs;
    q.infer(tile, tile_out, qs);
    q.infer(probe, probe_out, qs);
    expect_same_rows(tile_out, probe_out);
  }
}

TEST(InferPath, MatchesTrainingForward) {
  // The fused streaming inference must agree with the layer-by-layer
  // training forward across all supported activations.
  vf::nn::Network net;
  net.add(std::make_unique<vf::nn::DenseLayer>(23, 32, 7u));
  net.add(std::make_unique<vf::nn::ReluLayer>());
  net.add(std::make_unique<vf::nn::DenseLayer>(32, 16, 8u));
  net.add(std::make_unique<vf::nn::TanhLayer>());
  net.add(std::make_unique<vf::nn::DenseLayer>(16, 8, 9u));
  net.add(std::make_unique<vf::nn::LeakyReluLayer>(0.1));
  net.add(std::make_unique<vf::nn::DenseLayer>(8, 4, 10u));

  Matrix x = random_matrix(71, 23, 301);
  Matrix want, got;
  net.forward(x, want);
  vf::nn::InferScratch scratch;
  net.infer(x, got, scratch);
  expect_close(got, want);

  // Second call reuses the scratch buffers without growing them.
  std::size_t held = scratch.element_count();
  net.infer(x, got, scratch);
  expect_close(got, want);
  EXPECT_EQ(scratch.element_count(), held);
}

TEST(MatrixStorage, ResizeKeepsContentsWhenShapeUnchanged) {
  Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = double(i + 1);
  m.resize(3, 4);  // no-op: same shape
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m.data()[i], double(i + 1));
  }
  m.resize(2, 4);  // shape change: zero-filled
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0);
  m.fill(5.0);
  m.set_zero();
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0);
}

TEST(MatrixStorage, DataIs64ByteAligned) {
  for (std::size_t rows : {1u, 7u, 64u}) {
    Matrix m(rows, 23);
    auto addr = reinterpret_cast<std::uintptr_t>(m.data().data());
    EXPECT_EQ(addr % 64, 0u) << rows << " rows";
  }
}

}  // namespace
