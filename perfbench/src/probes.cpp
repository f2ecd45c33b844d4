#include "probes.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "vf/api/reconstruct.hpp"
#include "vf/core/features.hpp"
#include "vf/core/model.hpp"
#include "vf/nn/dense.hpp"
#include "vf/nn/kernels.hpp"
#include "vf/nn/quant.hpp"
#include "vf/spatial/neighbor_index.hpp"
#include "vf/util/parallel.hpp"
#include "vf/util/rng.hpp"

namespace pb {

vf::core::FcnnConfig paper_config() {
  vf::core::FcnnConfig cfg;  // paper hidden widths 512-256-128-64-16
  cfg.epochs = 10;
  cfg.max_train_rows = 4000;
  return cfg;
}

namespace {

/// Median seconds per call of `fn` over at least `min_calls` calls and
/// `min_seconds` of wall, after one warm-up call.
template <typename Fn>
double median_call_s(Fn&& fn, int min_calls = 5, double min_seconds = 0.05) {
  fn();
  std::vector<double> times;
  const auto t0 = Clock::now();
  while (static_cast<int>(times.size()) < min_calls ||
         seconds_since(t0) < min_seconds) {
    const auto a = Clock::now();
    fn();
    times.push_back(seconds_since(a));
  }
  return median(times);
}

/// Runs the enclosed probe on one OpenMP thread, restoring the count after.
class SingleThread {
 public:
  SingleThread() : saved_(vf::util::thread_count()) {
    vf::util::set_thread_count(1);
  }
  ~SingleThread() { vf::util::set_thread_count(saved_); }
  SingleThread(const SingleThread&) = delete;
  SingleThread& operator=(const SingleThread&) = delete;

 private:
  int saved_;
};

vf::nn::Matrix filled(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  vf::nn::Matrix m(rows, cols);
  vf::util::Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-1.0, 1.0);
  }
  return m;
}

}  // namespace

double peak_fma_gflops() {
  // Ten independent accumulator chains hide the FMA latency on two ports.
  constexpr int kChains = 10;
  constexpr long kIters = 2'000'000;
#if defined(__AVX512F__)
  using V = __m512d;
  constexpr int kLanes = 8;
  auto splat = [](double x) { return _mm512_set1_pd(x); };
  auto fma = [](V a, V b, V c) { return _mm512_fmadd_pd(a, b, c); };
  auto sum = [](V v) {
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, v);
    double total = 0.0;
    for (const double x : lanes) total += x;
    return total;
  };
#elif defined(__FMA__)
  using V = __m256d;
  constexpr int kLanes = 4;
  auto splat = [](double x) { return _mm256_set1_pd(x); };
  auto fma = [](V a, V b, V c) { return _mm256_fmadd_pd(a, b, c); };
  auto sum = [](V v) {
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, v);
    return lanes[0] + lanes[1] + lanes[2] + lanes[3];
  };
#else
  using V = double;
  constexpr int kLanes = 1;
  auto splat = [](double x) { return x; };
  auto fma = [](V a, V b, V c) { return std::fma(a, b, c); };
  auto sum = [](V v) { return v; };
#endif
  volatile double seed = 1e-9;
  double sink = 0.0;
  const double s = median_call_s(
      [&] {
        V acc[kChains];
        for (int c = 0; c < kChains; ++c) acc[c] = splat(seed * (c + 1));
        const V mul = splat(0.999999);
        const V add = splat(seed);
        for (long i = 0; i < kIters; ++i) {
          for (int c = 0; c < kChains; ++c) acc[c] = fma(acc[c], mul, add);
        }
        for (int c = 0; c < kChains; ++c) sink += sum(acc[c]);
      },
      5, 0.0);
  if (sink == 42.0) std::printf("%g\n", sink);  // keep the chains live
  const double flops = 2.0 * kLanes * kChains * static_cast<double>(kIters);
  return flops / s * 1e-9;
}

void probe_nn_table(Tracer& tracer, Report& report,
                    const vf::core::FcnnModel& model) {
  const SingleThread one_core;
  const auto probe = tracer.scope("probe.nn_table");
  double peak = 0.0;
  {
    const auto span = tracer.scope("nn.peak_fma");
    peak = peak_fma_gflops();
  }
  report.layer("nn.peak_fma_gflops", peak, "GFLOP/s");

  const std::size_t rows = vf::core::ReconstructOptions{}.tile_size;
  std::vector<const vf::nn::DenseLayer*> dense;
  for (std::size_t i = 0; i < model.net.layer_count(); ++i) {
    if (const auto* d =
            dynamic_cast<const vf::nn::DenseLayer*>(&model.net.layer(i))) {
      dense.push_back(d);
    }
  }
  for (std::size_t i = 0; i < dense.size() && i < 6; ++i) {
    const auto& w = dense[i]->weights();
    const auto& b = dense[i]->bias();
    const std::size_t in = w.rows();
    const std::size_t out = w.cols();
    const bool relu = i + 1 < dense.size();
    const auto x = filled(rows, in, 17 + i);
    vf::nn::Matrix y;
    const double flops = 2.0 * static_cast<double>(rows * in * out);
    const std::string prefix = "nn.layer" + std::to_string(i);

    double s64 = 0.0;
    {
      const auto span = tracer.scope("nn.layer_fp64");
      s64 = median_call_s(
          [&] { vf::nn::fused_dense_forward(x, w, b, relu, y); });
    }
    // One-layer fp16 network of the same shape: includes the fp64 <-> fp32
    // staging a layer pays at the ends of the quantized stack.
    const auto one = vf::nn::Network::mlp(in, {}, out, 23 + i);
    const vf::nn::QuantizedNetwork q16(one, vf::nn::QuantPolicy::Fp16);
    vf::nn::QuantScratch qs;
    double s16 = 0.0;
    {
      const auto span = tracer.scope("nn.layer_fp16");
      s16 = median_call_s([&] { q16.infer(x, y, qs); });
    }
    // Bytes a layer must move at least once: input, weights, bias, output.
    const double bytes =
        8.0 * static_cast<double>(rows * in + in * out + out + rows * out);
    report.layer(prefix + "_gflops", flops / s64 * 1e-9, "GFLOP/s");
    report.layer(prefix + "_fp16_gflops", flops / s16 * 1e-9, "GFLOP/s");
    report.layer(prefix + "_flop_per_byte", flops / bytes, "flop/byte");
    report.info(prefix + "_shape_" + std::to_string(in) + "x" +
                    std::to_string(out) + "_pct_of_peak",
                100.0 * flops / s64 * 1e-9 / peak, "%");
  }
}

void probe_query_path(Tracer& tracer, Report& report,
                      const vf::sampling::SampleCloud& cloud,
                      const std::vector<vf::field::Vec3>& queries,
                      const vf::core::FcnnModel& model,
                      std::size_t max_rows) {
  const auto probe = tracer.scope("probe.query_path");
  const std::size_t n = std::min(max_rows, queries.size());
  std::size_t nonfinite = 0;
  std::size_t duplicates = 0;
  const auto scrubbed = cloud.scrubbed(nonfinite, duplicates);

  std::unique_ptr<vf::spatial::NeighborIndex> index;
  double build_s = 0.0;
  {
    const auto span = tracer.scope("spatial.index_build");
    build_s = median_call_s([&] {
      index = vf::spatial::build_index(scrubbed.points(),
                                       vf::spatial::IndexKind::Auto, n);
    });
  }
  report.layer("spatial.index_build_s", build_s, "s");

  std::vector<std::uint32_t> nidx(n * vf::core::kNeighbors);
  std::vector<double> nd2(n * vf::core::kNeighbors);
  double knn_s = 0.0;
  {
    const auto span = tracer.scope("spatial.knn");
    knn_s = median_call_s([&] {
      index->knn_batch(queries.data(), n, vf::core::kNeighbors, nidx.data(),
                       nd2.data());
    }, 3);
  }
  report.layer("spatial.knn_queries_per_s", static_cast<double>(n) / knn_s,
               "queries/s");

  vf::nn::Matrix X;
  vf::core::FeatureScratch fs;
  double feat_s = 0.0;
  {
    const auto span = tracer.scope("core.features");
    feat_s = median_call_s([&] {
      vf::core::extract_features_into(*index, scrubbed.values(),
                                      queries.data(), n, X, fs);
    }, 3);
  }
  report.layer("core.features_rows_per_s", static_cast<double>(n) / feat_s,
               "rows/s");

  // Inference runs on one engine batch of rows: activations for the whole
  // sweep at 512 wide would not fit the memory budget.
  const std::size_t m = std::min<std::size_t>(n, 8192);
  vf::nn::Matrix Xb(m, X.cols());
  for (std::size_t r = 0; r < m; ++r) {
    for (std::size_t c = 0; c < X.cols(); ++c) Xb(r, c) = X(r, c);
  }
  model.in_norm.apply(Xb);
  vf::nn::Matrix Y;
  vf::nn::InferScratch is;
  double infer_s = 0.0;
  {
    const auto span = tracer.scope("nn.infer_fp64");
    infer_s = median_call_s([&] { model.net.infer(Xb, Y, is); }, 3);
  }
  report.layer("nn.infer_rows_per_s", static_cast<double>(m) / infer_s,
               "rows/s");
  const vf::nn::QuantizedNetwork q16(model.net, vf::nn::QuantPolicy::Fp16);
  vf::nn::QuantScratch qs;
  double infer16_s = 0.0;
  {
    const auto span = tracer.scope("nn.infer_fp16");
    infer16_s = median_call_s([&] { q16.infer(Xb, Y, qs); }, 3);
  }
  report.layer("nn.infer_fp16_rows_per_s", static_cast<double>(m) / infer16_s,
               "rows/s");

  // The serve workers' kernel: 512-point batches, one scratch, one core.
  const SingleThread one_core;
  constexpr std::size_t kBatch = 512;
  const std::size_t batches = std::max<std::size_t>(1, std::min<std::size_t>(
                                                           n / kBatch, 64));
  vf::api::PointScratch ps;
  std::vector<double> out(kBatch);
  double predict_s = 0.0;
  {
    const auto span = tracer.scope("api.predict_points");
    predict_s = median_call_s([&] {
      for (std::size_t b = 0; b < batches; ++b) {
        const std::size_t at = (b * kBatch) % std::max<std::size_t>(
                                                  1, n - kBatch + 1);
        (void)vf::api::predict_points(model, *index, scrubbed.values(),
                                      queries.data() + at,
                                      std::min(kBatch, n), out.data(), ps);
      }
    }, 3);
  }
  report.layer("api.predict_points_per_s",
               static_cast<double>(batches * std::min(kBatch, n)) / predict_s,
               "points/s");
}

void probe_model_load(Tracer& tracer, Report& report, const std::string& path) {
  double s = 0.0;
  {
    const auto span = tracer.scope("core.model_load");
    s = median_call_s([&] { (void)vf::core::FcnnModel::load(path); });
  }
  report.layer("core.model_load_s", s, "s");
}

void report_path_breakdown(const Tracer& tracer, Report& report,
                           const std::string& path, double paths) {
  for (const auto& [layer, s] : tracer.layer_self_s(path)) {
    report.layer(layer + ".self_s", s / paths, "s");
  }
  report.layer("unattributed_s", tracer.unattributed_s(path) / paths, "s");
}

}  // namespace pb
