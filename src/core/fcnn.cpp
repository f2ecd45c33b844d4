#include "vf/core/fcnn.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "vf/obs/obs.hpp"
#include "vf/util/env.hpp"
#include "vf/util/rng.hpp"
#include "vf/util/timer.hpp"

namespace vf::core {

using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::nn::Matrix;
using vf::sampling::SampleCloud;
using vf::sampling::Sampler;

FcnnConfig FcnnConfig::paper() {
  FcnnConfig cfg;
  cfg.epochs = 500;
  cfg.max_train_rows = 0;
  return cfg;
}

FcnnConfig FcnnConfig::bench() {
  FcnnConfig cfg;
  if (vf::util::full_scale()) {
    return paper();
  }
  cfg.batch_size = 128;  // maximise Adam steps within the reduced budget
  if (vf::util::quick_mode()) {
    cfg.epochs = 8;
    cfg.max_train_rows = 3000;
  } else {
    cfg.epochs = 15;
    cfg.max_train_rows = 8000;
  }
  return cfg;
}

std::vector<std::size_t> FcnnConfig::pyramid(int layers) {
  std::vector<std::size_t> hidden;
  std::size_t width = 512;
  for (int i = 0; i < layers; ++i) {
    hidden.push_back(width);
    if (width > 16) width /= 2;
  }
  return hidden;
}

namespace {

/// Stack rows of `parts` vertically into one matrix.
Matrix vstack(const std::vector<Matrix>& parts) {
  std::size_t rows = 0;
  std::size_t cols = parts.empty() ? 0 : parts.front().cols();
  for (const auto& p : parts) rows += p.rows();
  Matrix out(rows, cols);
  std::size_t at = 0;
  for (const auto& p : parts) {
    for (std::size_t r = 0; r < p.rows(); ++r) {
      std::copy(p.row(r), p.row(r) + cols, out.row(at++));
    }
  }
  return out;
}

/// Keep a random subset of rows (same permutation applied to X and Y).
void subset_rows(Matrix& X, Matrix& Y, std::size_t keep, std::uint64_t seed) {
  if (keep >= X.rows()) return;
  std::vector<std::size_t> order(X.rows());
  std::iota(order.begin(), order.end(), 0u);
  vf::util::Rng rng(seed, 0x726f7773);
  rng.shuffle(order);
  Matrix Xs(keep, X.cols()), Ys(keep, Y.cols());
  for (std::size_t r = 0; r < keep; ++r) {
    std::copy(X.row(order[r]), X.row(order[r]) + X.cols(), Xs.row(r));
    std::copy(Y.row(order[r]), Y.row(order[r]) + Y.cols(), Ys.row(r));
  }
  X = std::move(Xs);
  Y = std::move(Ys);
}

}  // namespace

TrainingSet build_training_set(const ScalarField& truth,
                               const Sampler& sampler,
                               const FcnnConfig& config) {
  if (config.train_fractions.empty()) {
    throw std::invalid_argument("build_training_set: no train fractions");
  }
  VF_OBS_SPAN("build_training_set");
  std::vector<Matrix> xs, ys;
  std::uint64_t seed = config.seed;
  for (double frac : config.train_fractions) {
    SampleCloud cloud = sampler.sample(truth, frac, seed++);
    auto voids = cloud.void_indices();
    // One index per sampled cloud; the void sweep is dense, so Auto
    // resolves to the grid-hash.
    FeatureRequest req;
    req.cloud = &cloud;
    req.grid = &truth.grid();
    req.indices = &voids;
    xs.push_back(extract_features(req));
    ys.push_back(extract_targets(truth, voids, config.with_gradients));
  }
  TrainingSet set{vstack(xs), vstack(ys)};

  std::size_t keep = set.X.rows();
  if (config.train_subset < 1.0) {
    keep = static_cast<std::size_t>(config.train_subset *
                                    static_cast<double>(keep));
  }
  if (config.max_train_rows > 0) {
    keep = std::min(keep, config.max_train_rows);
  }
  keep = std::max<std::size_t>(keep, 1);
  subset_rows(set.X, set.Y, keep, config.seed ^ 0xabcdu);
  return set;
}

PretrainResult pretrain(const ScalarField& truth, const Sampler& sampler,
                        const FcnnConfig& config) {
  VF_OBS_SPAN("pretrain");
  vf::util::Timer data_timer;  // vf-lint: allow(raw-timer) feeds PretrainResult
  TrainingSet set = build_training_set(truth, sampler, config);

  PretrainResult result;
  result.train_rows = set.X.rows();
  result.model.with_gradients = config.with_gradients;
  result.model.dataset = truth.name();
  result.model.in_norm = Normalizer::fit(set.X);
  result.model.out_norm = Normalizer::fit(set.Y);
  if (config.with_gradients && config.gradient_loss_weight != 1.0 &&
      config.gradient_loss_weight > 0.0) {
    // Inflating a column's stddev shrinks its normalised targets, scaling
    // that column's squared-error contribution by gradient_loss_weight.
    double inflate = 1.0 / std::sqrt(config.gradient_loss_weight);
    for (std::size_t c = 1; c < result.model.out_norm.stddev.size(); ++c) {
      result.model.out_norm.stddev[c] *= inflate;
    }
  }
  result.model.in_norm.apply(set.X);
  result.model.out_norm.apply(set.Y);
  result.data_seconds = data_timer.seconds();

  result.model.net = vf::nn::Network::mlp(
      static_cast<std::size_t>(kFeatureDim), config.hidden,
      config.with_gradients ? kTargetDimGrad : kTargetDimScalar, config.seed);

  vf::nn::TrainOptions topt;
  topt.epochs = config.epochs;
  topt.batch_size = config.batch_size;
  topt.learning_rate = config.learning_rate;
  topt.schedule = config.lr_schedule;
  topt.shuffle_seed = config.seed ^ 0x5a5a;
  topt.checkpoint_dir = config.checkpoint_dir;
  topt.checkpoint_every = config.checkpoint_every;
  topt.checkpoint_keep = config.checkpoint_keep;
  topt.resume = config.resume;
  vf::nn::Trainer trainer(topt);
  result.history = trainer.fit(result.model.net, set.X, set.Y);
  return result;
}

vf::nn::TrainHistory fine_tune(FcnnModel& model, const ScalarField& truth,
                               const Sampler& sampler,
                               const FcnnConfig& config, FineTuneMode mode,
                               int epochs, bool refit_normalization) {
  TrainingSet set = build_training_set(truth, sampler, config);
  if (refit_normalization) {
    // Cross-simulation transfer: rebind the model's I/O space to the new
    // data's statistics before adapting the weights.
    model.in_norm = Normalizer::fit(set.X);
    model.out_norm = Normalizer::fit(set.Y);
  }
  // Within one simulation the pretraining normalisation is kept so the
  // model's I/O space is stable across timesteps (weights adapt instead).
  model.in_norm.apply(set.X);
  model.out_norm.apply(set.Y);

  switch (mode) {
    case FineTuneMode::FullNetwork:
      model.net.set_all_trainable(true);
      break;
    case FineTuneMode::LastTwoLayers:
      model.net.set_trainable_last_dense(2);
      break;
  }

  vf::nn::TrainOptions topt;
  topt.epochs = epochs;
  topt.batch_size = config.batch_size;
  topt.learning_rate = config.learning_rate;
  topt.schedule = config.lr_schedule;
  topt.shuffle_seed = config.seed ^ 0x0f1e2d;
  // Forward the checkpoint wiring just like pretrain: the in-situ pipeline
  // fine-tunes every timestep and needs each step crash-resumable.
  topt.checkpoint_dir = config.checkpoint_dir;
  topt.checkpoint_every = config.checkpoint_every;
  topt.checkpoint_keep = config.checkpoint_keep;
  topt.resume = config.resume;
  vf::nn::Trainer trainer(topt);
  auto history = trainer.fit(model.net, set.X, set.Y);
  model.net.set_all_trainable(true);  // leave the model unrestricted
  return history;
}

FcnnReconstructor::FcnnReconstructor(FcnnModel model,
                                     const ReconstructOptions& opts)
    : FcnnReconstructor(
          std::make_shared<const CompiledModel>(std::move(model), opts.quant),
          opts) {}

FcnnReconstructor::FcnnReconstructor(
    std::shared_ptr<const CompiledModel> model, const ReconstructOptions& opts)
    : model_(std::move(model)),
      tile_(std::max<std::size_t>(1, opts.tile_size)),
      index_opt_(opts.index) {
  if (!model_) throw std::invalid_argument("FcnnReconstructor: null model");
}

const BoundCloud& FcnnReconstructor::bind(const SampleCloud& cloud,
                                          const UniformGrid3& grid) {
  // The engine sweeps (nearly) every grid point, so the grid size is the
  // query count Auto resolves against.
  auto next = BoundCloud::rebind(bound_, cloud, index_opt_,
                                 static_cast<std::size_t>(grid.point_count()));
  if (next != bound_) {
    ++tree_builds_;
    bound_ = std::move(next);
  }
  return *bound_;
}

std::size_t FcnnReconstructor::sweep(const BoundCloud& cloud,
                                     const UniformGrid3& grid,
                                     const std::int64_t* targets,
                                     std::int64_t n, ScalarField& scalar,
                                     vf::field::GradientField* gradient) {
  if (cloud.size() < static_cast<std::size_t>(kNeighbors)) {
    throw std::invalid_argument(
        "FcnnReconstructor: fewer usable samples than the feature stencil");
  }
  const auto tile = static_cast<std::int64_t>(tile_);
  const std::int64_t tiles = (n + tile - 1) / tile;
  const Normalizer& norm = model_->model().out_norm;
  std::size_t peak = 0;
  std::size_t repaired = 0;
  // vf-par: per-thread-scratch — each thread owns its PredictScratch and
  // staging; tiles write disjoint grid indices; the peak and repair-count
  // merges are inside omp critical.
#pragma omp parallel
  {
    PredictScratch ps;
    std::vector<Vec3> queries;
    std::vector<double> values;
    std::size_t local_peak = 0;
    std::size_t local_repaired = 0;
#pragma omp for schedule(dynamic)
    for (std::int64_t t = 0; t < tiles; ++t) {
      VF_OBS_HIST_TIMER("core.reconstruct.tile_seconds");
      const std::int64_t b = t * tile;
      const auto count = static_cast<std::size_t>(std::min(n, b + tile) - b);
      queries.resize(count);
      values.resize(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t at = b + static_cast<std::int64_t>(i);
        queries[i] = grid.position(targets ? targets[at] : at);
      }
      // Inside this parallel region the kernel's own OpenMP regions
      // serialise (nested parallelism is off), so each tile is one
      // thread's sequential pipeline.
      local_repaired += predict_points(*model_, cloud, queries.data(), count,
                                       values.data(), ps);
      for (std::size_t i = 0; i < count; ++i) {
        const std::int64_t at = b + static_cast<std::int64_t>(i);
        const std::int64_t g = targets ? targets[at] : at;
        scalar[g] = values[i];
        if (gradient != nullptr) {
          gradient->dx[g] = ps.Y(i, 1) * norm.stddev[1] + norm.mean[1];
          gradient->dy[g] = ps.Y(i, 2) * norm.stddev[2] + norm.mean[2];
          gradient->dz[g] = ps.Y(i, 3) * norm.stddev[3] + norm.mean[3];
        }
      }
      // Vec3 counts as 3 doubles.
      local_peak = std::max(local_peak, ps.element_count() +
                                            3 * queries.capacity() +
                                            values.capacity());
    }
#pragma omp critical
    {
      peak = std::max(peak, local_peak);
      repaired += local_repaired;
    }
  }
  peak_scratch_elements_ = std::max(peak_scratch_elements_, peak);
  return repaired;
}

FcnnReconstructor::FullReconstruction
FcnnReconstructor::reconstruct_with_gradients(const SampleCloud& cloud,
                                              const UniformGrid3& grid) {
  if (!model_->model().with_gradients) {
    throw std::logic_error(
        "reconstruct_with_gradients: model has scalar-only outputs");
  }
  VF_OBS_SPAN("fcnn_reconstruct");
  FullReconstruction out{
      ScalarField(grid, "fcnn"),
      {ScalarField(grid, "fcnn_dx"), ScalarField(grid, "fcnn_dy"),
       ScalarField(grid, "fcnn_dz")}};
  const BoundCloud& bound = bind(cloud, grid);
  (void)sweep(bound, grid, nullptr, grid.point_count(), out.scalar,
              &out.gradient);
  const auto& scrubbed = bound.cloud();
  if (scrubbed.has_grid() && scrubbed.grid() == grid) {
    const auto& kept = scrubbed.kept_indices();
    const auto& vals = scrubbed.values();
    for (std::size_t i = 0; i < kept.size(); ++i) {
      out.scalar[kept[i]] = vals[i];
    }
  }
  return out;
}

ScalarField FcnnReconstructor::reconstruct(const SampleCloud& cloud,
                                           const UniformGrid3& grid) {
  ReconstructReport report;
  return reconstruct(cloud, grid, report);
}

ScalarField FcnnReconstructor::reconstruct(const SampleCloud& cloud,
                                           const UniformGrid3& grid,
                                           ReconstructReport& report) {
  return reconstruct(bind(cloud, grid), grid, report);
}

ScalarField FcnnReconstructor::reconstruct(const BoundCloud& cloud,
                                           const UniformGrid3& grid,
                                           ReconstructReport& report) {
  VF_OBS_SPAN("fcnn_reconstruct");
  VF_OBS_COUNT("core.reconstruct.calls", 1);
  report = ReconstructReport{};
  report.input_points = cloud.input_points();
  report.scrubbed_nonfinite = cloud.scrubbed_nonfinite();
  report.scrubbed_duplicates = cloud.scrubbed_duplicates();

  ScalarField out(grid, "fcnn");
  const auto& scrubbed = cloud.cloud();
  // Prediction targets: the void indices when the grids match (sampled
  // points are pinned to their stored values), every grid point otherwise.
  std::vector<std::int64_t> voids;
  const bool same_grid = scrubbed.has_grid() && scrubbed.grid() == grid;
  if (same_grid) {
    const auto& kept = scrubbed.kept_indices();
    const auto& vals = scrubbed.values();
    for (std::size_t i = 0; i < kept.size(); ++i) out[kept[i]] = vals[i];
    voids = scrubbed.void_indices();
  }
  const std::int64_t n = same_grid ? static_cast<std::int64_t>(voids.size())
                                   : grid.point_count();
  const std::size_t repaired =
      sweep(cloud, grid, same_grid ? voids.data() : nullptr, n, out, nullptr);
  report.predicted_points = static_cast<std::size_t>(n) - repaired;
  report.degraded_points = repaired;
  if (repaired > 0) {
    report.fallback = FallbackReason::NonFiniteOutput;
    report.detail = "network produced non-finite outputs";
  }
  VF_OBS_COUNT("core.reconstruct.predicted_points", report.predicted_points);
  VF_OBS_COUNT("core.reconstruct.repaired_points", report.degraded_points);
  return out;
}

}  // namespace vf::core
