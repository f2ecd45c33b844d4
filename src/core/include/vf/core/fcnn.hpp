#pragma once
// The paper's contribution: FCNN-based reconstruction of sampled data.
//
// Pipeline (paper §III, Fig 1/4/5):
//   pretrain()   — sample the available timestep at the configured fractions
//                  (1% + 5% in the paper), build the void-location training
//                  set, and train the MLP (512-256-128-64-16 hidden, ReLU,
//                  MSE, Adam 1e-3).
//   fine_tune()  — adapt a pretrained model to a new timestep / resolution:
//                  Case 1 retrains every layer for ~10 epochs; Case 2
//                  retrains only the last two dense layers (~300-500 epochs)
//                  so later timesteps can be stored as small weight deltas.
//   FcnnReconstructor — once trained, reconstruction is a batched forward
//                  pass over all void locations: constant time in the
//                  sampling fraction (paper Fig 10), streamed in tiles
//                  through the shared kernel of vf/core/predict.hpp.

#include <cstdint>
#include <memory>
#include <vector>

#include "vf/core/model.hpp"
#include "vf/core/options.hpp"
#include "vf/core/predict.hpp"
#include "vf/core/report.hpp"
#include "vf/nn/trainer.hpp"
#include "vf/sampling/samplers.hpp"

namespace vf::core {

struct FcnnConfig {
  /// Hidden layer widths; the paper's final architecture.
  std::vector<std::size_t> hidden = {512, 256, 128, 64, 16};
  double learning_rate = 1e-3;
  int epochs = 500;
  /// Minibatch size. The paper does not specify one; 256 balances GEMM
  /// efficiency against Adam step count on CPU.
  std::size_t batch_size = 256;
  /// Learning-rate schedule (Constant = the paper's fixed Adam rate;
  /// Cosine helps at tight epoch budgets).
  vf::nn::LrSchedule lr_schedule = vf::nn::LrSchedule::Constant;
  /// Predict gradients alongside the scalar (Fig 8 ablation toggles this).
  bool with_gradients = true;
  /// Relative MSE weight of each gradient output against the scalar output
  /// (1.0 = the paper's plain equal-weight MSE). Implemented by scaling the
  /// gradient columns' target normalisation, so lower values let the
  /// gradient heads act as a mild regulariser instead of competing with
  /// the scalar head for capacity — useful at reduced training budgets.
  double gradient_loss_weight = 1.0;
  /// Sampling fractions whose void sets are concatenated into the training
  /// set (paper: the "1%+5% model", Fig 7).
  std::vector<double> train_fractions = {0.01, 0.05};
  /// Random fraction of the assembled training rows to keep (Fig 14 /
  /// Table II study training-set subsampling).
  double train_subset = 1.0;
  /// Hard cap on training rows after subsetting; 0 = unlimited. Used by the
  /// reduced-scale bench defaults.
  std::size_t max_train_rows = 0;
  std::uint64_t seed = 42;
  /// Crash-safe training checkpoints (empty dir disables): forwarded to
  /// TrainOptions, see vf/nn/checkpoint.hpp for format/retention/resume.
  std::string checkpoint_dir;
  int checkpoint_every = 1;
  int checkpoint_keep = 3;
  bool resume = false;

  /// Full paper settings (500 epochs, uncapped rows).
  static FcnnConfig paper();
  /// Reduced settings for the scaled-down bench runs; honours VF_QUICK.
  static FcnnConfig bench();

  /// Hidden widths used for the Fig-6 depth sweep: a halving pyramid from
  /// 512 floored at 16, truncated/extended to `layers` entries.
  static std::vector<std::size_t> pyramid(int layers);
};

struct PretrainResult {
  FcnnModel model;
  vf::nn::TrainHistory history;
  /// Wall-clock seconds spent on sampling + feature extraction (reported
  /// separately from history.seconds, the pure training time).
  double data_seconds = 0.0;
  std::size_t train_rows = 0;
};

/// Train a model from scratch on one timestep of ground truth, using
/// `sampler` to generate the training samplings.
PretrainResult pretrain(const vf::field::ScalarField& truth,
                        const vf::sampling::Sampler& sampler,
                        const FcnnConfig& config);

enum class FineTuneMode {
  FullNetwork,    // Case 1: all layers trainable, ~10 epochs
  LastTwoLayers,  // Case 2: only the last two dense layers, ~300-500 epochs
};

/// Fine-tune `model` in place on a new timestep. `epochs` overrides
/// config.epochs (the paper uses ~10 for Case 1, 300-500 for Case 2).
/// Normalisation constants are kept from pretraining by default (the
/// paper's same-simulation workflow); set `refit_normalization` when
/// transferring across simulations whose value/coordinate ranges differ —
/// the stale z-score constants are otherwise the dominant failure mode.
vf::nn::TrainHistory fine_tune(FcnnModel& model,
                               const vf::field::ScalarField& truth,
                               const vf::sampling::Sampler& sampler,
                               const FcnnConfig& config, FineTuneMode mode,
                               int epochs, bool refit_normalization = false);

/// Reconstruct a full grid from a sample cloud with a trained model: the
/// one grid engine. Grid points stream through fixed-size tiles
/// (ReconstructOptions::tile_size), each tile one predict_points call on
/// one OpenMP thread's scratch, so peak scratch memory is O(tile) rather
/// than O(grid). When the cloud was sampled from the same grid, sampled
/// points keep their exact stored values and only void locations are
/// predicted; otherwise (e.g. upscaling onto a finer grid) every grid point
/// is predicted. Results do not depend on the tile size or thread count.
class FcnnReconstructor {
 public:
  /// Default tile: 2048 rows keeps the widest activation buffer
  /// (2048 x 512 doubles = 8 MB) within reach of the outer cache levels
  /// while still amortising per-tile setup; the BM_BatchReconstruct tile
  /// sweep in bench/micro_kernels picked it over 1024/4096/8192.
  static constexpr std::size_t kDefaultTile = 2048;
  static_assert(ReconstructOptions{}.tile_size == kDefaultTile,
                "ReconstructOptions::tile_size default must track "
                "FcnnReconstructor::kDefaultTile");

  /// Compiles `model` for opts.quant (throws std::invalid_argument when
  /// the model lacks normalisation constants).
  explicit FcnnReconstructor(FcnnModel model,
                             const ReconstructOptions& opts = {});
  /// Share an already compiled model (its quantization wins over
  /// opts.quant).
  explicit FcnnReconstructor(std::shared_ptr<const CompiledModel> model,
                             const ReconstructOptions& opts = {});

  [[nodiscard]] std::string name() const { return "fcnn"; }

  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid);

  /// Degradation-accounting overload. Unusable samples (non-finite values
  /// or coordinates, duplicated positions) are scrubbed on ingest, and any
  /// non-finite network output is replaced per point by a Shepard estimate
  /// from the scrubbed samples; `report` records every such decision. The
  /// cloud's binding is cached across calls (see BoundCloud::rebind).
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid, ReconstructReport& report);

  /// The engine proper, over a caller-held binding (shared by ensemble
  /// members, the facade, the resilient path). Throws
  /// std::invalid_argument when fewer than kNeighbors samples survived
  /// scrubbing.
  [[nodiscard]] vf::field::ScalarField reconstruct(
      const BoundCloud& cloud, const vf::field::UniformGrid3& grid,
      ReconstructReport& report);

  /// Scalar + predicted gradient components from the same tiles, every
  /// grid point predicted. Only valid for models trained with gradient
  /// outputs (throws otherwise). At sampled grid points the scalar is
  /// pinned to the stored value while gradients remain the network's
  /// prediction.
  struct FullReconstruction {
    vf::field::ScalarField scalar;
    vf::field::GradientField gradient;
  };
  [[nodiscard]] FullReconstruction reconstruct_with_gradients(
      const vf::sampling::SampleCloud& cloud,
      const vf::field::UniformGrid3& grid);

  [[nodiscard]] vf::nn::QuantPolicy quant_policy() const {
    return model_->quant();
  }

  /// Index builds performed for the cached binding so far; a second
  /// reconstruct of the same cloud must not increment this.
  [[nodiscard]] std::size_t tree_builds() const { return tree_builds_; }

  /// High-water mark of per-thread scratch (doubles) across all reconstruct
  /// calls so far. Exposed so tests can assert the O(tile) memory bound.
  [[nodiscard]] std::size_t peak_scratch_elements() const {
    return peak_scratch_elements_;
  }

 private:
  /// The cached binding of `cloud` for a sweep over `grid`.
  const BoundCloud& bind(const vf::sampling::SampleCloud& cloud,
                         const vf::field::UniformGrid3& grid);

  /// Predict `n` grid points (targets[i], or i itself when `targets` is
  /// null) tile by tile into `scalar`, and into `gradient` when given.
  /// Returns the number of repaired scalars.
  std::size_t sweep(const BoundCloud& cloud,
                    const vf::field::UniformGrid3& grid,
                    const std::int64_t* targets, std::int64_t n,
                    vf::field::ScalarField& scalar,
                    vf::field::GradientField* gradient);

  std::shared_ptr<const CompiledModel> model_;
  std::size_t tile_;
  vf::spatial::IndexKind index_opt_;
  std::shared_ptr<const BoundCloud> bound_;
  std::size_t tree_builds_ = 0;
  std::size_t peak_scratch_elements_ = 0;
};

/// Internal helper, exposed for tests and benches: assemble the (X, Y)
/// training matrices for one timestep under `config`.
struct TrainingSet {
  vf::nn::Matrix X;
  vf::nn::Matrix Y;
};
TrainingSet build_training_set(const vf::field::ScalarField& truth,
                               const vf::sampling::Sampler& sampler,
                               const FcnnConfig& config);

}  // namespace vf::core
