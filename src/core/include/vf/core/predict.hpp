#pragma once
// The one prediction path (paper §III, Fig 10): every front door —
// FcnnReconstructor's grid tiles, vf::api point mode, the vf::serve
// micro-batcher — answers through the three parts below.
//
//   BoundCloud     the scrubbed sample cloud plus its neighbour index,
//                  built once per cloud and shared read-only;
//   CompiledModel  the FcnnModel plus its QuantizedNetwork, built once
//                  per model;
//   predict_points the kernel: features -> normalise -> fp64 or quantized
//                  inference -> de-normalise -> per-point Shepard repair.
//
// A new reconstruction method plugs in at this seam instead of copying the
// scrub -> index -> quantize -> infer -> repair chain.

#include <cstddef>
#include <memory>
#include <vector>

#include "vf/core/features.hpp"
#include "vf/core/model.hpp"
#include "vf/nn/network.hpp"
#include "vf/nn/quant.hpp"
#include "vf/sampling/sample_cloud.hpp"
#include "vf/spatial/neighbor_index.hpp"

namespace vf::core {

/// An immutable binding of one sample cloud: the scrubbed copy (non-finite
/// and duplicated samples dropped), the scrub counts, and a neighbour index
/// over the survivors. Thread-safe to share; callers hold it through
/// shared_ptr<const BoundCloud> so one binding can serve many engines,
/// ensemble members, or serve shards.
class BoundCloud {
 public:
  /// Scrub `cloud` and index the survivors. IndexKind::Auto resolves
  /// against `expected_queries`, the caller's query count per lookup.
  BoundCloud(const vf::sampling::SampleCloud& cloud,
             vf::spatial::IndexKind kind, std::size_t expected_queries);

  /// `scrubbed`'s binding re-indexed as `kind` (resolved, not Auto).
  BoundCloud(const BoundCloud& scrubbed, vf::spatial::IndexKind kind);

  /// Index `scrubbed`, which the caller already scrubbed from `source`
  /// (dropping `nonfinite` + `duplicates` points): the scrub is not redone.
  BoundCloud(const vf::sampling::SampleCloud& source,
             vf::sampling::SampleCloud scrubbed, std::size_t nonfinite,
             std::size_t duplicates, vf::spatial::IndexKind kind,
             std::size_t expected_queries);

  /// `cached` when it was bound from `cloud` and `kind` still resolves to
  /// its index kind for `expected_queries`; otherwise a new binding (a
  /// kind flip on the same cloud re-indexes the cached scrub). Bindings
  /// are keyed on the cloud's points buffer, values buffer and size, so
  /// mutating a bound cloud in place is not detected.
  [[nodiscard]] static std::shared_ptr<const BoundCloud> rebind(
      std::shared_ptr<const BoundCloud> cached,
      const vf::sampling::SampleCloud& cloud, vf::spatial::IndexKind kind,
      std::size_t expected_queries);

  /// The scrubbed cloud (grid association and kept indices preserved).
  [[nodiscard]] const vf::sampling::SampleCloud& cloud() const {
    return cloud_;
  }
  [[nodiscard]] const std::vector<double>& values() const {
    return cloud_.values();
  }
  [[nodiscard]] const vf::spatial::NeighborIndex& index() const {
    return *index_;
  }
  [[nodiscard]] std::size_t size() const { return cloud_.size(); }
  /// Source cloud size before scrubbing.
  [[nodiscard]] std::size_t input_points() const { return input_points_; }
  [[nodiscard]] std::size_t scrubbed_nonfinite() const { return nonfinite_; }
  [[nodiscard]] std::size_t scrubbed_duplicates() const { return duplicates_; }

 private:
  [[nodiscard]] bool binds(const vf::sampling::SampleCloud& cloud) const;
  /// Build index_ over cloud_ as kind_.
  void build_index();

  // The scrub counts precede cloud_: its initializer writes them.
  std::size_t input_points_ = 0;
  std::size_t nonfinite_ = 0;
  std::size_t duplicates_ = 0;
  vf::sampling::SampleCloud cloud_;
  std::unique_ptr<vf::spatial::NeighborIndex> index_;
  vf::spatial::IndexKind kind_ = vf::spatial::IndexKind::KdTree;  // resolved
  const void* points_key_ = nullptr;
  const void* values_key_ = nullptr;
};

/// A model ready to predict: the FcnnModel plus, for a quantized policy,
/// its packed QuantizedNetwork. Immutable and thread-safe to share.
class CompiledModel {
 public:
  /// Throws std::invalid_argument when the model lacks normalisation
  /// constants (an untrained or incompatible model).
  explicit CompiledModel(FcnnModel model,
                         vf::nn::QuantPolicy quant = vf::nn::QuantPolicy::None);

  [[nodiscard]] const FcnnModel& model() const { return model_; }
  /// The packed network, or nullptr for QuantPolicy::None (fp64 path).
  [[nodiscard]] const vf::nn::QuantizedNetwork* quantized() const {
    return qnet_.empty() ? nullptr : &qnet_;
  }
  [[nodiscard]] vf::nn::QuantPolicy quant() const { return quant_; }
  /// Resident bytes: model weights plus packed panels.
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  FcnnModel model_;
  vf::nn::QuantPolicy quant_;
  vf::nn::QuantizedNetwork qnet_;
};

/// Reusable per-thread scratch for predict_points (feature matrix,
/// activation ping-pong, SoA neighbour staging, quantized staging).
struct PredictScratch {
  vf::nn::Matrix X;
  vf::nn::Matrix Y;
  vf::nn::InferScratch infer;
  FeatureScratch features;
  vf::nn::QuantScratch quant;

  /// Footprint in double-equivalents (peak-memory accounting).
  [[nodiscard]] std::size_t element_count() const {
    return X.size() + Y.size() + infer.element_count() +
           features.element_count() + quant.element_count();
  }
};

/// The prediction kernel: writes the de-normalised scalar prediction for
/// each of `count` positions to `out`, replacing a non-finite prediction
/// with the Shepard estimate of its kNeighbors nearest samples. `values`
/// parallel `index.points()`. Inference runs `qnet` when non-null, the fp64
/// Network path otherwise. Returns the number of repaired points and, when
/// `repaired_rows` is given, appends each repaired row to it. On return
/// `scratch.Y` holds every output column still normalised. Thread-safe for
/// concurrent calls with distinct scratch/out; respects the caller's
/// OpenMP context (nested calls from a parallel region run serially).
std::size_t predict_points(const FcnnModel& model,
                           const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const vf::field::Vec3* points, std::size_t count,
                           double* out, PredictScratch& scratch,
                           std::vector<std::size_t>* repaired_rows = nullptr,
                           const vf::nn::QuantizedNetwork* qnet = nullptr);

/// The kernel over the shared parts.
inline std::size_t predict_points(
    const CompiledModel& model, const BoundCloud& cloud,
    const vf::field::Vec3* points, std::size_t count, double* out,
    PredictScratch& scratch,
    std::vector<std::size_t>* repaired_rows = nullptr) {
  return predict_points(model.model(), cloud.index(), cloud.values(), points,
                        count, out, scratch, repaired_rows,
                        model.quantized());
}

}  // namespace vf::core
