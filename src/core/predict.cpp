#include "vf/core/predict.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "vf/core/resilient.hpp"
#include "vf/obs/obs.hpp"

namespace vf::core {

using vf::field::Vec3;
using vf::sampling::SampleCloud;
using vf::spatial::IndexKind;

namespace {

IndexKind resolve_kind(IndexKind kind, std::size_t points,
                       std::size_t expected_queries) {
  return kind == IndexKind::Auto
             ? vf::spatial::select_index_kind(points, expected_queries)
             : kind;
}

}  // namespace

BoundCloud::BoundCloud(const SampleCloud& cloud, IndexKind kind,
                       std::size_t expected_queries)
    : input_points_(cloud.size()),
      cloud_(cloud.scrubbed(nonfinite_, duplicates_)),
      points_key_(cloud.points().data()),
      values_key_(cloud.values().data()) {
  kind_ = resolve_kind(kind, cloud_.size(), expected_queries);
  build_index();
}

BoundCloud::BoundCloud(const SampleCloud& source, SampleCloud scrubbed,
                       std::size_t nonfinite, std::size_t duplicates,
                       IndexKind kind, std::size_t expected_queries)
    : input_points_(source.size()),
      nonfinite_(nonfinite),
      duplicates_(duplicates),
      cloud_(std::move(scrubbed)),
      points_key_(source.points().data()),
      values_key_(source.values().data()) {
  kind_ = resolve_kind(kind, cloud_.size(), expected_queries);
  build_index();
}

BoundCloud::BoundCloud(const BoundCloud& scrubbed, IndexKind kind)
    : input_points_(scrubbed.input_points_),
      nonfinite_(scrubbed.nonfinite_),
      duplicates_(scrubbed.duplicates_),
      cloud_(scrubbed.cloud_),
      kind_(kind),
      points_key_(scrubbed.points_key_),
      values_key_(scrubbed.values_key_) {
  build_index();
}

void BoundCloud::build_index() {
  VF_OBS_SPAN("tree_build");
  VF_OBS_COUNT("core.bind.tree_builds", 1);
  index_ = vf::spatial::build_index(cloud_.points(), kind_);
}

bool BoundCloud::binds(const SampleCloud& cloud) const {
  return cloud.points().data() == points_key_ &&
         cloud.values().data() == values_key_ &&
         cloud.size() == input_points_;
}

std::shared_ptr<const BoundCloud> BoundCloud::rebind(
    std::shared_ptr<const BoundCloud> cached, const SampleCloud& cloud,
    IndexKind kind, std::size_t expected_queries) {
  if (!cached || !cached->binds(cloud)) {
    return std::make_shared<const BoundCloud>(cloud, kind, expected_queries);
  }
  const IndexKind want = resolve_kind(kind, cached->size(), expected_queries);
  if (want == cached->kind_) return cached;
  return std::make_shared<const BoundCloud>(*cached, want);
}

CompiledModel::CompiledModel(FcnnModel model, vf::nn::QuantPolicy quant)
    : model_(std::move(model)), quant_(quant) {
  if (model_.in_norm.mean.empty() || model_.out_norm.mean.empty()) {
    throw std::invalid_argument(
        "CompiledModel: model is missing normalisation constants");
  }
  if (quant_ != vf::nn::QuantPolicy::None) {
    qnet_ = vf::nn::QuantizedNetwork(model_.net, quant_);
  }
}

std::size_t CompiledModel::memory_bytes() const {
  return model_.memory_bytes() + (qnet_.empty() ? 0 : qnet_.memory_bytes());
}

std::size_t predict_points(const FcnnModel& model,
                           const vf::spatial::NeighborIndex& index,
                           const std::vector<double>& values,
                           const Vec3* points, std::size_t count, double* out,
                           PredictScratch& scratch,
                           std::vector<std::size_t>* repaired_rows,
                           const vf::nn::QuantizedNetwork* qnet) {
  if (count == 0) return 0;
  {
    VF_OBS_SPAN("extract_features");
    extract_features_into(index, values, points, count, scratch.X,
                          scratch.features);
  }
  {
    VF_OBS_SPAN("inference");
    model.in_norm.apply(scratch.X);
    if (qnet != nullptr && !qnet->empty()) {
      qnet->infer(scratch.X, scratch.Y, scratch.quant);
    } else {
      model.net.infer(scratch.X, scratch.Y, scratch.infer);
    }
  }
  const double scale = model.out_norm.stddev[0];
  const double shift = model.out_norm.mean[0];
  std::size_t repaired = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const double y = scratch.Y(i, 0) * scale + shift;
    if (std::isfinite(y)) {
      out[i] = y;
    } else {
      out[i] = shepard_estimate(index, values, points[i], kNeighbors);
      ++repaired;
      if (repaired_rows != nullptr) repaired_rows->push_back(i);
    }
  }
  return repaired;
}

}  // namespace vf::core
