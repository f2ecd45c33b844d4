// FcnnReconstructor's tiled sweep: a many-tile sweep must reproduce one
// tile spanning the whole grid, reuse its cached cloud binding across
// calls, and keep per-thread scratch bounded by the tile size rather than
// the grid size. Agreement with every other front door, at every tile
// size, is pinned by core_golden_test.

#include <gtest/gtest.h>

#include <cmath>

#include "vf/core/fcnn.hpp"
#include "vf/sampling/samplers.hpp"

namespace {

using namespace vf::core;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::sampling::ImportanceSampler;
using vf::sampling::SampleCloud;

ScalarField smooth_truth(vf::field::Dims dims = {18, 18, 8}) {
  ScalarField f(UniformGrid3(dims, {0, 0, 0}, {1, 1, 1}), "t");
  f.fill([](const Vec3& p) {
    return std::sin(0.35 * p.x) * std::cos(0.3 * p.y) + 0.1 * p.z;
  });
  return f;
}

FcnnModel tiny_model(const ScalarField& truth) {
  FcnnConfig cfg;
  cfg.hidden = {24, 12};
  cfg.epochs = 8;
  cfg.max_train_rows = 2500;
  cfg.train_fractions = {0.05};
  ImportanceSampler sampler;
  return pretrain(truth, sampler, cfg).model;
}

void expect_fields_equal(const ScalarField& got, const ScalarField& want,
                         double tol = 1e-10) {
  ASSERT_EQ(got.size(), want.size());
  for (std::int64_t i = 0; i < want.size(); ++i) {
    ASSERT_NEAR(got[i], want[i], tol) << "at linear index " << i;
  }
}

class BatchReconstruct : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    truth_ = new ScalarField(smooth_truth());
    model_ = new FcnnModel(tiny_model(*truth_));
  }
  static void TearDownTestSuite() {
    delete model_;
    model_ = nullptr;
    delete truth_;
    truth_ = nullptr;
  }

  static ScalarField* truth_;
  static FcnnModel* model_;
};

ScalarField* BatchReconstruct::truth_ = nullptr;
FcnnModel* BatchReconstruct::model_ = nullptr;

TEST_F(BatchReconstruct, MatchesWholeGridPathOnSameGrid) {
  ImportanceSampler sampler;
  SampleCloud cloud = sampler.sample(*truth_, 0.05, 7);

  const auto n = static_cast<std::size_t>(truth_->size());
  FcnnReconstructor whole(model_->clone(),
                          ReconstructOptions{.tile_size = n});
  ScalarField want = whole.reconstruct(cloud, truth_->grid());

  // A tile far smaller than the void count forces many tiles.
  FcnnReconstructor streaming(model_->clone(),
                              ReconstructOptions{.tile_size = 333});
  ScalarField got = streaming.reconstruct(cloud, truth_->grid());
  expect_fields_equal(got, want);

  // Sampled points are pinned to their stored values exactly.
  const auto& kept = cloud.kept_indices();
  const auto& vals = cloud.values();
  for (std::size_t i = 0; i < kept.size(); ++i) {
    EXPECT_EQ(got[kept[i]], vals[i]);
  }
}

TEST_F(BatchReconstruct, MatchesWholeGridPathOnForeignGrid) {
  ImportanceSampler sampler;
  SampleCloud cloud = sampler.sample(*truth_, 0.08, 9);
  // Upscaling target: every point predicted, no pinning.
  UniformGrid3 fine({24, 24, 10}, {0, 0, 0}, {0.75, 0.75, 0.78});

  FcnnReconstructor whole(
      model_->clone(),
      ReconstructOptions{.tile_size = static_cast<std::size_t>(24 * 24 * 10)});
  ScalarField want = whole.reconstruct(cloud, fine);

  FcnnReconstructor streaming(model_->clone(),
                              ReconstructOptions{.tile_size = 512});
  ScalarField got = streaming.reconstruct(cloud, fine);
  expect_fields_equal(got, want);
}

TEST_F(BatchReconstruct, TreeIsCachedAcrossCallsAndRebuiltOnNewCloud) {
  ImportanceSampler sampler;
  SampleCloud cloud = sampler.sample(*truth_, 0.05, 11);

  FcnnReconstructor streaming(model_->clone(),
                               ReconstructOptions{.tile_size = 512});
  EXPECT_EQ(streaming.tree_builds(), 0u);
  auto a = streaming.reconstruct(cloud, truth_->grid());
  EXPECT_EQ(streaming.tree_builds(), 1u);
  auto b = streaming.reconstruct(cloud, truth_->grid());
  EXPECT_EQ(streaming.tree_builds(), 1u);  // cache hit
  expect_fields_equal(b, a, 0.0);          // and deterministic

  SampleCloud other = sampler.sample(*truth_, 0.05, 12);
  (void)streaming.reconstruct(other, truth_->grid());
  EXPECT_EQ(streaming.tree_builds(), 2u);
}

TEST_F(BatchReconstruct, ScratchScalesWithTileNotGrid) {
  ImportanceSampler sampler;
  SampleCloud cloud = sampler.sample(*truth_, 0.05, 13);

  // Same tile, ~2.7x more grid points: scratch high-water mark must not
  // track the grid.
  const std::size_t tile = 256;
  FcnnReconstructor small_grid(model_->clone(),
                                ReconstructOptions{.tile_size = tile});
  (void)small_grid.reconstruct(cloud, truth_->grid());
  UniformGrid3 fine({24, 24, 12}, {0, 0, 0}, {0.75, 0.75, 0.64});
  FcnnReconstructor large_grid(model_->clone(),
                                ReconstructOptions{.tile_size = tile});
  (void)large_grid.reconstruct(cloud, fine);

  ASSERT_GT(small_grid.peak_scratch_elements(), 0u);
  EXPECT_LE(large_grid.peak_scratch_elements(),
            small_grid.peak_scratch_elements() +
                small_grid.peak_scratch_elements() / 4);

  // Quadrupling the tile grows scratch roughly proportionally (within 2x
  // of linear), far below any O(grid) footprint.
  FcnnReconstructor bigger_tile(model_->clone(),
                                 ReconstructOptions{.tile_size = 4 * tile});
  (void)bigger_tile.reconstruct(cloud, truth_->grid());
  EXPECT_GT(bigger_tile.peak_scratch_elements(),
            small_grid.peak_scratch_elements());
  EXPECT_LE(bigger_tile.peak_scratch_elements(),
            8 * small_grid.peak_scratch_elements());
}

TEST_F(BatchReconstruct, RejectsUndersizedCloudAndUnfittedModel) {
  FcnnReconstructor streaming(model_->clone(),
                               ReconstructOptions{.tile_size = 128});
  std::vector<Vec3> pts = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  SampleCloud tiny(pts, {1.0, 2.0, 3.0});
  EXPECT_THROW((void)streaming.reconstruct(tiny, truth_->grid()),
               std::invalid_argument);
  EXPECT_THROW(FcnnReconstructor(FcnnModel{}, ReconstructOptions{}),
               std::invalid_argument);
}

}  // namespace
