// Golden differential suite: every front door answers through the one
// prediction kernel, so for one cloud and one paper-architecture model
// they must agree byte for byte — no tolerance — at every QuantPolicy:
//
//   FcnnReconstructor   same grid and foreign grid, tile 333 and default
//   vf::api grid mode   Fcnn, FcnnStream, Auto, resilient
//   vf::api point mode  batched and one point at a time
//   vf::serve           Service (coalesced 4-point requests) and a 2-shard
//                       ShardRouter
//
// The reference is FcnnReconstructor on the sampled grid at the default
// tile; the foreign-grid doors compare against its foreign-grid sweep.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <future>
#include <string>
#include <vector>

#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/core/resilient.hpp"
#include "vf/data/registry.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/serve/router.hpp"
#include "vf/serve/service.hpp"

namespace {

using vf::core::FcnnModel;
using vf::core::FcnnReconstructor;
using vf::core::ReconstructOptions;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::nn::QuantPolicy;
using vf::sampling::SampleCloud;

/// Byte-compare `n` doubles; reports the first differing index.
void expect_same_bytes(const double* got, const double* want, std::size_t n,
                       const std::string& door) {
  if (std::memcmp(got, want, n * sizeof(double)) == 0) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (std::memcmp(got + i, want + i, sizeof(double)) != 0) {
      ADD_FAILURE() << door << ": first difference at " << i << ": "
                    << got[i] << " vs " << want[i];
      return;
    }
  }
}

void expect_same_field(const ScalarField& got, const ScalarField& want,
                       const std::string& door) {
  ASSERT_EQ(got.size(), want.size()) << door;
  expect_same_bytes(got.values().data(), want.values().data(),
                    static_cast<std::size_t>(want.size()), door);
}

class GoldenDoors : public ::testing::TestWithParam<QuantPolicy> {
 protected:
  static void SetUpTestSuite() {
    const auto ds = vf::data::make_dataset("hurricane");
    truth_ = new ScalarField(ds->generate({16, 16, 6}, 24.0));
    const vf::sampling::ImportanceSampler sampler;
    cloud_ = new SampleCloud(sampler.sample(*truth_, 0.03, 5));
    // The paper's 23-512-256-128-64-16-4 network, briefly trained.
    vf::core::FcnnConfig cfg;
    cfg.epochs = 1;
    cfg.max_train_rows = 800;
    cfg.train_fractions = {0.03};
    model_ = new FcnnModel(vf::core::pretrain(*truth_, sampler, cfg).model);
    std::string name = "vf_golden_";
    name.append(std::to_string(::getpid()));
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() / name);
    std::filesystem::create_directories(*dir_);
    model_path_ = new std::string((*dir_ / "model.vfmd").string());
    model_->save(*model_path_);
  }
  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(*dir_, ec);
    delete model_path_;
    delete dir_;
    delete model_;
    delete cloud_;
    delete truth_;
  }

  static const UniformGrid3& grid() { return truth_->grid(); }
  /// An upscaling target over the same extent: no grid point is pinned.
  static UniformGrid3 foreign() {
    return UniformGrid3({21, 21, 8}, grid().origin(),
                        {grid().spacing().x * 15.0 / 20.0,
                         grid().spacing().y * 15.0 / 20.0,
                         grid().spacing().z * 5.0 / 7.0});
  }

  [[nodiscard]] ReconstructOptions engine(std::size_t tile = 0) const {
    ReconstructOptions o;
    o.quant = GetParam();
    if (tile != 0) o.tile_size = tile;
    return o;
  }
  [[nodiscard]] ScalarField reference(const UniformGrid3& g) const {
    FcnnReconstructor rec(model_->clone(), engine());
    return rec.reconstruct(*cloud_, g);
  }
  /// Positions of the sampled grid's voids, and the reference there.
  [[nodiscard]] std::vector<Vec3> void_points() const {
    std::vector<Vec3> pts;
    for (const auto idx : cloud_->void_indices()) {
      pts.push_back(grid().position(idx));
    }
    return pts;
  }
  [[nodiscard]] std::vector<double> at_voids(const ScalarField& f) const {
    std::vector<double> out;
    for (const auto idx : cloud_->void_indices()) out.push_back(f[idx]);
    return out;
  }
  /// Submit the voids as 4-point requests all at once (so workers coalesce
  /// them into arbitrary batches) and gather the answers in order.
  template <typename Door>
  [[nodiscard]] std::vector<double> serve_voids(Door& door,
                                                const std::string& key) const {
    const auto pts = void_points();
    std::vector<std::future<vf::serve::PointResponse>> futures;
    for (std::size_t b = 0; b < pts.size(); b += 4) {
      std::vector<Vec3> req(pts.begin() + static_cast<std::ptrdiff_t>(b),
                            pts.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(pts.size(), b + 4)));
      auto fut = door.submit(key, std::move(req));
      EXPECT_TRUE(fut.has_value()) << "request shed";
      if (fut.has_value()) futures.push_back(std::move(*fut));
    }
    std::vector<double> out;
    for (auto& fut : futures) {
      const auto resp = fut.get();
      EXPECT_EQ(resp.status, vf::serve::Status::Ok);
      EXPECT_TRUE(resp.fallback.empty()) << "served classically";
      out.insert(out.end(), resp.values.begin(), resp.values.end());
    }
    return out;
  }
  [[nodiscard]] vf::serve::ServiceOptions service_options() const {
    vf::serve::ServiceOptions o;
    o.quant = GetParam();
    o.queue_max = 4096;
    return o;
  }

  static ScalarField* truth_;
  static SampleCloud* cloud_;
  static FcnnModel* model_;
  static std::filesystem::path* dir_;
  static std::string* model_path_;
};

ScalarField* GoldenDoors::truth_ = nullptr;
SampleCloud* GoldenDoors::cloud_ = nullptr;
FcnnModel* GoldenDoors::model_ = nullptr;
std::filesystem::path* GoldenDoors::dir_ = nullptr;
std::string* GoldenDoors::model_path_ = nullptr;

TEST_P(GoldenDoors, GridEngineIsTileInvariant) {
  for (const UniformGrid3& g : {grid(), foreign()}) {
    const ScalarField want = reference(g);
    FcnnReconstructor small(model_->clone(), engine(333));
    expect_same_field(small.reconstruct(*cloud_, g), want, "tile 333");
  }
}

TEST_P(GoldenDoors, FacadeGridModesMatchTheEngine) {
  for (const UniformGrid3& g : {grid(), foreign()}) {
    const ScalarField want = reference(g);
    for (const auto method : {vf::api::Method::Fcnn,
                              vf::api::Method::FcnnStream,
                              vf::api::Method::Auto}) {
      vf::api::ReconstructOptions o;
      o.method = method;
      o.model = model_;
      o.engine = engine();
      vf::api::Reconstructor rec(o);
      expect_same_field(rec.reconstruct(*cloud_, g).field, want,
                        vf::api::to_string(method));
    }
  }
}

TEST_P(GoldenDoors, ResilientMatchesTheEngine) {
  vf::core::ReconstructReport report;
  const ScalarField got = vf::core::reconstruct_resilient(
      *model_path_, *cloud_, grid(), report,
      vf::core::FallbackMethod::Shepard, engine(333));
  EXPECT_EQ(report.fallback, vf::core::FallbackReason::None);
  expect_same_field(got, reference(grid()), "resilient");
}

TEST_P(GoldenDoors, PointModeMatchesTheEngine) {
  const auto want = at_voids(reference(grid()));
  const auto pts = void_points();
  vf::api::ReconstructOptions o;
  o.method = vf::api::Method::Fcnn;
  o.model_path = *model_path_;
  o.engine = engine();
  vf::api::Reconstructor rec(o);
  const auto batched = rec.reconstruct_points(*cloud_, pts);
  ASSERT_EQ(batched.values.size(), want.size());
  expect_same_bytes(batched.values.data(), want.data(), want.size(),
                    "point mode");
  // One point per call resolves Auto to the k-d tree instead of the grid
  // hash: the answers must not move.
  for (std::size_t i = 0; i < pts.size(); i += 17) {
    const auto one = rec.reconstruct_points(*cloud_, {pts[i]});
    expect_same_bytes(one.values.data(), &want[i], 1,
                      "single point " + std::to_string(i));
  }
}

TEST_P(GoldenDoors, ServiceMatchesTheEngine) {
  const auto want = at_voids(reference(grid()));
  vf::serve::Service service(service_options());
  service.add_session("golden", *cloud_, *model_path_);
  const auto got = serve_voids(service, "golden");
  ASSERT_EQ(got.size(), want.size());
  expect_same_bytes(got.data(), want.data(), want.size(), "service");
}

TEST_P(GoldenDoors, ShardRouterMatchesTheEngine) {
  const auto want = at_voids(reference(grid()));
  vf::serve::RouterOptions ro;
  ro.shards = 2;
  ro.shard = service_options();
  vf::serve::ShardRouter router(ro);
  // One session homed on each shard.
  std::vector<std::string> keys;
  for (int i = 0; keys.size() < 2 && i < 64; ++i) {
    const std::string key = "golden" + std::to_string(i);
    if (keys.empty() || router.shard_for(key) != router.shard_for(keys[0])) {
      keys.push_back(key);
    }
  }
  ASSERT_EQ(keys.size(), 2u);
  for (const auto& key : keys) {
    router.add_session(key, *cloud_, *model_path_);
    const auto got = serve_voids(router, key);
    ASSERT_EQ(got.size(), want.size());
    expect_same_bytes(got.data(), want.data(), want.size(),
                      "shard " + std::to_string(router.shard_for(key)));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, GoldenDoors,
    ::testing::Values(QuantPolicy::None, QuantPolicy::Fp32, QuantPolicy::Fp16,
                      QuantPolicy::Int8),
    [](const ::testing::TestParamInfo<QuantPolicy>& policy) {
      return std::string(vf::nn::to_string(policy.param));
    });

}  // namespace
