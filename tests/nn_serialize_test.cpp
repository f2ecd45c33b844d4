// Tests for network persistence (full model + Case-2 dense-tail deltas).

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <unistd.h>

#include "vf/nn/serialize.hpp"
#include "vf/nn/trainer.hpp"
#include "vf/util/rng.hpp"

namespace {

using namespace vf::nn;

class SerializeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("vf_nn_ser_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }
  std::string path(const std::string& n) { return (dir_ / n).string(); }

  static Matrix random_matrix(std::size_t r, std::size_t c,
                              std::uint64_t seed) {
    Matrix m(r, c);
    vf::util::Rng rng(seed);
    for (auto& v : m.data()) v = rng.uniform(-1, 1);
    return m;
  }

  std::filesystem::path dir_;
};

TEST_F(SerializeTest, RoundTripPredictionsIdentical) {
  Network net = Network::mlp(23, {32, 16}, 4, 5);
  save_network(net, path("m.vfnn"));
  Network back = load_network(path("m.vfnn"));

  EXPECT_EQ(back.layer_count(), net.layer_count());
  auto X = random_matrix(7, 23, 9);
  Matrix y1, y2;
  net.forward(X, y1);
  back.forward(X, y2);
  for (std::size_t i = 0; i < y1.size(); ++i) {
    ASSERT_EQ(y1.data()[i], y2.data()[i]);  // bit-exact
  }
}

TEST_F(SerializeTest, RoundTripWeightsBitExact) {
  Network net = Network::mlp(11, {9, 7}, 2, 42);
  save_network(net, path("w.vfnn"));
  Network back = load_network(path("w.vfnn"));
  ASSERT_EQ(back.layer_count(), net.layer_count());
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).kind() != "dense") continue;
    const auto& a = static_cast<const DenseLayer&>(net.layer(i));
    const auto& b = static_cast<const DenseLayer&>(back.layer(i));
    ASSERT_EQ(a.weights().rows(), b.weights().rows());
    ASSERT_EQ(a.weights().cols(), b.weights().cols());
    ASSERT_EQ(0, std::memcmp(a.weights().data().data(),
                             b.weights().data().data(),
                             a.weights().size() * sizeof(double)));
    ASSERT_EQ(0, std::memcmp(a.bias().data().data(), b.bias().data().data(),
                             a.bias().size() * sizeof(double)));
  }
}

TEST_F(SerializeTest, SaveLoadSaveIsByteStable) {
  // A model that survives one round-trip must serialize to identical bytes
  // the second time — guards against uninitialised padding or field-order
  // drift in the writer.
  Network net = Network::mlp(6, {5}, 3, 17);
  save_network(net, path("a.vfnn"));
  Network back = load_network(path("a.vfnn"));
  save_network(back, path("b.vfnn"));

  auto slurp = [](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string a = slurp(path("a.vfnn"));
  const std::string b = slurp(path("b.vfnn"));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST_F(SerializeTest, LoadedNetworkHoldsNoGradientBuffersUntilTraining) {
  // A loaded model that only infers must hold just its weights: the
  // gradient accumulators appear when the trainer attaches to params().
  save_network(Network::mlp(3, {8, 4}, 2, 11), path("g.vfnn"));
  Network net = load_network(path("g.vfnn"));
  const std::size_t params = net.parameter_count();
  EXPECT_EQ(params, 3u * 8 + 8 + 8 * 4 + 4 + 4 * 2 + 2);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).kind() != "dense") continue;
    const auto& d = static_cast<const DenseLayer&>(net.layer(i));
    EXPECT_EQ(d.weight_grad().size(), 0u) << "layer " << i;
    EXPECT_EQ(d.bias_grad().size(), 0u) << "layer " << i;
  }
  // parameter_count() is a pure read: it sizes nothing.
  EXPECT_EQ(static_cast<const DenseLayer&>(net.layer(0)).weight_grad().size(),
            0u);

  Matrix X(16, 3), Y(16, 2);
  vf::util::Rng rng(4);
  for (auto& v : X.data()) v = rng.uniform(-1, 1);
  for (auto& v : Y.data()) v = rng.uniform(-1, 1);
  TrainOptions opt;
  opt.epochs = 1;
  opt.batch_size = 8;
  Trainer(opt).fit(net, X, Y);
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    if (net.layer(i).kind() != "dense") continue;
    const auto& d = static_cast<const DenseLayer&>(net.layer(i));
    EXPECT_EQ(d.weight_grad().size(), d.weights().size()) << "layer " << i;
    EXPECT_EQ(d.bias_grad().size(), d.bias().size()) << "layer " << i;
  }
  EXPECT_EQ(net.parameter_count(), params);
}

TEST_F(SerializeTest, PreservesTrainabilityFlags) {
  Network net = Network::mlp(4, {8, 8}, 1, 3);
  net.set_trainable_last_dense(1);
  save_network(net, path("t.vfnn"));
  Network back = load_network(path("t.vfnn"));
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    ASSERT_EQ(back.layer(i).trainable(), net.layer(i).trainable()) << i;
    ASSERT_EQ(back.layer(i).kind(), net.layer(i).kind()) << i;
  }
}

TEST_F(SerializeTest, PreservesAllLayerKinds) {
  Network net;
  net.add(std::make_unique<DenseLayer>(3, 5, 1));
  net.add(std::make_unique<TanhLayer>());
  net.add(std::make_unique<DenseLayer>(5, 5, 2));
  net.add(std::make_unique<LeakyReluLayer>(0.07));
  net.add(std::make_unique<DenseLayer>(5, 2, 3));
  net.add(std::make_unique<ReluLayer>());
  save_network(net, path("k.vfnn"));
  Network back = load_network(path("k.vfnn"));
  ASSERT_EQ(back.layer_count(), 6u);
  EXPECT_EQ(back.layer(1).kind(), "tanh");
  EXPECT_EQ(back.layer(3).kind(), "leaky_relu");
  EXPECT_DOUBLE_EQ(
      dynamic_cast<const LeakyReluLayer&>(back.layer(3)).slope(), 0.07);
}

TEST_F(SerializeTest, MissingFileThrows) {
  EXPECT_THROW(load_network(path("missing.vfnn")), std::runtime_error);
}

TEST_F(SerializeTest, BadMagicThrows) {
  std::ofstream out(path("bad.vfnn"), std::ios::binary);
  out << "NOPE not a model";
  out.close();
  EXPECT_THROW(load_network(path("bad.vfnn")), std::runtime_error);
}

TEST_F(SerializeTest, TruncatedFileThrows) {
  Network net = Network::mlp(8, {16}, 2, 4);
  save_network(net, path("tr.vfnn"));
  auto size = std::filesystem::file_size(path("tr.vfnn"));
  std::filesystem::resize_file(path("tr.vfnn"), size / 2);
  EXPECT_THROW(load_network(path("tr.vfnn")), std::runtime_error);
}

TEST_F(SerializeTest, DenseTailRoundTrip) {
  // Case-2 storage: persist the last two dense layers of A, load into B
  // (same architecture, different weights); B's tail becomes A's, B's head
  // stays its own.
  Network a = Network::mlp(6, {8, 8, 8}, 2, 10);
  Network b = Network::mlp(6, {8, 8, 8}, 2, 20);
  auto b_head_before = dynamic_cast<DenseLayer&>(b.layer(0)).weights();

  save_dense_tail(a, 2, path("tail.vfnt"));
  load_dense_tail(b, 2, path("tail.vfnt"));

  // Head unchanged.
  auto& b_head_after = dynamic_cast<DenseLayer&>(b.layer(0)).weights();
  for (std::size_t i = 0; i < b_head_before.size(); ++i) {
    ASSERT_EQ(b_head_after.data()[i], b_head_before.data()[i]);
  }
  // Tail matches a's: compare the final dense layer weights.
  auto dense_at = [](Network& n, int which) -> DenseLayer& {
    int seen = 0;
    for (std::size_t i = 0; i < n.layer_count(); ++i) {
      if (n.layer(i).kind() == "dense" && ++seen == which) {
        return dynamic_cast<DenseLayer&>(n.layer(i));
      }
    }
    throw std::logic_error("no such dense layer");
  };
  // 4 dense layers total; tail = layers 3 and 4.
  for (int which : {3, 4}) {
    auto& wa = dense_at(a, which).weights();
    auto& wb = dense_at(b, which).weights();
    for (std::size_t i = 0; i < wa.size(); ++i) {
      ASSERT_EQ(wb.data()[i], wa.data()[i]);
    }
  }
}

TEST_F(SerializeTest, DenseTailShapeMismatchThrows) {
  Network a = Network::mlp(6, {8, 8}, 2, 1);
  Network b = Network::mlp(6, {4, 4}, 2, 2);  // different widths
  save_dense_tail(a, 2, path("tail2.vfnt"));
  EXPECT_THROW(load_dense_tail(b, 2, path("tail2.vfnt")), std::runtime_error);
}

TEST_F(SerializeTest, DenseTailCountMismatchThrows) {
  Network a = Network::mlp(6, {8, 8}, 2, 1);
  save_dense_tail(a, 2, path("tail3.vfnt"));
  Network b = Network::mlp(6, {8, 8}, 2, 2);
  EXPECT_THROW(load_dense_tail(b, 1, path("tail3.vfnt")), std::runtime_error);
}

TEST_F(SerializeTest, TailIsSmallerThanFullModel) {
  // The whole point of Case 2: per-timestep storage shrinks.
  Network net = Network::mlp(23, {512, 256, 128, 64, 16}, 4, 7);
  save_network(net, path("full.vfnn"));
  save_dense_tail(net, 2, path("tail.vfnt"));
  auto full = std::filesystem::file_size(path("full.vfnn"));
  auto tail = std::filesystem::file_size(path("tail.vfnt"));
  EXPECT_LT(tail * 50, full);  // 64*16+16*4 params vs ~190k params
}

}  // namespace
