// Corruption fuzzing for the crash-safe binary formats.
//
// The v2 formats (VFNN networks, VFB fields, VFMD models) frame every
// variable-length payload with a size + CRC32, so the contract under test is
// absolute: a file truncated at ANY byte, carrying ANY single-bit flip, or
// followed by ANY trailing garbage must be rejected with std::runtime_error
// — never undefined behaviour, never a silently corrupt object. The sweeps
// below are exhaustive (every truncation length, every bit of every byte),
// which the suite can afford because the fixtures are tiny; the suite runs
// under ASan/UBSan via the `sanitize` label, so an out-of-bounds parse of a
// corrupt header would be caught even if it failed to throw.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "vf/core/model.hpp"
#include "vf/field/native_io.hpp"
#include "vf/nn/checkpoint.hpp"
#include "vf/nn/serialize.hpp"
#include "vf/util/atomic_io.hpp"

namespace {

namespace fs = std::filesystem;

class IoFuzzTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("vf_fuzz_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::string slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spew(const std::string& p, const std::string& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Assert that `load(path)` throws std::runtime_error for the truncation of
/// `blob` to every length, for every single-bit flip, and for appended
/// trailing garbage.
template <typename LoadFn>
void fuzz_blob(const std::string& blob, const std::string& p,
               const LoadFn& load) {
  // Sanity: the pristine bytes load.
  spew(p, blob);
  EXPECT_NO_THROW(load(p));

  for (std::size_t len = 0; len < blob.size(); ++len) {
    spew(p, blob.substr(0, len));
    EXPECT_THROW(load(p), std::runtime_error) << "truncated to " << len
                                              << " of " << blob.size();
  }

  for (std::size_t byte = 0; byte < blob.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string bad = blob;
      bad[byte] = static_cast<char>(bad[byte] ^ (1 << bit));
      spew(p, bad);
      EXPECT_THROW(load(p), std::runtime_error)
          << "flip at byte " << byte << " bit " << bit;
    }
  }

  spew(p, blob + '\0');
  EXPECT_THROW(load(p), std::runtime_error) << "one trailing byte";
  spew(p, blob + "trailing garbage");
  EXPECT_THROW(load(p), std::runtime_error) << "trailing garbage";

  // Leave the pristine file behind for any follow-up assertions.
  spew(p, blob);
}

vf::field::ScalarField small_field() {
  vf::field::UniformGrid3 grid({5, 4, 3}, {0, 0, 0}, {0.5, 0.5, 0.5});
  vf::field::ScalarField f(grid, "fuzz");
  for (std::int64_t i = 0; i < f.size(); ++i) {
    f[i] = 0.25 * static_cast<double>(i) - 7.0;
  }
  return f;
}

// ---- VFNN (network) -------------------------------------------------------

TEST_F(IoFuzzTest, NetworkFileRejectsAllCorruption) {
  const auto net = vf::nn::Network::mlp(4, {6, 5}, 2, /*seed=*/7);
  const auto p = path("net.vfnn");
  vf::nn::save_network(net, p);
  fuzz_blob(slurp(p), path("net_fuzz.vfnn"),
            [](const std::string& f) { (void)vf::nn::load_network(f); });
}

TEST_F(IoFuzzTest, DenseTailFileRejectsAllCorruption) {
  const auto net = vf::nn::Network::mlp(4, {6, 5}, 2, /*seed=*/7);
  const auto p = path("tail.vfnt");
  vf::nn::save_dense_tail(net, 2, p);
  auto target = vf::nn::Network::mlp(4, {6, 5}, 2, /*seed=*/8);
  fuzz_blob(slurp(p), path("tail_fuzz.vfnt"), [&](const std::string& f) {
    vf::nn::load_dense_tail(target, 2, f);
  });
}

TEST_F(IoFuzzTest, MissingNetworkFileThrows) {
  EXPECT_THROW((void)vf::nn::load_network(path("does_not_exist.vfnn")),
               std::runtime_error);
}

// ---- VFB (native field) ---------------------------------------------------

TEST_F(IoFuzzTest, NativeFieldRejectsAllCorruption) {
  const auto f = small_field();
  const auto p = path("field.vfb");
  vf::field::write_native(f, p);
  fuzz_blob(slurp(p), path("field_fuzz.vfb"),
            [](const std::string& q) { (void)vf::field::read_native(q); });

  // The pristine file round-trips bit-exactly.
  const auto back = vf::field::read_native(path("field_fuzz.vfb"));
  ASSERT_EQ(back.size(), f.size());
  for (std::int64_t i = 0; i < f.size(); ++i) EXPECT_EQ(back[i], f[i]);
}

TEST_F(IoFuzzTest, LegacyNativeHeaderIsBoundCheckedBeforeAllocation) {
  // Hand-craft a legacy VFB1 file whose header claims a petabyte-scale grid.
  // read_native must reject it against the actual file size instead of
  // attempting the allocation.
  vf::util::ByteWriter w;
  w.bytes("VFB1", 4);
  w.pod(std::int32_t{1000000});
  w.pod(std::int32_t{1000000});
  w.pod(std::int32_t{1000});
  for (int i = 0; i < 6; ++i) w.pod(0.0);  // origin + spacing
  w.str("huge");
  w.bytes("\0\0\0\0\0\0\0\0", 8);  // one lonely value
  const auto p = path("huge.vfb");
  spew(p, w.data());
  EXPECT_THROW((void)vf::field::read_native(p), std::runtime_error);
}

TEST_F(IoFuzzTest, LegacyNativeFileStillLoads) {
  // A well-formed legacy VFB1 file remains readable, and must be consumed
  // exactly: a trailing byte is rejected.
  const auto f = small_field();
  vf::util::ByteWriter w;
  w.bytes("VFB1", 4);
  w.pod(static_cast<std::int32_t>(f.grid().dims().nx));
  w.pod(static_cast<std::int32_t>(f.grid().dims().ny));
  w.pod(static_cast<std::int32_t>(f.grid().dims().nz));
  w.pod(f.grid().origin().x);
  w.pod(f.grid().origin().y);
  w.pod(f.grid().origin().z);
  w.pod(f.grid().spacing().x);
  w.pod(f.grid().spacing().y);
  w.pod(f.grid().spacing().z);
  w.str(f.name());
  w.bytes(f.values().data(),
          static_cast<std::size_t>(f.size()) * sizeof(double));

  const auto p = path("legacy.vfb");
  spew(p, w.data());
  const auto back = vf::field::read_native(p);
  ASSERT_EQ(back.size(), f.size());
  EXPECT_EQ(back.name(), f.name());
  for (std::int64_t i = 0; i < f.size(); ++i) EXPECT_EQ(back[i], f[i]);

  spew(p, w.data() + '\0');
  EXPECT_THROW((void)vf::field::read_native(p), std::runtime_error);
}

// ---- VFMD (full model) ----------------------------------------------------

TEST_F(IoFuzzTest, ModelFileRejectsEveryTruncationAndTrailingGarbage) {
  vf::core::FcnnModel model;
  model.net = vf::nn::Network::mlp(23, {8}, 4, /*seed=*/3);
  model.in_norm.mean.assign(23, 0.5);
  model.in_norm.stddev.assign(23, 2.0);
  model.out_norm.mean.assign(4, -1.0);
  model.out_norm.stddev.assign(4, 3.0);
  model.with_gradients = true;
  model.dataset = "fuzz";
  model.trained_timestep = 1.5;

  const auto p = path("model.vfmd");
  model.save(p);
  const std::string blob = slurp(p);
  const auto q = path("model_fuzz.vfmd");

  spew(q, blob);
  EXPECT_NO_THROW((void)vf::core::FcnnModel::load(q));

  for (std::size_t len = 0; len < blob.size(); ++len) {
    spew(q, blob.substr(0, len));
    EXPECT_THROW((void)vf::core::FcnnModel::load(q), std::runtime_error)
        << "truncated to " << len << " of " << blob.size();
  }

  spew(q, blob + "x");
  EXPECT_THROW((void)vf::core::FcnnModel::load(q), std::runtime_error);
}

// ---- on-disk compatibility --------------------------------------------

/// The textbook bit-at-a-time CRC-32 (reflected IEEE polynomial).
std::uint32_t crc32_bitwise(std::string_view bytes) {
  std::uint32_t c = 0xFFFFFFFFu;
  for (const char ch : bytes) {
    c ^= static_cast<unsigned char>(ch);
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1u) : c >> 1u;
    }
  }
  return c ^ 0xFFFFFFFFu;
}

/// Walk a v2 file (4-byte magic, u32 version, then `u64 size | payload |
/// u32 crc` sections to the end) and check every trailer against the
/// bitwise reference CRC of its payload. Returns the payloads.
std::vector<std::string> checked_sections(const std::string& blob,
                                          std::string_view magic) {
  EXPECT_EQ(std::string_view(blob).substr(0, 4), magic);
  std::vector<std::string> payloads;
  std::size_t at = 8;
  while (at < blob.size()) {
    std::uint64_t size = 0;
    std::uint32_t crc = 0;
    EXPECT_LE(at + sizeof size, blob.size());
    if (at + sizeof size > blob.size()) break;
    std::memcpy(&size, blob.data() + at, sizeof size);
    at += sizeof size;
    EXPECT_LE(at + size + sizeof crc, blob.size());
    if (at + size + sizeof crc > blob.size()) break;
    const std::string payload = blob.substr(at, size);
    at += size;
    std::memcpy(&crc, blob.data() + at, sizeof crc);
    at += sizeof crc;
    EXPECT_EQ(crc, crc32_bitwise(payload)) << "section " << payloads.size();
    payloads.push_back(payload);
  }
  EXPECT_EQ(at, blob.size());
  return payloads;
}

TEST_F(IoFuzzTest, SavedFilesCarryReferenceCrcsAndResaveByteIdentically) {
  vf::core::FcnnModel model;
  model.net = vf::nn::Network::mlp(23, {16, 8}, 4, /*seed=*/5);
  model.in_norm.mean.assign(23, 0.25);
  model.in_norm.stddev.assign(23, 1.5);
  model.out_norm.mean.assign(4, 2.0);
  model.out_norm.stddev.assign(4, 0.5);
  model.dataset = "compat";
  model.trained_timestep = 3.0;

  // VFMD: metadata + network sections, and the network section is itself
  // a VFNN blob whose per-layer trailers must match too.
  const auto m1 = path("a.vfmd");
  const auto m2 = path("b.vfmd");
  model.save(m1);
  const auto model_sections = checked_sections(slurp(m1), "VFMD");
  ASSERT_EQ(model_sections.size(), 2u);
  const auto layer_sections = checked_sections(model_sections[1], "VFNN");
  EXPECT_EQ(layer_sections.size(), 1 + model.net.layer_count());
  vf::core::FcnnModel::load(m1).save(m2);
  EXPECT_EQ(slurp(m1), slurp(m2));

  // VFNN.
  const auto n1 = path("a.net");
  const auto n2 = path("b.net");
  vf::nn::save_network(model.net, n1);
  EXPECT_EQ(checked_sections(slurp(n1), "VFNN").size(),
            1 + model.net.layer_count());
  vf::nn::save_network(vf::nn::load_network(n1), n2);
  EXPECT_EQ(slurp(n1), slurp(n2));

  // VFCK: trainer, network and Adam sections.
  vf::nn::TrainerState state;
  state.epoch = 2;
  state.best = 0.125;
  state.order = {3, 1, 2, 0};
  state.val_order = {4};
  state.train_loss = {1.0, 0.5};
  state.val_loss = {1.5, 0.75};
  state.adam.t = 7;
  vf::nn::Network shapes = model.net.clone();
  for (const auto& p : shapes.params()) {
    state.adam.m.emplace_back(p.value->rows(), p.value->cols(), 0.5);
    state.adam.v.emplace_back(p.value->rows(), p.value->cols(), 0.25);
  }
  const vf::nn::Checkpointer first({path("ck1")});
  first.write(model.net, state);
  const std::string c1 = path("ck1") + "/ckpt_000002.vfck";
  EXPECT_EQ(checked_sections(slurp(c1), "VFCK").size(), 3u);
  vf::nn::Network net;
  vf::nn::TrainerState restored;
  vf::nn::Checkpointer::load(c1, net, restored);
  const vf::nn::Checkpointer second({path("ck2")});
  second.write(net, restored);
  EXPECT_EQ(slurp(c1), slurp(path("ck2") + "/ckpt_000002.vfck"));
}

}  // namespace
