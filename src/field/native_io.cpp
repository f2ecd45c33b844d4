#include "vf/field/native_io.hpp"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <vector>

#include "vf/util/atomic_io.hpp"

namespace vf::field {

namespace {
// Version 1 ("VFB1"): unchecksummed header + raw values, kept readable.
// Version 2 ("VFB2"): atomic write, CRC-framed header and data sections,
// exact-size files — a torn write or bit flip throws at load.
constexpr std::string_view kMagicV1 = "VFB1";
constexpr std::string_view kMagicV2 = "VFB2";
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kMaxNameLen = 4096;

/// Validate header dims before any allocation: positive, non-overflowing,
/// and small enough that the value payload fits in the bytes actually left
/// in the file. A corrupt header must never drive a multi-GB resize.
std::int64_t checked_point_count(std::int32_t nx, std::int32_t ny,
                                 std::int32_t nz, std::uint64_t bytes_left,
                                 const std::string& path) {
  if (nx <= 0 || ny <= 0 || nz <= 0) {
    throw std::runtime_error("read_native: non-positive dims in " + path);
  }
  const std::int64_t count =
      static_cast<std::int64_t>(nx) * ny * nz;  // nx,ny,nz <= 2^31: no overflow in i64
  if (static_cast<std::uint64_t>(count) > bytes_left / sizeof(double)) {
    throw std::runtime_error(
        "read_native: header dims exceed file size (torn or corrupt) in " +
        path);
  }
  return count;
}

/// Grid geometry and name, laid out identically in the VFB1 header and
/// the VFB2 header section.
struct Header {
  std::int32_t nx = 0, ny = 0, nz = 0;
  Vec3 origin, spacing;
  std::string name;
};

Header read_header(vf::util::ByteReader& in) {
  Header h;
  h.nx = in.pod<std::int32_t>();
  h.ny = in.pod<std::int32_t>();
  h.nz = in.pod<std::int32_t>();
  h.origin.x = in.pod<double>();
  h.origin.y = in.pod<double>();
  h.origin.z = in.pod<double>();
  h.spacing.x = in.pod<double>();
  h.spacing.y = in.pod<double>();
  h.spacing.z = in.pod<double>();
  h.name = in.str(kMaxNameLen);
  return h;
}

}  // namespace

void write_native(const ScalarField& field, const std::string& path) {
  const auto& g = field.grid();
  vf::util::ByteWriter header;
  header.pod(static_cast<std::int32_t>(g.dims().nx));
  header.pod(static_cast<std::int32_t>(g.dims().ny));
  header.pod(static_cast<std::int32_t>(g.dims().nz));
  header.pod(g.origin().x);
  header.pod(g.origin().y);
  header.pod(g.origin().z);
  header.pod(g.spacing().x);
  header.pod(g.spacing().y);
  header.pod(g.spacing().z);
  header.str(field.name());

  vf::util::atomic_write_file(path, [&](std::ostream& out) {
    out.write(kMagicV2.data(), 4);
    const std::uint32_t version = kVersion;
    out.write(reinterpret_cast<const char*>(&version), sizeof version);
    vf::util::write_crc_section(out, header.data());
    // The value payload streams directly from the field's buffer — no
    // staging copy of the (possibly multi-hundred-MB) data section.
    vf::util::write_crc_section(out, field.values().data(),
                                static_cast<std::size_t>(field.size()) *
                                    sizeof(double));
  });
}

ScalarField read_native(const std::string& path) {
  // The whole file lands in one double buffer. Once every check has passed
  // the value payload is moved down to the front of that buffer, which
  // becomes the field's storage: a large field is never held twice.
  std::vector<double> buf;
  const std::size_t size = vf::util::read_file(
      path, "read_native", "native_read", [&](std::size_t n) {
        buf.resize((n + sizeof(double) - 1) / sizeof(double));
        return reinterpret_cast<char*>(buf.data());
      });
  vf::util::ByteReader in(
      std::string_view(reinterpret_cast<const char*>(buf.data()), size),
      "read_native");
  Header h;
  std::string_view values;
  if (in.consume(kMagicV1)) {
    h = read_header(in);
    const std::int64_t count =
        checked_point_count(h.nx, h.ny, h.nz, in.remaining(), path);
    values = in.view(static_cast<std::size_t>(count) * sizeof(double));
  } else if (in.consume(kMagicV2)) {
    if (in.remaining() < sizeof(std::uint32_t) ||
        in.pod<std::uint32_t>() != kVersion) {
      throw std::runtime_error("read_native: unsupported version in " + path);
    }
    vf::util::ByteReader hdr(in.section(), "read_native");
    h = read_header(hdr);
    hdr.expect_end();
    const std::int64_t count =
        checked_point_count(h.nx, h.ny, h.nz, in.remaining(), path);
    values = in.section();
    if (values.size() != static_cast<std::size_t>(count) * sizeof(double)) {
      throw std::runtime_error(
          "read_native: section size mismatch (torn or tampered file)");
    }
  } else {
    throw std::runtime_error("read_native: bad magic in " + path);
  }
  in.expect_end();
  UniformGrid3 grid({h.nx, h.ny, h.nz}, h.origin, h.spacing);
  std::memmove(buf.data(), values.data(), values.size());
  buf.resize(values.size() / sizeof(double));
  return ScalarField(grid, std::move(buf), h.name);
}

}  // namespace vf::field
