#include "vf/util/atomic_io.hpp"

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include "vf/util/fault.hpp"

namespace vf::util {

namespace {

/// Slicing-by-16 tables for the reflected IEEE polynomial: row 0 is the
/// classic byte-at-a-time table, and row k advances a byte's contribution
/// through k further zero bytes, so one lookup per input byte folds 16
/// bytes into the running CRC at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 16>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1u) : c >> 1u;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::size_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8u) ^ t[0][prev & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

/// fsync the file at `path` via a short-lived descriptor (ofstream cannot
/// fsync). Returns false on open/fsync failure.
bool fsync_path(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg,hicpp-vararg)
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Best-effort fsync of the directory containing `path`, so the rename
/// itself is durable. Failure is ignored: the data file is already synced
/// and some filesystems reject directory fsync.
void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg,hicpp-vararg)
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const CrcTables& t = crc_tables();
  // Bytes are combined one by one (no word loads), so the result does not
  // depend on the host's byte order or on the buffer's alignment.
  for (; len >= 16; len -= 16, p += 16) {
    c = t[15][(c ^ p[0]) & 0xFFu] ^ t[14][((c >> 8u) ^ p[1]) & 0xFFu] ^
        t[13][((c >> 16u) ^ p[2]) & 0xFFu] ^ t[12][(c >> 24u) ^ p[3]] ^
        t[11][p[4]] ^ t[10][p[5]] ^ t[9][p[6]] ^ t[8][p[7]] ^
        t[7][p[8]] ^ t[6][p[9]] ^ t[5][p[10]] ^ t[4][p[11]] ^
        t[3][p[12]] ^ t[2][p[13]] ^ t[1][p[14]] ^ t[0][p[15]];
  }
  for (; len > 0; --len, ++p) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8u);
  return c ^ 0xFFFFFFFFu;
}

void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer) {
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  // Remove the temp on every exit path; harmless when the rename won.
  struct TmpGuard {
    const std::string& tmp;
    ~TmpGuard() {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
    }
  } guard{tmp};

  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);  // vf-lint: allow(raw-ofstream) the atomic-write implementation itself
    if (!out || fault::should_fail("atomic_open")) {
      throw std::runtime_error("atomic_write_file: cannot open temp for " +
                               path);
    }
    writer(out);
    out.flush();
    if (!out) {
      throw std::runtime_error("atomic_write_file: write failed for " + path);
    }
    if (fault::fire("atomic_write") == fault::Mode::ShortWrite) {
      // Injected torn write: truncate the temp to half and fail as a crash
      // mid-write would. The destination must remain untouched.
      out.close();
      std::error_code ec;
      const auto size = std::filesystem::file_size(tmp, ec);
      if (!ec) std::filesystem::resize_file(tmp, size / 2, ec);
      throw std::runtime_error("atomic_write_file: short write for " + path);
    }
  }
  if (!fsync_path(tmp) || fault::should_fail("atomic_fsync")) {
    throw std::runtime_error("atomic_write_file: fsync failed for " + path);
  }
  if (fault::should_fail("atomic_rename") ||
      std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("atomic_write_file: rename failed for " + path +
                             ": " + std::strerror(errno));
  }
  fsync_parent_dir(path);
}

void write_crc_section(std::ostream& out, const std::string& payload) {
  const auto size = static_cast<std::uint64_t>(payload.size());
  out.write(reinterpret_cast<const char*>(&size), sizeof size);
  out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
}

void write_crc_section(std::ostream& out, const void* data, std::size_t len) {
  const auto size = static_cast<std::uint64_t>(len);
  out.write(reinterpret_cast<const char*>(&size), sizeof size);
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(len));
  const std::uint32_t crc = crc32(data, len);
  out.write(reinterpret_cast<const char*>(&crc), sizeof crc);
}

std::size_t read_file(const std::string& path, const char* what,
                      const char* failpoint,
                      const std::function<char*(std::size_t)>& alloc) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);  // NOLINT(cppcoreguidelines-pro-type-vararg,hicpp-vararg)
  if (fd < 0 || fault::should_fail(failpoint)) {
    if (fd >= 0) ::close(fd);
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  struct FdGuard {
    int fd;
    ~FdGuard() { ::close(fd); }
  } guard{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0 || !S_ISREG(st.st_mode)) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  char* dst = alloc(size);
  std::size_t done = 0;
  while (done < size) {
    const ssize_t got = ::read(fd, dst + done, size - done);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) {
      throw std::runtime_error(std::string(what) + ": read failed for " +
                               path);
    }
    done += static_cast<std::size_t>(got);
  }
  return size;
}

std::string read_file(const std::string& path, const char* what,
                      const char* failpoint) {
  std::string bytes;
  read_file(path, what, failpoint, [&](std::size_t n) {
    bytes.resize(n);
    return bytes.data();
  });
  return bytes;
}

std::string_view ByteReader::section() {
  const auto size = pod<std::uint64_t>();
  if (size > remaining()) {
    throw std::runtime_error(std::string(what_) +
                             ": corrupt section size (torn or tampered file)");
  }
  const std::string_view payload = view(static_cast<std::size_t>(size));
  if (remaining() < sizeof(std::uint32_t)) {
    throw std::runtime_error(std::string(what_) + ": truncated section");
  }
  if (crc32(payload.data(), payload.size()) != pod<std::uint32_t>()) {
    throw std::runtime_error(std::string(what_) +
                             ": section checksum mismatch");
  }
  return payload;
}

void ByteReader::expect_end() const {
  if (at_ != buf_.size()) {
    throw std::runtime_error(std::string(what_) +
                             ": trailing bytes after payload");
  }
}

void ByteReader::overrun() const {
  throw std::runtime_error(std::string(what_) +
                           ": corrupt payload (field extends past section)");
}

std::vector<int> retry_delays_ms(const RetryPolicy& policy) {
  std::vector<int> out;
  if (policy.attempts <= 1) return out;
  out.reserve(static_cast<std::size_t>(policy.attempts - 1));
  Rng rng(policy.jitter_seed);
  int delay_ms = policy.initial_delay_ms;
  for (int i = 1; i < policy.attempts; ++i) {
    out.push_back(detail::jittered_delay_ms(
        delay_ms, policy.jitter_seed != 0 ? &rng : nullptr));
    delay_ms *= 2;
  }
  return out;
}

}  // namespace vf::util
