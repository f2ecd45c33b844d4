#pragma once
// Crash-safe file persistence primitives.
//
// Every binary artifact the library persists (VFNN/VFNT networks, VFMD
// models, VFB fields, VFCK training checkpoints) goes through
// atomic_write_file: the payload is written to a sibling temp file, flushed
// and fsync'd, and only then renamed over the destination. A crash at any
// point leaves either the old file or the new file — never a torn hybrid.
// The write path carries failpoints (atomic_open / atomic_write /
// atomic_fsync / atomic_rename, see vf/util/fault.hpp) so tests can
// deterministically exercise every failure leg.
//
// The section helpers frame variable-length payloads as
// `u64 size | bytes | u32 crc32`, which is how the v2 serialization formats
// detect torn writes and bit flips. Loaders read the whole file into one
// buffer (read_file) and walk it with ByteReader: section() verifies each
// frame in place and hands back a view of its payload, rejecting a size
// that exceeds the bytes actually left in the file (no multi-GB
// allocations from a corrupt header) and a checksum that does not match.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "vf/util/rng.hpp"

namespace vf::util {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of `len` bytes. Chainable:
/// pass the previous result as `seed` to extend a running checksum.
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

/// Atomically replace `path` with the bytes `writer` produces: write-temp,
/// flush, fsync, rename. On any failure (including injected faults) the
/// destination is untouched, the temp file is removed best-effort, and
/// std::runtime_error is thrown.
void atomic_write_file(const std::string& path,
                       const std::function<void(std::ostream&)>& writer);

/// Write one checksummed section: u64 payload size, payload, u32 CRC.
void write_crc_section(std::ostream& out, const std::string& payload);

/// Same framing, streaming straight from a caller buffer (no staging copy —
/// used for multi-hundred-MB field payloads).
void write_crc_section(std::ostream& out, const void* data, std::size_t len);

/// Read the whole file at `path` into memory: `alloc(n)` is called once
/// with the file's byte count n and returns where the n bytes go. Returns
/// n. Throws std::runtime_error "<what>: cannot open <path>" when the file
/// cannot be opened or `failpoint` (a vf::util::fault site) fires, and
/// "<what>: read failed for <path>" on a read error or short read.
std::size_t read_file(const std::string& path, const char* what,
                      const char* failpoint,
                      const std::function<char*(std::size_t)>& alloc);

/// The whole file at `path` as one buffer (same errors as above).
std::string read_file(const std::string& path, const char* what,
                      const char* failpoint);

/// Append-only byte buffer for assembling section payloads in memory before
/// checksumming. POD values are written in native (little-endian on every
/// supported target) layout, matching the on-disk formats.
class ByteWriter {
 public:
  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    buf_.append(reinterpret_cast<const char*>(&v), sizeof v);
  }
  void bytes(const void* data, std::size_t len) {
    buf_.append(static_cast<const char*>(data), len);
  }
  /// Length-prefixed string: u32 size + bytes.
  void str(const std::string& s) {
    pod(static_cast<std::uint32_t>(s.size()));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] const std::string& data() const { return buf_; }
  [[nodiscard]] std::string take() { return std::move(buf_); }

 private:
  std::string buf_;
};

/// Bounds-checked cursor over an in-memory buffer (a whole file or one
/// section's payload); the buffer must outlive the reader and every view
/// it returns. Every overrun throws std::runtime_error tagged with `what`,
/// so a corrupt length field can never read past the buffer or trigger an
/// oversized allocation.
class ByteReader {
 public:
  ByteReader(std::string_view buf, const char* what)
      : buf_(buf), what_(what) {}

  template <typename T>
  T pod() {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    bytes(&v, sizeof v);
    return v;
  }
  void bytes(void* dst, std::size_t len) {
    if (len > buf_.size() - at_) overrun();
    std::char_traits<char>::copy(static_cast<char*>(dst), buf_.data() + at_,
                                 len);
    at_ += len;
  }
  /// The next `len` bytes as a view into the buffer (no copy).
  std::string_view view(std::size_t len) {
    if (len > buf_.size() - at_) overrun();
    const std::string_view v = buf_.substr(at_, len);
    at_ += len;
    return v;
  }
  /// True, advancing past them, when the next bytes equal `tag` (a file
  /// magic); false, consuming nothing, otherwise.
  bool consume(std::string_view tag) {
    if (buf_.substr(at_, tag.size()) != tag) return false;
    at_ += tag.size();
    return true;
  }
  /// Length-prefixed string, rejecting lengths above `max_len`.
  std::string str(std::uint64_t max_len) {
    const auto len = pod<std::uint32_t>();
    if (len > max_len || len > remaining()) overrun();
    return std::string(view(len));
  }
  /// One checksummed section (u64 size, payload, u32 CRC), verified in
  /// place: returns a view of the payload. Throws on a size beyond the
  /// buffer, truncation, or checksum mismatch.
  std::string_view section();
  [[nodiscard]] std::uint64_t remaining() const { return buf_.size() - at_; }
  /// Throw unless the buffer was consumed exactly (no trailing bytes).
  void expect_end() const;

 private:
  [[noreturn]] void overrun() const;

  std::string_view buf_;
  std::size_t at_ = 0;
  const char* what_;
};

/// Retry policy for with_retries. Two independent caps bound the loop:
/// `attempts` (total calls) and `max_elapsed_ms` (wall clock across calls
/// and backoff sleeps; 0 = attempts-only) — whichever trips first rethrows
/// the last error. A nonzero `jitter_seed` replaces exact exponential
/// doubling with a deterministic uniform draw in [delay/2, delay], so a
/// fleet of clients that all failed at the same instant (a burst fault, a
/// restarted file server) fans back in spread out instead of re-colliding
/// on every backoff step.
struct RetryPolicy {
  int attempts = 1;
  int initial_delay_ms = 0;
  int max_elapsed_ms = 0;
  std::uint64_t jitter_seed = 0;  ///< 0 = no jitter
};

namespace detail {
/// Jitter one backoff step: uniform in [delay/2, delay] (identity when
/// rng is null or the delay is <= 0). Shared by with_retries and the
/// retry_delays_ms test hook so the unit tests pin the exact sequence.
inline int jittered_delay_ms(int delay_ms, Rng* rng) {
  if (rng == nullptr || delay_ms <= 0) return delay_ms;
  const int half = delay_ms / 2;
  return half + static_cast<int>(
                    rng->below(static_cast<std::uint32_t>(delay_ms - half) + 1));
}
}  // namespace detail

/// The exact backoff sleeps (ms) a with_retries(policy, ...) call would
/// perform if every attempt failed — one entry per retry. Deterministic
/// for a given policy; exists so tests can assert the jitter sequence
/// without sleeping through it.
std::vector<int> retry_delays_ms(const RetryPolicy& policy);

/// Run `attempt`; on std::runtime_error retry under `policy` (exponential
/// backoff starting at initial_delay_ms, doubling each retry, jittered
/// when seeded). Rethrows the last error once either cap is exhausted.
/// This is the CLI's transient-I/O policy: NFS hiccups and injected
/// faults get retried, persistent corruption still surfaces. Logic errors
/// (std::logic_error et al.) are never retried.
template <typename Fn>
auto with_retries(const RetryPolicy& policy, Fn&& attempt)
    -> decltype(attempt()) {
  const auto start = std::chrono::steady_clock::now();
  Rng rng(policy.jitter_seed);
  int delay_ms = policy.initial_delay_ms;
  for (int i = 1;; ++i) {
    try {
      return attempt();
    } catch (const std::runtime_error&) {
      if (i >= policy.attempts) throw;
      if (policy.max_elapsed_ms > 0) {
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start)
                .count();
        // Give up before sleeping into a budget already blown: a retry we
        // would only start after the cap helps nobody.
        if (elapsed >= policy.max_elapsed_ms) throw;
      }
      const int sleep_ms = detail::jittered_delay_ms(
          delay_ms, policy.jitter_seed != 0 ? &rng : nullptr);
      if (sleep_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
      }
      delay_ms *= 2;
    }
  }
}

/// Attempts-only compatibility form (no elapsed cap, no jitter).
template <typename Fn>
auto with_retries(int attempts, int initial_delay_ms, Fn&& attempt)
    -> decltype(attempt()) {
  RetryPolicy policy;
  policy.attempts = attempts;
  policy.initial_delay_ms = initial_delay_ms;
  return with_retries(policy, std::forward<Fn>(attempt));
}

}  // namespace vf::util
