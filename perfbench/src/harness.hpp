#pragma once
// Shared harness pieces: run options, the result report, sample
// statistics, process resource readings, and the span tracer used by
// traced runs.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "vf/util/mutex.hpp"
#include "vf/util/thread_annotations.hpp"

namespace pb {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// Command-line options every workload receives.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< measured window (set-up not included)
  bool trace = false;
  std::string workdir;    ///< scratch directory inside the checkout
};

/// Median of a sample (0 for an empty one).
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1] (0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> v, double q);
/// The highest percentile among p50/p90/p99/p99.9 that leaves at least ten
/// samples beyond it, as a fraction (0.5 when even p50 does not).
[[nodiscard]] double tail_quantile_for(std::size_t samples);

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// CPU seconds consumed by the whole process.
[[nodiscard]] double process_cpu_s();

/// What one run reports. End-to-end metrics are printed on untraced runs,
/// per-layer metrics on traced runs; `info` values are printed as
/// human-readable lines only.
class Report {
 public:
  void e2e(const std::string& name, double value, const std::string& unit);
  void layer(const std::string& name, double value, const std::string& unit);
  void info(const std::string& name, double value, const std::string& unit);

  /// Count `n` attempted operations.
  void attempted(std::uint64_t n) { attempted_ += n; }
  /// Count one failed operation, with a reason printed once per reason.
  void failed(const std::string& why, std::uint64_t n = 1);
  /// A correctness check: counted as one attempted operation, and as a
  /// failure when `ok` is false.
  void check(bool ok, const std::string& what);

  [[nodiscard]] std::uint64_t attempts() const { return attempted_; }
  [[nodiscard]] std::uint64_t failures() const { return failed_; }

  /// Print the human-readable lines, then the one-line JSON result.
  void print(bool trace) const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layer_;
  std::vector<std::pair<std::string, Metric>> info_;
  std::map<std::string, std::uint64_t> failures_;
  std::vector<std::string> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder for traced runs. Each span has a name, start,
/// end, parent span and an optional request id; spans stay in memory until
/// write() at the end of the run. Disabled tracers record nothing, so the
/// untraced path pays one branch per scope.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;  ///< seconds since the tracer's epoch
    double end = 0.0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< serve request id (0 = none)
  };

  /// RAII span on the calling thread; nests under the thread's innermost
  /// open scope unless an explicit parent is given.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] std::uint64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point start_;
  };

  explicit Tracer(bool enabled);

  [[nodiscard]] Scope scope(const char* name, std::uint64_t parent = 0) {
    return Scope(enabled_ ? this : nullptr, name, parent);
  }
  /// Record a span whose end points were taken elsewhere (a served
  /// request: intended send to observed completion).
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t parent, std::uint64_t request);
  /// Sum of durations and number of spans called `name`.
  [[nodiscard]] double total_s(const std::string& name) const;
  [[nodiscard]] std::size_t count(const std::string& name) const;
  /// Self time per layer of the spans under the spans called `path`: each
  /// span's duration minus the part its children cover, summed by layer
  /// (the name up to its first '.'). Layers with no span there are absent.
  [[nodiscard]] std::map<std::string, double> layer_self_s(
      const std::string& path) const;
  /// Wall of the spans called `name` minus the time their direct children
  /// cover: the part of a path no layer span accounts for.
  [[nodiscard]] double unattributed_s(const std::string& name) const;

  /// Write every span as JSON lines.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::uint64_t next_id();
  void push(Span span);
  [[nodiscard]] std::vector<Span> snapshot() const;

  bool enabled_;
  Clock::time_point epoch_;
  mutable vf::util::Mutex mu_{"perfbench.tracer"};
  std::vector<Span> spans_ VF_GUARDED_BY(mu_);
  std::uint64_t next_id_ VF_GUARDED_BY(mu_) = 0;
};

}  // namespace pb
