#pragma once
// Open-loop query load: one generator thread sends on an absolute Poisson
// schedule, one harvester thread polls the outstanding futures and stamps
// each answer when it is first seen ready. Latency runs from the intended
// send time, so a stalled generator or server charges the wait to every
// request it delays.

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "vf/field/grid.hpp"
#include "vf/serve/queue.hpp"

namespace pb {

/// One pre-generated query: a session key, its points, and the true field
/// value at each point.
struct Query {
  std::size_t session = 0;
  std::vector<vf::field::Vec3> points;
  std::vector<double> truth;
};

/// A fixed pool of queries per run, drawn from the seed. Requests pick
/// pool entries at random, so the stream is long but the set of distinct
/// answers stays small enough to verify.
struct QueryPool {
  std::vector<std::string> keys;  ///< session keys, indexed by Query::session
  std::vector<Query> queries;
  /// Indices into `queries` per session: 4-point probes and 512-point slabs.
  std::vector<std::vector<std::size_t>> probes;
  std::vector<std::vector<std::size_t>> slabs;
  /// First served answer per pool entry (empty until served); filled by
  /// the harvester, read after the run for the SNR and agreement checks.
  std::vector<std::vector<double>> served;
  /// Points per request of the stream the cadence produces.
  [[nodiscard]] double mean_points() const;
};

/// Every kSlabEvery-th request of a session that has slabs is a slab, the
/// rest are probes. A fixed cadence keeps the work mix of a short window
/// exact. The share is an assumption: a viewer mostly probes single points
/// and now and then refines a small block.
inline constexpr std::size_t kSlabEvery = 100;

/// Outstanding requests at which a rung stops sending: below the serve
/// queue's 256-request admission bound, so overload shows as backlog, not
/// as sheds.
inline constexpr std::size_t kBacklogCap = 192;

/// One session the pool draws queries for.
struct SessionSpec {
  std::string key;
  vf::field::UniformGrid3 grid;  ///< query domain and slab spacing
  std::function<double(const vf::field::Vec3&)> truth;
};

/// Per session, `probes` 4-point probes at uniform random positions and
/// `slabs` 512-point 8x8x8 slabs at grid spacing from a random corner.
[[nodiscard]] QueryPool make_pool(const std::vector<SessionSpec>& sessions,
                                  std::size_t probes, std::size_t slabs,
                                  std::uint64_t seed);

/// SNR (dB) of the served probe answers against the true values.
[[nodiscard]] double served_snr_db(const QueryPool& pool);

using SubmitFn =
    std::function<std::optional<std::future<vf::serve::PointResponse>>(
        const std::string& key, std::vector<vf::field::Vec3> points)>;

/// Outcome of one fixed-rate stretch of load.
struct RungResult {
  double rate = 0.0;           ///< offered queries/s
  std::uint64_t sent = 0;
  std::uint64_t answered = 0;  ///< answered Ok with the right shape
  std::uint64_t failed = 0;    ///< shed, expired, thrown, wrong shape
  bool backlog_abort = false;  ///< stopped early: kBacklogCap outstanding
  std::vector<double> latency_ms;
  std::vector<double> lag_ms;  ///< how late each send left the generator

  /// Pool `more` into this result (counts, samples, the backlog flag).
  void append(const RungResult& more);

  [[nodiscard]] double p50_ms() const { return quantile(latency_ms, 0.5); }
  [[nodiscard]] double p99_ms() const { return quantile(latency_ms, 0.99); }
  /// Backlog grew: stopped at the cap, or the last quarter of requests
  /// waited far longer than the first quarter.
  [[nodiscard]] bool backlog_grew() const;
  /// Meets the SLO: nothing failed, p99 within `slo_ms`, no backlog growth.
  [[nodiscard]] bool passes(double slo_ms) const;
};

struct RungSpec {
  double rate = 1000.0;
  double min_seconds = 0.3;
  std::uint64_t min_requests = 2000;  ///< 20 samples beyond p99
  double max_seconds = 5.0;
  /// 0: every request picks any pool query. N > 0: requests scrub through
  /// the sessions in order, N consecutive requests per session, the way a
  /// viewer steps through timesteps.
  std::size_t dwell = 0;
  /// Optional external stop signal, checked before every send.
  const std::atomic<bool>* stop = nullptr;
  /// Record per-request spans under this parent (traced runs).
  Tracer* tracer = nullptr;
  std::uint64_t parent_span = 0;
};

/// Drive `submit` open-loop at `spec.rate` with requests drawn from `pool`.
RungResult run_rung(const SubmitFn& submit, QueryPool& pool,
                    const RungSpec& spec, std::uint64_t seed);

/// Count a fixed-rate stretch that must run to its end (warm-up, reference
/// rate, probe streams): its sends as attempted, its failed requests, and a
/// failed check when it stopped early at the backlog cap, since its
/// latencies would then come from a truncated stream.
void account_rung(Report& report, const RungResult& r,
                  const std::string& what);

/// Closed-loop saturation: keep kBacklogCap requests outstanding for
/// `seconds` and count what completes — the tier's throughput when it is
/// never idle. That many requests fill whole micro-batches, so the rate is
/// set by the workers' compute rather than by batch-deadline wake-ups, and
/// stays under the queue's admission bound, so nothing is shed. The rate is
/// the median over half-second slices, so a short stall of the host moves
/// one slice, not the result.
struct SaturationResult {
  std::uint64_t sent = 0;
  std::uint64_t failed = 0;
  std::vector<double> slice_points_per_s;
  [[nodiscard]] double points_per_s() const {
    return median(slice_points_per_s);
  }
};
SaturationResult run_saturation(const SubmitFn& submit, QueryPool& pool,
                                double seconds, std::size_t dwell,
                                std::uint64_t seed);

/// Highest offered rate that meets the SLO: a geometric ladder from
/// `base.rate` (x1.25 per rung) up to the first failing rung, then four
/// bisection steps between the last pass and the first fail.
struct LadderResult {
  std::vector<RungResult> rungs;
  double max_rate_qps = 0.0;   ///< 0 when even the first rung fails
  std::uint64_t failed = 0;    ///< failed requests over all rungs
  std::uint64_t sent = 0;
};
LadderResult run_ladder(const SubmitFn& submit, QueryPool& pool,
                        const RungSpec& base, double slo_ms, double budget_s,
                        std::uint64_t seed);

}  // namespace pb
