#include "loadgen.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <exception>
#include <numeric>
#include <thread>

#include "vf/field/metrics.hpp"
#include "vf/field/scalar_field.hpp"
#include "vf/util/rng.hpp"

namespace pb {

double QueryPool::mean_points() const {
  if (probes.empty() || probes.front().empty()) return 0.0;
  const auto size = [&](const std::vector<std::size_t>& list) {
    return static_cast<double>(queries[list.front()].points.size());
  };
  if (slabs.front().empty()) return size(probes.front());
  const auto every = static_cast<double>(kSlabEvery);
  return (size(probes.front()) * (every - 1.0) + size(slabs.front())) / every;
}

QueryPool make_pool(const std::vector<SessionSpec>& sessions,
                    std::size_t probes, std::size_t slabs,
                    std::uint64_t seed) {
  // 4 points per probe is bench/serve_loadgen's default query size; a slab
  // of 8^3 = 512 points fills one micro-batch (the serve tier's default
  // batch_max_points).
  constexpr int kProbePoints = 4;
  constexpr int kSlabEdge = 8;
  QueryPool pool;
  vf::util::Rng rng(seed);
  for (std::size_t s = 0; s < sessions.size(); ++s) {
    const auto& spec = sessions[s];
    pool.keys.push_back(spec.key);
    pool.probes.emplace_back();
    pool.slabs.emplace_back();
    const auto b = spec.grid.bounds();
    const auto h = spec.grid.spacing();
    for (std::size_t i = 0; i < probes + slabs; ++i) {
      Query q;
      q.session = s;
      const bool slab = i >= probes;
      if (slab) {
        const vf::field::Vec3 corner{
            rng.uniform(b.min.x, b.max.x - kSlabEdge * h.x),
            rng.uniform(b.min.y, b.max.y - kSlabEdge * h.y),
            rng.uniform(b.min.z, std::max(b.min.z, b.max.z - kSlabEdge * h.z))};
        for (int z = 0; z < kSlabEdge; ++z) {
          for (int y = 0; y < kSlabEdge; ++y) {
            for (int x = 0; x < kSlabEdge; ++x) {
              q.points.push_back({corner.x + x * h.x, corner.y + y * h.y,
                                  std::min(b.max.z, corner.z + z * h.z)});
            }
          }
        }
      } else {
        for (int p = 0; p < kProbePoints; ++p) {
          q.points.push_back({rng.uniform(b.min.x, b.max.x),
                              rng.uniform(b.min.y, b.max.y),
                              rng.uniform(b.min.z, b.max.z)});
        }
      }
      for (const auto& p : q.points) q.truth.push_back(spec.truth(p));
      (slab ? pool.slabs : pool.probes).back().push_back(pool.queries.size());
      pool.queries.push_back(std::move(q));
    }
  }
  pool.served.resize(pool.queries.size());
  return pool;
}

double served_snr_db(const QueryPool& pool) {
  // Probes only: they are spread uniformly over the domain, while the few
  // slabs are dense local blocks whose placement would swing the ratio.
  std::vector<double> truth;
  std::vector<double> served;
  for (const auto& list : pool.probes) {
    for (const std::size_t i : list) {
      if (pool.served[i].empty()) continue;
      truth.insert(truth.end(), pool.queries[i].truth.begin(),
                   pool.queries[i].truth.end());
      served.insert(served.end(), pool.served[i].begin(),
                    pool.served[i].end());
    }
  }
  if (truth.empty()) return 0.0;
  const vf::field::UniformGrid3 line(
      {static_cast<int>(truth.size()), 1, 1}, {0, 0, 0}, {1, 1, 1});
  return vf::field::snr_db(vf::field::ScalarField(line, std::move(truth)),
                           vf::field::ScalarField(line, std::move(served)));
}

void RungResult::append(const RungResult& more) {
  rate = more.rate;
  sent += more.sent;
  answered += more.answered;
  failed += more.failed;
  backlog_abort = backlog_abort || more.backlog_abort;
  latency_ms.insert(latency_ms.end(), more.latency_ms.begin(),
                    more.latency_ms.end());
  lag_ms.insert(lag_ms.end(), more.lag_ms.begin(), more.lag_ms.end());
}

bool RungResult::backlog_grew() const {
  if (backlog_abort) return true;
  const std::size_t n = latency_ms.size();
  if (n < 8) return false;
  const std::size_t quarter = n / 4;
  // latency_ms is in completion order, which tracks send order closely.
  const double early = std::accumulate(latency_ms.begin(),
                                       latency_ms.begin() + quarter, 0.0) /
                       static_cast<double>(quarter);
  const double late = std::accumulate(latency_ms.end() - quarter,
                                      latency_ms.end(), 0.0) /
                      static_cast<double>(quarter);
  return late > 2.0 * early + 2.0;
}

bool RungResult::passes(double slo_ms) const {
  return failed == 0 && !backlog_grew() && p99_ms() <= slo_ms;
}

namespace {

/// Pool index of the `n`-th request of a stream (see RungSpec::dwell and
/// kSlabEvery).
std::size_t pick_query(const QueryPool& pool, std::uint64_t n,
                       std::size_t dwell, vf::util::Rng& rng) {
  const auto sessions = static_cast<std::uint32_t>(pool.keys.size());
  const std::size_t session =
      dwell == 0 ? rng.below(sessions) : (n / dwell) % pool.keys.size();
  const bool slab =
      !pool.slabs[session].empty() && n % kSlabEvery == kSlabEvery - 1;
  const auto& list = (slab ? pool.slabs : pool.probes)[session];
  return list[rng.below(static_cast<std::uint32_t>(list.size()))];
}

struct Pending {
  std::future<vf::serve::PointResponse> future;
  Clock::time_point intended;
  std::size_t query = 0;
  std::uint64_t id = 0;
};

}  // namespace

RungResult run_rung(const SubmitFn& submit, QueryPool& pool,
                    const RungSpec& spec, std::uint64_t seed) {
  RungResult r;
  r.rate = spec.rate;

  // vf-lint: allow(unannotated-guard) guards the function-local inbox/done
  vf::util::Mutex mu{"perfbench.loadgen.inbox"};
  vf::util::CondVar cv;
  std::deque<Pending> inbox;
  bool done = false;
  std::atomic<std::size_t> outstanding{0};

  std::uint64_t answered = 0;
  std::uint64_t failed = 0;
  std::vector<double> latency;
  latency.reserve(static_cast<std::size_t>(
      std::min(spec.rate * spec.min_seconds, 65536.0)) + spec.min_requests);

  auto harvest = [&](Pending& p, Clock::time_point now) {
    const Query& q = pool.queries[p.query];
    bool ok = false;
    try {
      auto resp = p.future.get();
      ok = resp.status == vf::serve::Status::Ok &&
           resp.values.size() == q.points.size() && resp.fallback.empty();
      if (ok && pool.served[p.query].empty()) {
        pool.served[p.query] = std::move(resp.values);
      }
    } catch (const std::exception&) {
      ok = false;
    }
    if (ok) {
      ++answered;
      latency.push_back(
          std::chrono::duration<double, std::milli>(now - p.intended).count());
      if (spec.tracer != nullptr) {
        spec.tracer->record("serve.request", p.intended, now,
                            spec.parent_span, p.id);
      }
    } else {
      ++failed;
    }
    outstanding.fetch_sub(1, std::memory_order_relaxed);
  };

  std::thread harvester([&] {
    std::vector<Pending> live;  // in send order
    for (;;) {
      {
        const vf::util::MutexLock lock(mu);
        // Nothing outstanding: sleep until a send or the end of the rung.
        while (live.empty() && inbox.empty() && !done) cv.wait(mu);
        while (!inbox.empty()) {
          live.push_back(std::move(inbox.front()));
          inbox.pop_front();
        }
        if (live.empty() && done) return;
      }
      // Block on the oldest request — answers mostly arrive in send order —
      // waking at least every 100 us to stamp any answered out of order.
      (void)live.front().future.wait_for(std::chrono::microseconds(100));
      const auto now = Clock::now();
      std::size_t kept = 0;
      for (std::size_t i = 0; i < live.size(); ++i) {
        if (live[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          harvest(live[i], now);
        } else {
          if (kept != i) live[kept] = std::move(live[i]);
          ++kept;
        }
      }
      live.resize(kept);
    }
  });

  vf::util::Rng rng(seed);
  const auto t0 = Clock::now();
  auto next = t0;
  std::uint64_t id = 0;
  for (;;) {
    const double elapsed = seconds_between(t0, next);
    if ((elapsed >= spec.min_seconds && r.sent >= spec.min_requests) ||
        elapsed >= spec.max_seconds ||
        (spec.stop != nullptr && spec.stop->load(std::memory_order_relaxed))) {
      break;
    }
    if (outstanding.load(std::memory_order_relaxed) >= kBacklogCap) {
      r.backlog_abort = true;
      break;
    }
    auto now = Clock::now();
    if (now < next) {
      std::this_thread::sleep_until(next);
      now = Clock::now();
    }
    r.lag_ms.push_back(
        std::chrono::duration<double, std::milli>(now - next).count());
    const std::size_t qi = pick_query(pool, r.sent, spec.dwell, rng);
    const Query& q = pool.queries[qi];
    ++r.sent;
    std::optional<std::future<vf::serve::PointResponse>> future;
    try {
      future = submit(pool.keys[q.session], q.points);
    } catch (const std::exception&) {
      future.reset();
    }
    if (future) {
      outstanding.fetch_add(1, std::memory_order_relaxed);
      {
        const vf::util::MutexLock lock(mu);
        inbox.push_back({std::move(*future), next, qi, ++id});
      }
      cv.notify_one();
    } else {
      ++r.failed;  // shed or refused: counts as a miss
    }
    const double u = std::min(rng.uniform(), 0.999999999);
    next += std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(-std::log(1.0 - u) / spec.rate));
  }
  {
    const vf::util::MutexLock lock(mu);
    done = true;
  }
  cv.notify_all();
  harvester.join();

  r.answered = answered;
  r.failed += failed;
  r.latency_ms = std::move(latency);
  return r;
}

void account_rung(Report& report, const RungResult& r,
                  const std::string& what) {
  report.attempted(r.sent);
  if (r.failed > 0) report.failed(what + ": request failed", r.failed);
  report.check(!r.backlog_abort,
               what + ": sent to the end without reaching the backlog cap");
}

SaturationResult run_saturation(const SubmitFn& submit, QueryPool& pool,
                                double seconds, std::size_t dwell,
                                std::uint64_t seed) {
  constexpr double kSliceS = 0.5;
  SaturationResult r;
  vf::util::Rng rng(seed);
  std::deque<std::pair<std::future<vf::serve::PointResponse>, std::size_t>>
      inflight;
  const auto t0 = Clock::now();
  auto slice_start = t0;
  double slice_points = 0.0;
  bool sending = true;
  while (sending || !inflight.empty()) {
    if (sending && seconds_since(t0) >= seconds) {
      sending = false;
      // A window shorter than one slice is measured as one short slice.
      if (r.slice_points_per_s.empty()) {
        r.slice_points_per_s.push_back(slice_points /
                                       seconds_since(slice_start));
      }
    }
    if (sending && seconds_since(slice_start) >= kSliceS) {
      const auto now = Clock::now();
      r.slice_points_per_s.push_back(slice_points /
                                     seconds_between(slice_start, now));
      slice_start = now;
      slice_points = 0.0;
    }
    while (sending && inflight.size() < kBacklogCap) {
      const std::size_t qi = pick_query(pool, r.sent, dwell, rng);
      const Query& q = pool.queries[qi];
      ++r.sent;
      std::optional<std::future<vf::serve::PointResponse>> future;
      try {
        future = submit(pool.keys[q.session], q.points);
      } catch (const std::exception&) {
        future.reset();
      }
      if (future) {
        inflight.emplace_back(std::move(*future), qi);
      } else {
        ++r.failed;
      }
    }
    if (inflight.empty()) continue;
    auto [future, qi] = std::move(inflight.front());
    inflight.pop_front();
    bool ok = false;
    try {
      const auto resp = future.get();
      ok = resp.status == vf::serve::Status::Ok &&
           resp.values.size() == pool.queries[qi].points.size();
    } catch (const std::exception&) {
      ok = false;
    }
    if (!ok) {
      ++r.failed;
    } else if (sending) {  // the tail drained after the window is not timed
      slice_points += static_cast<double>(pool.queries[qi].points.size());
    }
  }
  return r;
}

LadderResult run_ladder(const SubmitFn& submit, QueryPool& pool,
                        const RungSpec& base, double slo_ms, double budget_s,
                        std::uint64_t seed) {
  LadderResult out;
  const auto t0 = Clock::now();
  std::optional<std::size_t> pass;  // index of the best passing rung
  double fail_rate = 0.0;
  auto run = [&](double rate) {
    RungSpec spec = base;
    spec.rate = rate;
    out.rungs.push_back(run_rung(
        submit, pool, spec,
        seed ^ (0x9e3779b97f4a7c15ULL * (out.rungs.size() + 1))));
    out.sent += out.rungs.back().sent;
    out.failed += out.rungs.back().failed;
    return out.rungs.back().passes(slo_ms);
  };
  double rate = base.rate;
  while (fail_rate == 0.0 && seconds_since(t0) < budget_s) {
    if (run(rate)) {
      pass = out.rungs.size() - 1;
      rate *= 1.25;
    } else {
      fail_rate = rate;
    }
  }
  for (int i = 0; i < 4 && pass && fail_rate > 0.0 &&
                  seconds_since(t0) < budget_s;
       ++i) {
    const double mid = std::sqrt(out.rungs[*pass].rate * fail_rate);
    if (run(mid)) {
      pass = out.rungs.size() - 1;
    } else {
      fail_rate = mid;
    }
  }
  if (pass) {
    const RungResult& best = out.rungs[*pass];
    out.max_rate_qps = best.rate;
  }
  return out;
}

}  // namespace pb
