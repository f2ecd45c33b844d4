// serve_live and serve_timesteps: open-loop point queries against the
// serve tier (one ShardRouter shard, the default two workers and a
// registry of at most four resident models).
//
//   serve_live       one live session; the registry always hits.
//   serve_timesteps  eight timestep sessions, each with its own saved
//                    model — more than the registry keeps resident, so a
//                    viewer scrubbing through time drives the load/evict
//                    path and model deserialisation.
//
// Most queries are 4-point probes; about one in a hundred is a 512-point
// slab. Latency is read at a fixed reference rate; capacity is the highest
// rate of a ladder whose p99 stays within one 50 fps frame (20 ms) with no
// growing backlog.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "loadgen.hpp"
#include "probes.hpp"
#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/serve/router.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace fs = std::filesystem;

constexpr vf::field::Dims kDims{125, 125, 25};
constexpr double kFirstTimestep = 20.0;
constexpr double kFraction = 0.01;
/// The served archive is fixed; --seed draws the query stream. A seeded
/// cloud moved the served SNR by up to 2 dB between seeds.
constexpr std::uint64_t kCloudSeed = 1;
constexpr double kSloMs = 20.0;

/// The query stream of one serve workload. The rates and the dwell are
/// assumptions, not measurements of a real viewer; the README gives the
/// reasoning behind each.
struct ServeShape {
  std::size_t sessions;
  std::size_t probes_per_session;
  std::size_t slabs_per_session;
  /// Latency is read at this offered rate: light load (a small share of
  /// the workload's saturation throughput), so p50 is service time, not
  /// queueing.
  double reference_qps;
  double ladder_start_qps;
  /// Requests per session before scrubbing on to the next (0: every
  /// request picks a session at random). With more sessions than resident
  /// models every move to the next session is a model load, so the dwell
  /// sets the load share (printed as serve.registry.loads_per_request).
  std::size_t dwell;
};

struct Session {
  std::string key;
  double t = 0.0;
  vf::sampling::SampleCloud cloud;
  std::string model_path;
};

struct ServeScene {
  std::unique_ptr<vf::data::Dataset> dataset;
  vf::field::UniformGrid3 grid;
  std::vector<Session> sessions;
  std::unique_ptr<vf::serve::ShardRouter> router;
};

/// Train one paper-architecture model, save one copy per session, sample
/// every session's timestep and bind it on a fresh router.
std::unique_ptr<ServeScene> make_scene(const RunOptions& opts,
                                       const ServeShape& shape) {
  auto scene = std::make_unique<ServeScene>();
  scene->dataset = vf::data::make_dataset("hurricane");
  scene->grid = scene->dataset->grid_for(kDims);
  const vf::sampling::ImportanceSampler sampler;
  vf::core::FcnnModel model;
  for (std::size_t s = 0; s < shape.sessions; ++s) {
    Session session;
    session.t = kFirstTimestep + static_cast<double>(s);
    char key[16];
    std::snprintf(key, sizeof(key), "t%d", static_cast<int>(session.t));
    session.key = key;
    const auto truth = scene->dataset->generate(scene->grid, session.t);
    session.cloud = sampler.sample(truth, kFraction, kCloudSeed + s);
    if (s == 0) {
      model = vf::core::pretrain(truth, sampler, paper_config()).model;
    }
    session.model_path =
        (fs::path(opts.workdir) / (session.key + ".vfmd")).string();
    model.save(session.model_path);
    scene->sessions.push_back(std::move(session));
  }
  scene->router = std::make_unique<vf::serve::ShardRouter>();
  for (const auto& s : scene->sessions) {
    scene->router->add_session(s.key, s.cloud, s.model_path);
  }
  return scene;
}

QueryPool make_scene_pool(const ServeScene& scene, const ServeShape& shape,
                          std::uint64_t seed) {
  std::vector<SessionSpec> specs;
  for (const auto& s : scene.sessions) {
    const auto* ds = scene.dataset.get();
    const double t = s.t;
    specs.push_back({s.key, scene.grid,
                     [ds, t](const vf::field::Vec3& p) {
                       return ds->evaluate(p, t);
                     }});
  }
  return make_pool(specs, shape.probes_per_session, shape.slabs_per_session,
                   seed);
}

/// Served answers must equal api::Reconstructor::reconstruct_points on the
/// same cloud and model: two front doors, one answer. Up to 24 served
/// queries per session are re-asked in one point-mode call per session.
void check_agreement(const ServeScene& scene, const QueryPool& pool,
                     Report& report) {
  double worst = 0.0;
  std::size_t compared = 0;
  for (std::size_t s = 0; s < scene.sessions.size(); ++s) {
    const auto& session = scene.sessions[s];
    std::vector<vf::field::Vec3> points;
    std::vector<double> served;
    std::size_t taken = 0;
    for (std::size_t i = 0; i < pool.queries.size() && taken < 24; ++i) {
      const auto& q = pool.queries[i];
      if (q.session != s || pool.served[i].empty()) continue;
      points.insert(points.end(), q.points.begin(), q.points.end());
      served.insert(served.end(), pool.served[i].begin(),
                    pool.served[i].end());
      ++taken;
    }
    if (points.empty()) continue;
    vf::api::ReconstructOptions o;
    o.model_path = session.model_path;
    vf::api::Reconstructor rec(o);
    const auto expect = rec.reconstruct_points(session.cloud, points);
    for (std::size_t k = 0; k < points.size(); ++k) {
      const double d = std::abs(expect.values[k] - served[k]) /
                       std::max(1.0, std::abs(expect.values[k]));
      worst = std::max(worst, d);
    }
    compared += points.size();
  }
  report.info("serve.agreement_points", static_cast<double>(compared),
              "count");
  report.info("serve.agreement_max_rel_diff", worst, "ratio");
  report.check(compared > 0 && worst <= 1e-9,
               "serve: served answers equal api::Reconstructor::"
               "reconstruct_points on the same cloud and model");
}

void report_rung(Report& report, const std::string& prefix,
                 const RungResult& r) {
  report.info(prefix + ".offered_qps", r.rate, "1/s");
  report.info(prefix + ".requests", static_cast<double>(r.answered), "count");
  report.info(prefix + ".p50_ms", r.p50_ms(), "ms");
  const double q = tail_quantile_for(r.latency_ms.size());
  const char* label = q >= 0.999 ? ".p99.9_ms"
                      : q >= 0.99 ? ".p99_ms"
                      : q >= 0.9  ? ".p90_ms"
                                  : ".p50_ms";
  report.info(prefix + label, quantile(r.latency_ms, q), "ms");
  report.info(prefix + ".lag_p99_ms", quantile(r.lag_ms, 0.99), "ms");
}

void run_serve(const RunOptions& opts, Report& report, Tracer& tracer,
               const ServeShape& shape) {
  std::unique_ptr<ServeScene> scene;
  timed_setups(opts, report, [&] {
    scene.reset();  // stop the previous router before binding a new one
    scene = make_scene(opts, shape);
  });
  auto pool = make_scene_pool(*scene, shape, opts.seed);
  auto& router = *scene->router;
  const SubmitFn submit = [&router](const std::string& key,
                                    std::vector<vf::field::Vec3> points) {
    return router.submit(key, std::move(points));
  };
  report.info("serve.mean_points_per_query", pool.mean_points(), "points");

  // Warm-up: first-touch allocations, worker scratch, the first model
  // loads. Registry churn on serve_timesteps continues after it.
  RungSpec warm;
  warm.rate = shape.reference_qps;
  warm.dwell = shape.dwell;
  warm.min_seconds = 0.3;
  warm.min_requests = 0;
  account_rung(report, run_rung(submit, pool, warm, opts.seed ^ 0x77),
               "serve: warm-up");

  const auto stats0 = router.stats();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();

  // Untraced runs alternate the reference rate and saturation in kChunks
  // chunks spread over the window, and gate the median over chunks, so a
  // stall of the host during part of the run moves a minority of chunks,
  // not the figure. A traced run prices its spans against one untraced
  // stretch of the reference rate.
  constexpr int kChunks = 5;
  const int chunks = opts.trace ? 1 : kChunks;
  const double ref_s =
      (opts.trace ? 0.25 : 0.3) * opts.seconds / static_cast<double>(chunks);
  RungSpec ref;
  ref.rate = shape.reference_qps;
  ref.dwell = shape.dwell;
  ref.min_seconds = ref_s;
  ref.max_seconds = 2.0 * ref_s;
  ref.min_requests = 0;  // the tail is read from all chunks together
  RungResult reference;
  std::vector<double> chunk_p50_ms;
  SaturationResult saturation;
  for (int c = 0; c < chunks; ++c) {
    const auto r = run_rung(submit, pool, ref, opts.seed ^ (0x5e00U + c));
    chunk_p50_ms.push_back(r.p50_ms());
    reference.append(r);
    if (opts.trace) continue;
    const auto sat = run_saturation(
        submit, pool, 0.4 * opts.seconds / static_cast<double>(chunks),
        shape.dwell, opts.seed ^ (0x5a700U + c));
    saturation.sent += sat.sent;
    saturation.failed += sat.failed;
    saturation.slice_points_per_s.insert(saturation.slice_points_per_s.end(),
                                         sat.slice_points_per_s.begin(),
                                         sat.slice_points_per_s.end());
  }
  account_rung(report, reference, "serve: reference rate");
  const auto stream_loads = router.stats().total.registry.loads -
                            stats0.total.registry.loads;
  report.info("serve.registry.loads_per_request",
              static_cast<double>(stream_loads) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, reference.sent + saturation.sent)),
              "ratio");
  report_rung(report, "reference", reference);

  if (!opts.trace) {
    report.attempted(saturation.sent);
    if (saturation.failed > 0) {
      report.failed("serve: saturation request failed", saturation.failed);
    }
    report.info("saturation.points_per_s", saturation.points_per_s(),
                "points/s");
    const double budget = std::max(1.0, opts.seconds - seconds_since(t0));
    RungSpec base;
    base.rate = shape.ladder_start_qps;
    base.dwell = shape.dwell;
    const auto ladder =
        run_ladder(submit, pool, base, kSloMs, budget, opts.seed ^ 0x1add);
    report.attempted(ladder.sent);
    // Past capacity a rung stops at the backlog cap, so nothing is shed;
    // anything that failed did so in its own right.
    if (ladder.failed > 0) report.failed("serve: ladder request failed",
                                         ladder.failed);
    for (std::size_t i = 0; i < ladder.rungs.size(); ++i) {
      const auto& r = ladder.rungs[i];
      std::printf("rung    %8.0f q/s  sent %6llu  p50 %7.3f ms  p99 %8.3f ms"
                  "  %s\n",
                  r.rate, static_cast<unsigned long long>(r.sent), r.p50_ms(),
                  r.p99_ms(),
                  r.passes(kSloMs) ? "pass"
                  : r.backlog_abort ? "fail (backlog cap)"
                  : r.backlog_grew() ? "fail (backlog grew)"
                                     : "fail (p99)");
    }
    report.info("max_rate_qps", ladder.max_rate_qps, "1/s");
    report.info("max_rate_points_per_s",
                ladder.max_rate_qps * pool.mean_points(), "points/s");
    report.info("p99_ms", reference.p99_ms(), "ms");
    const auto stats = router.stats();
    report.info("serve.shed", static_cast<double>(stats.total.shed), "count");
    report.info("serve.expired", static_cast<double>(stats.total.expired),
                "count");
    report.info("proc.cpu_per_wall",
                (process_cpu_s() - cpu0) / seconds_since(t0), "ratio");
    report.info("phase.measured_s", seconds_since(t0), "s");
    check_agreement(*scene, pool, report);
    report.check(stats.total.shed == 0 && stats.total.expired == 0,
                 "serve: nothing shed or expired");
    const double snr = served_snr_db(pool);
    report.info("snr_db", snr, "dB");
    report.e2e("p50_ms", median(chunk_p50_ms), "ms");
    report.e2e("points_per_s", saturation.points_per_s(), "points/s");
    report.e2e("snr_db", snr, "dB");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run: the same reference rate again with request spans.
  RungResult traced;
  {
    const auto rung = tracer.scope("loadgen.rung");
    RungSpec spec = ref;
    spec.tracer = &tracer;
    spec.parent_span = rung.id();
    traced = run_rung(submit, pool, spec, opts.seed ^ 0x5e00U);
  }
  account_rung(report, traced, "serve: traced reference rate");
  const double wall = seconds_since(t0);
  const auto stats = router.stats();
  const auto& reg = stats.total.registry;
  const auto& reg0 = stats0.total.registry;
  const double hits = static_cast<double>(reg.hits - reg0.hits);
  const double loads = static_cast<double>(reg.loads - reg0.loads);
  const double batches =
      static_cast<double>(stats.total.batches - stats0.total.batches);
  report.layer("serve.points_per_batch",
               batches > 0 ? static_cast<double>(stats.total.served_points -
                                                 stats0.total.served_points) /
                                 batches
                           : 0.0,
               "points");
  report.layer("serve.shed", static_cast<double>(stats.total.shed), "count");
  report.layer("serve.expired", static_cast<double>(stats.total.expired),
               "count");
  report.layer("serve.registry.hits", hits, "count");
  report.layer("serve.registry.loads", loads, "count");
  report.layer("serve.registry.evictions",
               static_cast<double>(reg.evictions - reg0.evictions), "count");
  report.layer("serve.registry.hit_ratio",
               hits + loads > 0 ? hits / (hits + loads) : 0.0, "ratio");
  report.layer("serve.registry.swaps", static_cast<double>(reg.swaps),
               "count");
  report.layer("loadgen.lag_ms", quantile(traced.lag_ms, 0.99), "ms");
  report.layer("proc.cpu_per_wall", (process_cpu_s() - cpu0) / wall, "ratio");
  report_path_breakdown(tracer, report, "loadgen.rung",
                        static_cast<double>(std::max<std::uint64_t>(
                            1, traced.answered)));
  report.layer("trace.overhead_ratio",
               reference.p50_ms() > 0 ? traced.p50_ms() / reference.p50_ms()
                                      : 0.0,
               "ratio");

  const auto& first = scene->sessions.front();
  std::vector<vf::field::Vec3> probe_points;
  for (const auto& q : pool.queries) {
    if (q.session != 0) continue;
    probe_points.insert(probe_points.end(), q.points.begin(), q.points.end());
  }
  const auto model = vf::core::FcnnModel::load(first.model_path);
  probe_query_path(tracer, report, first.cloud, probe_points, model, 65536);
  probe_model_load(tracer, report, first.model_path);
  probe_nn_table(tracer, report, model);
}

}  // namespace

void run_serve_live(const RunOptions& opts, Report& report, Tracer& tracer) {
  // 2000 q/s is about a tenth of this workload's saturation throughput.
  run_serve(opts, report, tracer, {1, 2048, 32, 2000.0, 4000.0, 0});
}

void run_serve_timesteps(const RunOptions& opts, Report& report,
                         Tracer& tracer) {
  // 500 q/s is under a tenth of saturation here. A dwell of 64 at
  // 500 q/s moves to the next timestep every 128 ms, about 8 timesteps a
  // second: one model load per 64 requests.
  run_serve(opts, report, tracer, {8, 256, 8, 500.0, 1500.0, 64});
}

}  // namespace pb
