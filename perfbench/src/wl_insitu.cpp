// insitu_stream: the closed-loop in-situ run. An ionization simulation
// (32x32x16) streams timesteps into api::Pipeline, which keeps 5%
// importance samples per step, fine-tunes the paper-architecture model for
// 10 epochs, checkpoints it, hot-swaps it into the serve tier and scores
// it. Step 0 is pretrained during set-up; each measured step is step()
// then drain(). A low fixed-rate probe stream queries the live session the
// whole time, so hot-swap writes run beside reads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "loadgen.hpp"
#include "probes.hpp"
#include "vf/api/pipeline.hpp"
#include "vf/api/reconstruct.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/sampling/samplers.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace fs = std::filesystem;

constexpr vf::field::Dims kDims{32, 32, 16};
constexpr double kFraction = 0.05;
constexpr int kEpochsPerStep = 10;
/// An assumption: a light read load, so the fine-tune keeps the cores. It
/// is a tenth of the ceiling of `vfctl pipeline`'s probe client, which
/// waits 500 us between synchronous one-point queries.
constexpr double kProbeQps = 200.0;
/// The simulation and the pipeline's own sampling and training seed are
/// fixed, so the published model after N steps is bit-stable; --seed draws
/// the probe stream.
constexpr std::uint64_t kPipelineSeed = 1;

/// What the step callback hands back from the fine-tune worker.
struct StepLog {
  // vf-lint: allow(unannotated-guard) guards every field below
  vf::util::Mutex mu{"perfbench.insitu.steps"};
  int reports = 0;
  int unpublished = 0;
  std::vector<double> train_s;
  vf::field::ScalarField last_truth;
  vf::sampling::SampleCloud last_cloud;
};

vf::api::PipelineConfig pipeline_config(const std::string& workdir,
                                        StepLog& log) {
  const auto train = paper_config();
  vf::api::PipelineConfig cfg;
  cfg.with_dataset("ionization")
      .with_dims(kDims)
      .with_sample_fraction(kFraction)
      .with_pretrain_epochs(train.epochs)
      .with_epochs_per_step(kEpochsPerStep)
      .with_max_steps(1000)
      .with_seed(kPipelineSeed)
      .with_workdir(workdir);
  cfg.hidden = train.hidden;
  cfg.max_train_rows = train.max_train_rows;
  cfg.on_step = [&log](const vf::pipeline::StepReport& r) {
    const vf::util::MutexLock lock(log.mu);
    ++log.reports;
    if (!r.published) ++log.unpublished;
    log.train_s.push_back(r.train_seconds);
    if (r.truth != nullptr && r.cloud != nullptr) {
      log.last_truth = *r.truth;
      log.last_cloud = *r.cloud;
    }
  };
  return cfg;
}

/// A probe stream on its own thread until `stop` is set.
class ProbeStream {
 public:
  ProbeStream(vf::api::Pipeline& pipe, QueryPool& pool, std::uint64_t seed,
              Tracer* tracer, std::uint64_t parent_span)
      : thread_([this, &pipe, &pool, seed, tracer, parent_span] {
          RungSpec spec;
          spec.rate = kProbeQps;
          spec.min_seconds = 1e9;
          spec.max_seconds = 1e9;
          spec.stop = &stop_;
          spec.tracer = tracer;
          spec.parent_span = parent_span;
          result_ = run_rung(
              [&pipe](const std::string&, std::vector<vf::field::Vec3> points) {
                return pipe.submit(std::move(points));
              },
              pool, spec, seed);
        }) {}
  ~ProbeStream() { finish(); }
  ProbeStream(const ProbeStream&) = delete;
  ProbeStream& operator=(const ProbeStream&) = delete;

  /// Stop sending, wait for every answer, and return the stream's result.
  const RungResult& finish() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return result_;
  }

 private:
  std::atomic<bool> stop_{false};
  RungResult result_;
  std::thread thread_;  // declared last: starts after the members it uses
};

}  // namespace

void run_insitu_stream(const RunOptions& opts, Report& report,
                       Tracer& tracer) {
  auto log = std::make_unique<StepLog>();
  std::unique_ptr<vf::api::Pipeline> pipe;
  int setups = 0;
  timed_setups(opts, report, [&] {
    pipe.reset();
    log = std::make_unique<StepLog>();
    // A fresh directory each time: a reused one would resume step 0 from
    // its checkpoints instead of pretraining.
    const auto dir = fs::path(opts.workdir) / ("pipeline" +
                                               std::to_string(setups++));
    fs::remove_all(dir);
    pipe = std::make_unique<vf::api::Pipeline>(
        pipeline_config(dir.string(), *log));
    pipe->start();
  });

  const auto ds = vf::data::make_dataset("ionization");
  const auto grid = ds->grid_for(kDims);
  auto pool = make_pool({{"live", grid,
                          [&ds](const vf::field::Vec3& p) {
                            return ds->evaluate(p, 0.0);
                          }}},
                        1024, 0, opts.seed);

  // A fixed number of steps for the run length (about two seconds each on a
  // 4-core machine), so the last published model is the same in every
  // run. A traced run spans half of them to price the tracing.
  std::vector<double> step_s;
  std::vector<double> traced_step_s;
  const auto stats0 = pipe->stats();
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  RungResult probes;
  {
    const auto path = tracer.scope("loadgen.rung");
    ProbeStream stream(*pipe, pool, opts.seed ^ 0x9b,
                       opts.trace ? &tracer : nullptr, path.id());
    const auto total = static_cast<std::size_t>(
        std::max(3.0, std::round(opts.seconds / 2.0)));
    const std::size_t untraced = opts.trace ? total / 2 : total;
    while (step_s.size() < untraced) {
      const auto t = Clock::now();
      pipe->step();
      pipe->drain();
      step_s.push_back(seconds_since(t));
    }
    while (step_s.size() + traced_step_s.size() < total) {
      const auto t = Clock::now();
      {
        const auto step = tracer.scope("pipeline.step");
        {
          const auto span = tracer.scope("pipeline.ingest");
          pipe->step();
        }
        const auto span = tracer.scope("pipeline.drain");
        pipe->drain();
      }
      traced_step_s.push_back(seconds_since(t));
    }
    probes = stream.finish();
  }
  const double wall = seconds_since(t0);
  const double cpu_per_wall = (process_cpu_s() - cpu0) / wall;
  const auto stats = pipe->stats();
  const auto steps = static_cast<int>(step_s.size() + traced_step_s.size());

  report.attempted(static_cast<std::uint64_t>(steps));
  // The stream only ends at the stop signal or the backlog cap, so passing
  // the cap check means it was still sending when the last step finished.
  account_rung(report, probes, "insitu: probe stream");
  report.check(
      probes.answered == probes.sent,
      "insitu: every probe answered exactly once with the right shape");
  report.check(stats.steps_coalesced == 0, "insitu: no step coalesced");
  int unpublished = 0;
  int reports = 0;
  std::vector<double> train_s;
  {
    const vf::util::MutexLock lock(log->mu);
    unpublished = log->unpublished;
    reports = log->reports;
    train_s = log->train_s;
  }
  report.check(reports == steps + 1 && unpublished == 0 &&
                   stats.publishes ==
                       stats0.publishes + static_cast<std::uint64_t>(steps),
               "insitu: each step publishes");
  report.check(stats.train_failures == 0, "insitu: no fine-tune failed");

  for (std::size_t i = 0; i < step_s.size(); ++i) {
    std::printf("step    %zu  %.3f s\n", i + 1, step_s[i]);
  }
  const double points = static_cast<double>(kDims.count());
  report.info("insitu.steps", steps, "count");
  report.info("step_s", median(step_s), "s");
  report.info("insitu.train_s", median(train_s), "s");
  report.info("insitu.probes", static_cast<double>(probes.answered), "count");
  report.info("insitu.probe_p50_ms", probes.p50_ms(), "ms");
  report.info("insitu.probe_p99_ms", probes.p99_ms(), "ms");
  report.info("snr_db", stats.published_snr_db, "dB");
  report.info("proc.cpu_per_wall", cpu_per_wall, "ratio");

  if (!opts.trace) {
    report.e2e("p50_ms", probes.p50_ms(), "ms");
    report.e2e("points_per_s", points / median(step_s), "points/s");
    report.e2e("snr_db", stats.published_snr_db, "dB");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run: counters, then one step replayed through the layers'
  // public functions on the last step's data.
  report.layer("proc.cpu_per_wall", cpu_per_wall, "ratio");
  report.layer("trace.overhead_ratio", median(traced_step_s) / median(step_s),
               "ratio");
  report.layer("pipeline.steps_coalesced", stats.steps_coalesced, "count");
  const auto& reg = stats.serve.total.registry;
  report.layer("serve.registry.swaps",
               static_cast<double>(reg.swaps -
                                   stats0.serve.total.registry.swaps),
               "count");
  report.layer("serve.registry.hits", static_cast<double>(reg.hits), "count");
  report.layer("serve.registry.loads", static_cast<double>(reg.loads),
               "count");
  report.layer("serve.registry.evictions", static_cast<double>(reg.evictions),
               "count");
  report.layer("serve.registry.hit_ratio",
               reg.hits + reg.loads > 0
                   ? static_cast<double>(reg.hits) /
                         static_cast<double>(reg.hits + reg.loads)
                   : 0.0,
               "ratio");
  const auto& served = stats.serve.total;
  report.layer("serve.points_per_batch",
               served.batches > 0 ? static_cast<double>(served.served_points) /
                                        static_cast<double>(served.batches)
                                  : 0.0,
               "points");
  report.layer("serve.shed", static_cast<double>(stats.serve.total.shed),
               "count");
  report.layer("serve.expired", static_cast<double>(stats.serve.total.expired),
               "count");
  report.layer("loadgen.lag_ms", quantile(probes.lag_ms, 0.99), "ms");

  vf::field::ScalarField truth;
  vf::sampling::SampleCloud cloud;
  {
    const vf::util::MutexLock lock(log->mu);
    truth = log->last_truth;
    cloud = log->last_cloud;
  }
  const auto model = pipe->model();
  const vf::sampling::ImportanceSampler sampler;
  auto train = paper_config();
  {
    const auto replay = tracer.scope("insitu.replay_step");
    double t_sample = 0.0;
    {
      const auto span = tracer.scope("sampling.sample");
      const auto a = Clock::now();
      (void)sampler.sample(truth, kFraction, opts.seed);
      t_sample = seconds_since(a);
    }
    report.layer("pipeline.sample_s", t_sample, "s");
    auto tuned = model->clone();
    double t_train = 0.0;
    {
      const auto span = tracer.scope("core.fine_tune");
      const auto a = Clock::now();
      (void)vf::core::fine_tune(tuned, truth, sampler, train,
                                vf::core::FineTuneMode::FullNetwork,
                                kEpochsPerStep);
      t_train = seconds_since(a);
    }
    report.layer("pipeline.train_s", t_train, "s");
    double t_score = 0.0;
    {
      const auto span = tracer.scope("api.score");
      const auto a = Clock::now();
      for (const bool fcnn : {true, false}) {
        vf::api::ReconstructOptions o;
        o.method =
            fcnn ? vf::api::Method::FcnnStream : vf::api::Method::Shepard;
        o.model = fcnn ? &tuned : nullptr;
        vf::api::Reconstructor rec(o);
        (void)vf::field::snr_db(truth,
                                rec.reconstruct(cloud, truth.grid()).field);
      }
      t_score = seconds_since(a);
    }
    report.layer("pipeline.score_s", t_score, "s");
    const auto path = (fs::path(opts.workdir) / "replay.vfmd").string();
    {
      const auto span = tracer.scope("core.model_save");
      tuned.save(path);
    }
    {
      const auto span = tracer.scope("serve.publish");
      pipe->router().add_session("replay", cloud, path);
    }
  }
  report_path_breakdown(tracer, report, "insitu.replay_step", 1.0);
  probe_model_load(tracer, report,
                   (fs::path(opts.workdir) / "replay.vfmd").string());

  std::vector<vf::field::Vec3> voids;
  for (const auto i : cloud.void_indices()) voids.push_back(grid.position(i));
  probe_query_path(tracer, report, cloud, voids, *model, 16384);
  probe_nn_table(tracer, report, *model);
}

}  // namespace pb
