// archive_grid: a scientist reconstructs one archived timestep — hurricane
// 125x125x25 from 1% importance samples — through the vfctl reconstruct
// path (read VTP + VTI, reconstruct, write VTI), and with each engine on
// the in-memory cloud: FCNN fp64 (the default), FCNN fp16, Delaunay
// linear and natural neighbour.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "probes.hpp"
#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/field/vtk_io.hpp"
#include "vf/geometry/delaunay.hpp"
#include "vf/interp/methods.hpp"
#include "vf/sampling/samplers.hpp"
#include "workloads.hpp"

namespace pb {

namespace {

namespace fs = std::filesystem;
using vf::api::Method;

constexpr vf::field::Dims kDims{125, 125, 25};
constexpr double kTimestep = 24.0;
constexpr double kFraction = 0.01;

struct Archive {
  vf::field::ScalarField truth;
  vf::sampling::SampleCloud cloud;
  vf::core::FcnnModel model;
  std::string vtp;
  std::string vti;
  std::string model_path;
  std::string out;
};

Archive make_archive(const RunOptions& opts) {
  Archive a;
  const auto ds = vf::data::make_dataset("hurricane");
  a.truth = ds->generate(kDims, kTimestep);
  const vf::sampling::ImportanceSampler sampler;
  a.cloud = sampler.sample(a.truth, kFraction, opts.seed);
  a.vtp = (fs::path(opts.workdir) / "cloud.vtp").string();
  a.vti = (fs::path(opts.workdir) / "like.vti").string();
  a.model_path = (fs::path(opts.workdir) / "model.vfmd").string();
  a.out = (fs::path(opts.workdir) / "recon.vti").string();
  a.cloud.save_vtp(a.vtp, a.truth.name());
  vf::field::write_vti(a.truth, a.vti);
  a.model = vf::core::pretrain(a.truth, sampler, paper_config()).model;
  a.model.save(a.model_path);
  return a;
}

/// One engine on the in-memory cloud.
struct Engine {
  const char* name;
  Method method;
  vf::nn::QuantPolicy quant;
};
constexpr Engine kEngines[] = {
    {"fcnn", Method::Auto, vf::nn::QuantPolicy::None},
    {"fcnn_fp16", Method::Auto, vf::nn::QuantPolicy::Fp16},
    {"linear", Method::Linear, vf::nn::QuantPolicy::None},
    {"natural", Method::Natural, vf::nn::QuantPolicy::None},
};

vf::api::ReconstructResult reconstruct_with(const Archive& a,
                                            const Engine& e) {
  vf::api::ReconstructOptions o;
  o.method = e.method;
  o.model = &a.model;
  o.engine.quant = e.quant;
  vf::api::Reconstructor rec(o);  // fresh: index and engine built per call
  return rec.reconstruct(a.cloud, a.truth.grid());
}

bool all_finite(const vf::field::ScalarField& f) {
  for (const double v : f.values()) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

/// The vfctl reconstruct path, file to file, with the default engine in
/// resilient mode. Returns the field it wrote; `clean` is false when the
/// reconstruction degraded.
vf::field::ScalarField file_to_file(const Archive& a, Tracer& tracer,
                                    bool& clean) {
  const auto path = tracer.scope("archive.file_to_file");
  vf::sampling::SampleCloud cloud;
  {
    const auto span = tracer.scope("field.read_vtp");
    cloud = vf::sampling::SampleCloud::load_vtp(a.vtp);
  }
  vf::field::ScalarField like;
  {
    const auto span = tracer.scope("field.read_vti");
    like = vf::field::read_vti(a.vti);
  }
  vf::api::ReconstructResult result;
  {
    const auto span = tracer.scope("api.reconstruct");
    vf::api::ReconstructOptions o;
    o.model_path = a.model_path;
    o.resilient = true;
    vf::api::Reconstructor rec(o);
    result = rec.reconstruct(cloud, like.grid());
  }
  result.field.set_name(like.name());
  {
    const auto span = tracer.scope("field.write_vti");
    vf::field::write_vti(result.field, a.out);
  }
  clean = result.report.clean();
  return std::move(result.field);
}

void check_outputs(const Archive& a, Report& report,
                   const vf::field::ScalarField& written, const double* snr) {
  report.check(snr[0] > snr[2],
               "archive: FCNN SNR exceeds Delaunay-linear SNR");
  report.check(std::abs(snr[1] - snr[0]) <= 0.5,
               "archive: fp16 SNR within 0.5 dB of fp64");
  // The file path reads the cloud back from VTP without its grid
  // association, so its field differs from the in-memory one (its SNR is
  // printed, not checked); it must still be exactly what was written.
  const auto back = vf::field::read_vti(a.out);
  bool same = back.size() == written.size();
  for (std::int64_t i = 0; same && i < back.size(); ++i) {
    same = std::abs(back[i] - written[i]) <=
           1e-12 * std::max(1.0, std::abs(written[i]));
  }
  report.check(same, "archive: written VTI reads back as the computed field");
  if (same) {
    report.info("file_to_file_snr_db", vf::field::snr_db(a.truth, back), "dB");
  }
}

}  // namespace

void run_archive_grid(const RunOptions& opts, Report& report,
                      Tracer& tracer) {
  std::unique_ptr<Archive> archive;
  timed_setups(opts, report, [&] {
    archive = std::make_unique<Archive>(make_archive(opts));
  });
  const Archive& a = *archive;
  const auto points = static_cast<double>(a.truth.size());

  // The first round's fields are scored (outside the timed calls); the
  // traced run scores them up front since it times no engine calls.
  double snr[4] = {};
  auto score = [&](int e, const vf::field::ScalarField& field) {
    report.check(field.size() == a.truth.size() && all_finite(field),
                 std::string("archive: ") + kEngines[e].name +
                     " field is complete and finite");
    snr[e] = vf::field::snr_db(a.truth, field);
  };
  if (opts.trace) {
    for (int e = 0; e < 4; ++e) {
      score(e, reconstruct_with(a, kEngines[e]).field);
    }
  }

  // Timed rounds. Each round runs the file-to-file path and the default
  // engine, whose times are gated; the first round also runs every other
  // engine and later rounds one of them in turn, since their times are
  // printed only. The traced run alternates untraced and traced
  // file-to-file passes to price the spans.
  std::vector<double> f2f_s;
  std::vector<double> f2f_traced_s;
  std::vector<double> engine_s[4];
  Tracer off(false);
  vf::field::ScalarField written;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  int rounds = 0;
  while (rounds < 2 || seconds_since(t0) < opts.seconds) {
    for (int pass = 0; pass < (opts.trace ? 2 : 1); ++pass) {
      const bool traced = pass == 1;
      const auto t = Clock::now();
      bool clean = false;
      written = file_to_file(a, traced ? tracer : off, clean);
      (traced ? f2f_traced_s : f2f_s).push_back(seconds_since(t));
      report.attempted(1);
      if (!clean) report.failed("archive: file-to-file degraded");
    }
    for (int e = 0; e < 4 && !opts.trace; ++e) {
      if (rounds > 0 && e > 0 && e != 1 + (rounds - 1) % 3) continue;
      const auto t = Clock::now();
      const auto r = reconstruct_with(a, kEngines[e]);
      engine_s[e].push_back(seconds_since(t));
      report.attempted(1);
      if (rounds == 0) {
        score(e, r.field);
      } else if (r.field.size() != a.truth.size()) {
        report.failed("archive: reconstruct returned a wrong-sized field");
      }
    }
    ++rounds;
  }
  const double cpu_per_wall = (process_cpu_s() - cpu0) / seconds_since(t0);
  check_outputs(a, report, written, snr);

  report.info("archive.rounds", rounds, "count");
  for (int r = 0; r < rounds && !opts.trace; ++r) {
    std::printf("round   %d  file_to_file %.3f s  fcnn %.3f s\n", r, f2f_s[r],
                engine_s[0][r]);
  }
  report.info("snr_db", snr[0], "dB");
  report.info("fp16_snr_db", snr[1], "dB");
  report.info("linear_snr_db", snr[2], "dB");
  report.info("natural_snr_db", snr[3], "dB");
  report.info("file_to_file_s", median(f2f_s), "s");
  report.info("proc.cpu_per_wall", cpu_per_wall, "ratio");

  if (!opts.trace) {
    std::vector<double> rates;
    const char* names[4] = {"fcnn_points_per_s", "fcnn_fp16_points_per_s",
                            "linear_points_per_s", "natural_points_per_s"};
    for (int e = 0; e < 4; ++e) {
      rates.push_back(points / median(engine_s[e]));
      report.info(names[e], rates.back(), "points/s");
    }
    report.e2e("p50_ms", 1e3 * median(f2f_s), "ms");
    report.e2e("points_per_s", rates[0], "points/s");
    report.e2e("snr_db", snr[0], "dB");
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }

  // ---- traced run: path breakdown, then the layer probes.
  const auto n_paths =
      static_cast<double>(tracer.count("archive.file_to_file"));
  report_path_breakdown(tracer, report, "archive.file_to_file", n_paths);
  report.layer("trace.overhead_ratio", median(f2f_traced_s) / median(f2f_s),
               "ratio");
  report.layer("proc.cpu_per_wall", cpu_per_wall, "ratio");
  report.layer("field.read_vtp_s", tracer.total_s("field.read_vtp") / n_paths,
               "s");
  report.layer("field.read_vti_s", tracer.total_s("field.read_vti") / n_paths,
               "s");
  const double write_s = tracer.total_s("field.write_vti") / n_paths;
  report.layer("field.write_vti_s", write_s, "s");
  report.layer("field.write_mb_per_s",
               static_cast<double>(fs::file_size(a.out)) / 1e6 / write_s,
               "MB/s");

  {
    const auto probe = tracer.scope("probe.classical");
    std::size_t nonfinite = 0;
    std::size_t duplicates = 0;
    const auto scrubbed = a.cloud.scrubbed(nonfinite, duplicates);
    auto t = Clock::now();
    {
      const auto span = tracer.scope("geometry.delaunay_build");
      const vf::geometry::Delaunay3 mesh(scrubbed.points());
      report.info("geometry.tetrahedra", static_cast<double>(
                                             mesh.tetrahedron_count()),
                  "count");
    }
    const double build_s = seconds_since(t);
    t = Clock::now();
    {
      const auto span = tracer.scope("interp.linear");
      (void)vf::interp::LinearDelaunayReconstructor().reconstruct(
          a.cloud, a.truth.grid());
    }
    const double linear_s = seconds_since(t);
    t = Clock::now();
    {
      const auto span = tracer.scope("interp.natural");
      (void)vf::interp::NaturalNeighborReconstructor().reconstruct(
          a.cloud, a.truth.grid());
    }
    report.layer("interp.natural_s", seconds_since(t), "s");
    report.layer("geometry.delaunay_build_s", build_s, "s");
    // The linear interpolant builds its own triangulation; its query time
    // is the remainder.
    report.layer("interp.linear_query_s", std::max(0.0, linear_s - build_s),
                 "s");
  }

  std::vector<vf::field::Vec3> voids;
  for (const auto i : a.cloud.void_indices()) {
    voids.push_back(a.truth.grid().position(i));
  }
  probe_query_path(tracer, report, a.cloud, voids, a.model, 65536);
  probe_nn_table(tracer, report, a.model);
  probe_model_load(tracer, report, a.model_path);
}

}  // namespace pb
