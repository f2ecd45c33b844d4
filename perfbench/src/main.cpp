// vf_perfbench — the repository benchmark harness.
//
//   vf_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                --workdir DIR [--trace-out FILE]
//
// Workloads: archive_grid, serve_live, serve_timesteps, insitu_stream.
// Prints human-readable lines, then one JSON object as the last line:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). Exits 1 when
// any correctness check or operation failed.

#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "harness.hpp"
#include "probes.hpp"
#include "vf/obs/metrics.hpp"
#include "vf/util/cli.hpp"
#include "workloads.hpp"

namespace pb {

void timed_setups(const RunOptions& opts, Report& report,
                  const std::function<void()>& setup) {
  std::vector<double> times;
  const int repeats = opts.trace ? 1 : kSetupRepeats;
  for (int i = 0; i < repeats; ++i) {
    const auto t0 = Clock::now();
    setup();
    times.push_back(seconds_since(t0));
  }
  report.e2e("setup_s", median(times), "s");
}

}  // namespace pb

int main(int argc, char** argv) {
  const vf::util::Cli cli(argc, argv);
  pb::RunOptions opts;
  opts.workload = cli.get("workload", "");
  opts.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  opts.seconds = cli.get_double("seconds", 10.0);
  opts.trace = cli.get_int("trace", 0) != 0;
  opts.workdir = cli.get("workdir", "");
  const std::string trace_out = cli.get("trace-out", "");

  const std::map<std::string,
                 void (*)(const pb::RunOptions&, pb::Report&, pb::Tracer&)>
      workloads = {{"archive_grid", pb::run_archive_grid},
                   {"serve_live", pb::run_serve_live},
                   {"serve_timesteps", pb::run_serve_timesteps},
                   {"insitu_stream", pb::run_insitu_stream}};
  const auto it = workloads.find(opts.workload);
  if (it == workloads.end() || opts.workdir.empty() || opts.seconds <= 0.0) {
    std::fprintf(stderr,
                 "usage: vf_perfbench --workload "
                 "archive_grid|serve_live|serve_timesteps|insitu_stream "
                 "--seed N --seconds S --trace 0|1 --workdir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(opts.workdir);

  // End-to-end numbers are taken with the in-program observability layer
  // off; the traced run uses the harness's own spans instead.
  vf::obs::set_enabled(false);

  pb::Report report;
  pb::Tracer tracer(opts.trace);
  try {
    it->second(opts, report, tracer);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vf_perfbench: %s: %s\n", opts.workload.c_str(),
                 e.what());
    report.attempted(1);
    report.failed(std::string("exception: ") + e.what());
  }

  if (opts.trace) {
    if (!trace_out.empty()) tracer.write(trace_out);
  }
  report.print(opts.trace);
  return report.failures() == 0 && report.attempts() > 0 ? 0 : 1;
}
