#pragma once
// Per-layer probes for traced runs: each one calls a layer's public
// functions directly from the harness, inside harness spans, on the
// workload's own data, and turns the span times into per-layer metrics.

#include <string>
#include <vector>

#include "harness.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/sampling/sample_cloud.hpp"

namespace pb {

/// The paper-architecture training budget every workload's model uses.
/// The training seed stays fixed; the workload seed varies the data.
[[nodiscard]] vf::core::FcnnConfig paper_config();

/// Single-core peak double-precision FMA rate, measured now.
[[nodiscard]] double peak_fma_gflops();

/// The dense-layer table: each of the model's dense layers through
/// nn::fused_dense_forward (fp64) and a one-layer fp16 QuantizedNetwork at
/// the streaming engine's tile shape, on one core, against
/// peak_fma_gflops(). FLOP per byte is computed from the shapes.
void probe_nn_table(Tracer& tracer, Report& report,
                    const vf::core::FcnnModel& model);

/// Neighbour index build, k-NN, feature assembly, and inference at fp64
/// and fp16 over `queries` against `cloud` (capped at `max_rows`), plus
/// api::predict_points over 512-point batches with one scratch.
void probe_query_path(Tracer& tracer, Report& report,
                      const vf::sampling::SampleCloud& cloud,
                      const std::vector<vf::field::Vec3>& queries,
                      const vf::core::FcnnModel& model, std::size_t max_rows);

/// core.model_load_s: median FcnnModel::load of `path`.
void probe_model_load(Tracer& tracer, Report& report, const std::string& path);

/// The breakdown of a traced path: `<layer>.self_s` for every layer with a
/// span under the spans called `path`, and `unattributed_s`, the path's
/// wall that no child span covers; each divided by `paths`, the number of
/// paths traced (file-to-file passes, served requests, replayed steps).
/// Probe spans are not under a path, so they never count.
void report_path_breakdown(const Tracer& tracer, Report& report,
                           const std::string& path, double paths);

}  // namespace pb
