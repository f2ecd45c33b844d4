#include "vf/api/reconstruct.hpp"

#include <stdexcept>
#include <utility>

#include "vf/obs/obs.hpp"
#include "vf/util/timer.hpp"

namespace vf::api {

using vf::core::FcnnModel;
using vf::field::ScalarField;
using vf::field::UniformGrid3;
using vf::field::Vec3;
using vf::sampling::SampleCloud;

const char* to_string(Method m) {
  switch (m) {
    case Method::Auto: return "auto";
    case Method::Fcnn: return "fcnn";
    case Method::FcnnStream: return "fcnn_stream";
    case Method::Nearest: return "nearest";
    case Method::Shepard: return "shepard";
    case Method::Linear: return "linear";
    case Method::Natural: return "natural";
    case Method::Rbf: return "rbf";
    case Method::Kriging: return "kriging";
  }
  return "unknown";
}

Method method_from_name(const std::string& name) {
  for (Method m : {Method::Auto, Method::Fcnn, Method::FcnnStream,
                   Method::Nearest, Method::Shepard, Method::Linear,
                   Method::Natural, Method::Rbf, Method::Kriging}) {
    if (name == to_string(m)) return m;
  }
  throw std::invalid_argument("vf::api: unknown method '" + name + "'");
}

namespace {

vf::interp::Method interp_method(Method m) {
  switch (m) {
    case Method::Nearest: return vf::interp::Method::Nearest;
    case Method::Shepard: return vf::interp::Method::Shepard;
    case Method::Linear: return vf::interp::Method::Linear;
    case Method::Natural: return vf::interp::Method::Natural;
    case Method::Rbf: return vf::interp::Method::Rbf;
    case Method::Kriging: return vf::interp::Method::Kriging;
    default:
      throw std::logic_error("vf::api: not a classical method");
  }
}

bool is_fcnn(Method m) {
  return m == Method::Fcnn || m == Method::FcnnStream;
}

}  // namespace

struct Reconstructor::Impl {
  /// The resolved model (loaded from disk, or cloned from the borrowed
  /// pointer so the cache can't dangle), compiled for engine.quant.
  std::shared_ptr<const vf::core::CompiledModel> model;
  std::unique_ptr<vf::core::FcnnReconstructor> engine;
  std::unique_ptr<vf::interp::Reconstructor> classical;
  vf::interp::Method classical_method{};
  /// The last bound cloud, shared by grid and point mode.
  std::shared_ptr<const vf::core::BoundCloud> bound;
  PointScratch scratch;
};

Reconstructor::Reconstructor(ReconstructOptions options)
    : options_(std::move(options)), impl_(std::make_unique<Impl>()) {}

Reconstructor::~Reconstructor() = default;
Reconstructor::Reconstructor(Reconstructor&&) noexcept = default;
Reconstructor& Reconstructor::operator=(Reconstructor&&) noexcept = default;

const std::shared_ptr<const vf::core::CompiledModel>&
Reconstructor::compiled() {
  if (!impl_->model) {
    FcnnModel m;
    if (options_.model != nullptr) {
      m = options_.model->clone();
    } else if (!options_.model_path.empty()) {
      m = FcnnModel::load(options_.model_path);
    } else {
      throw std::invalid_argument(
          "vf::api::Reconstructor: FCNN method needs a model or model_path");
    }
    impl_->model = std::make_shared<const vf::core::CompiledModel>(
        std::move(m), options_.engine.quant);
  }
  return impl_->model;
}

const FcnnModel& Reconstructor::model() { return compiled()->model(); }

namespace {

/// Resolve Auto against the configured model source.
Method resolve(const ReconstructOptions& o) {
  if (o.method != Method::Auto) return o.method;
  return (o.model != nullptr || !o.model_path.empty()) ? Method::FcnnStream
                                                       : Method::Shepard;
}

}  // namespace

ReconstructResult Reconstructor::reconstruct(const SampleCloud& cloud,
                                             const UniformGrid3& grid) {
  VF_OBS_SPAN("api/reconstruct");
  vf::util::Timer timer;  // vf-lint: allow(raw-timer) feeds ReconstructStats
  ReconstructResult result;
  const Method method = resolve(options_);

  if (options_.resilient) {
    if (options_.model_path.empty()) {
      throw std::invalid_argument(
          "vf::api::Reconstructor: resilient mode needs model_path");
    }
    result.field = vf::core::reconstruct_resilient(
        options_.model_path, cloud, grid, result.report, options_.fallback,
        options_.engine);
    result.stats.method = "resilient";
  } else if (is_fcnn(method)) {
    if (!impl_->engine) {
      impl_->engine = std::make_unique<vf::core::FcnnReconstructor>(
          compiled(), options_.engine);
    }
    impl_->bound = vf::core::BoundCloud::rebind(
        impl_->bound, cloud, options_.engine.index,
        static_cast<std::size_t>(grid.point_count()));
    result.field = impl_->engine->reconstruct(*impl_->bound, grid,
                                              result.report);
    result.stats.method = to_string(method);
  } else {
    const auto im = interp_method(method);
    if (!impl_->classical || impl_->classical_method != im) {
      impl_->classical = vf::interp::make_interpolator(im);
      impl_->classical_method = im;
    }
    result.field = impl_->classical->reconstruct(cloud, grid);
    result.report.input_points = cloud.size();
    result.report.predicted_points =
        static_cast<std::size_t>(grid.point_count());
    result.stats.method = to_string(method);
  }

  result.stats.points = static_cast<std::size_t>(grid.point_count());
  result.stats.seconds = timer.seconds();
  return result;
}

ReconstructResult Reconstructor::reconstruct_points(
    const SampleCloud& cloud, const std::vector<Vec3>& points) {
  VF_OBS_SPAN("api/reconstruct_points");
  vf::util::Timer timer;  // vf-lint: allow(raw-timer) feeds ReconstructStats
  const Method method = resolve(options_);
  if (!is_fcnn(method) && method != Method::Shepard &&
      method != Method::Nearest) {
    throw std::invalid_argument(
        std::string("vf::api: point queries support fcnn/fcnn_stream/"
                    "shepard/nearest, not ") +
        to_string(method));
  }

  // Auto resolves the index kind against this call's query count and
  // rebinds only when the selection flips.
  impl_->bound = vf::core::BoundCloud::rebind(
      impl_->bound, cloud, options_.engine.index, points.size());
  const auto& bound = *impl_->bound;
  ReconstructResult result;
  result.report.input_points = cloud.size();
  result.report.scrubbed_nonfinite = bound.scrubbed_nonfinite();
  result.report.scrubbed_duplicates = bound.scrubbed_duplicates();

  result.values.resize(points.size());
  if (is_fcnn(method)) {
    const std::size_t degraded =
        predict_points(*compiled(), bound, points.data(), points.size(),
                       result.values.data(), impl_->scratch);
    result.report.predicted_points = points.size() - degraded;
    result.report.degraded_points = degraded;
    if (degraded > 0) {
      result.report.fallback = vf::core::FallbackReason::NonFiniteOutput;
      result.report.detail = "network produced non-finite outputs";
    }
  } else {
    const int k = method == Method::Nearest ? 1 : vf::core::kNeighbors;
    for (std::size_t i = 0; i < points.size(); ++i) {
      result.values[i] = vf::core::shepard_estimate(
          bound.index(), bound.values(), points[i], k);
    }
    result.report.predicted_points = points.size();
  }

  result.stats.method = to_string(method);
  result.stats.points = points.size();
  result.stats.seconds = timer.seconds();
  return result;
}

ReconstructResult reconstruct(const ReconstructRequest& request) {
  if (request.cloud == nullptr) {
    throw std::invalid_argument("vf::api::reconstruct: cloud is required");
  }
  const bool has_grid = request.grid != nullptr;
  const bool has_points = request.points != nullptr;
  if (has_grid == has_points) {
    throw std::invalid_argument(
        "vf::api::reconstruct: set exactly one of grid / points");
  }
  Reconstructor rec(request.options);
  return has_grid ? rec.reconstruct(*request.cloud, *request.grid)
                  : rec.reconstruct_points(*request.cloud, *request.points);
}

}  // namespace vf::api
