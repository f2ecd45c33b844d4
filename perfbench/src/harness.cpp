#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <unordered_map>

#include "vf/obs/metrics.hpp"

namespace pb {

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double tail_quantile_for(std::size_t samples) {
  double best = 0.5;
  for (const double q : {0.9, 0.99, 0.999}) {
    if (static_cast<double>(samples) * (1.0 - q) >= 10.0) best = q;
  }
  return best;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double process_cpu_s() { return vf::obs::process_cpu_seconds(); }

// ---------------------------------------------------------------- Report

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_[name] = {value, unit};
}

void Report::layer(const std::string& name, double value,
                   const std::string& unit) {
  layer_[name] = {value, unit};
}

void Report::info(const std::string& name, double value,
                  const std::string& unit) {
  info_.emplace_back(name, Metric{value, unit});
}

void Report::failed(const std::string& why, std::uint64_t n) {
  failed_ += n;
  failures_[why] += n;
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  checks_.push_back(std::string(ok ? "pass  " : "FAIL  ") + what);
  if (!ok) failed(what);
}

namespace {

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Report::print(bool trace) const {
  for (const auto& c : checks_) std::printf("check   %s\n", c.c_str());
  for (const auto& [why, n] : failures_) {
    std::printf("failed  %-40s %llu\n", why.c_str(),
                static_cast<unsigned long long>(n));
  }
  for (const auto& [name, m] : info_) {
    std::printf("info    %-34s %14.6g %s\n", name.c_str(), m.value,
                m.unit.c_str());
  }
  const auto& shown = trace ? layer_ : e2e_;
  for (const auto& [name, m] : shown) {
    std::printf("%-7s %-34s %14.6g %s\n", trace ? "layer" : "metric",
                name.c_str(), m.value, m.unit.c_str());
  }
  const double ratio =
      attempted_ > 0 ? static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 0.0;
  std::printf("info    %-34s %14.6g %s\n", "fail_ratio", ratio, "ratio");

  std::string json = "{\"correct\": ";
  json += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : shown) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// ---------------------------------------------------------------- Tracer

namespace {

/// Open scopes of the calling thread, innermost last.
thread_local std::vector<std::uint64_t> t_open_scopes;

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint64_t Tracer::next_id() {
  const vf::util::MutexLock lock(mu_);
  return ++next_id_;
}

void Tracer::push(Span span) {
  const vf::util::MutexLock lock(mu_);
  spans_.push_back(std::move(span));
}

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t parent)
    : tracer_(tracer), name_(name) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = parent != 0             ? parent
            : t_open_scopes.empty() ? 0
                                    : t_open_scopes.back();
  t_open_scopes.push_back(id_);
  start_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const auto end = Clock::now();
  t_open_scopes.pop_back();
  tracer_->push({name_, seconds_between(tracer_->epoch_, start_),
                 seconds_between(tracer_->epoch_, end), id_, parent_, 0});
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t parent,
                    std::uint64_t request) {
  if (!enabled_) return;
  push({name, seconds_between(epoch_, start), seconds_between(epoch_, end),
        next_id(), parent, request});
}

std::vector<Tracer::Span> Tracer::snapshot() const {
  const vf::util::MutexLock lock(mu_);
  return spans_;
}

double Tracer::total_s(const std::string& name) const {
  double total = 0.0;
  for (const auto& s : snapshot()) {
    if (s.name == name) total += s.end - s.start;
  }
  return total;
}

std::size_t Tracer::count(const std::string& name) const {
  std::size_t n = 0;
  for (const auto& s : snapshot()) n += s.name == name ? 1 : 0;
  return n;
}

namespace {

using Children =
    std::unordered_map<std::uint64_t, std::vector<const Tracer::Span*>>;

Children index_children(const std::vector<Tracer::Span>& spans) {
  Children children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  return children;
}

/// Length of the union of `parent`'s children's intervals, clipped to it.
double covered(const Tracer::Span& parent, const Children& children) {
  const auto it = children.find(parent.id);
  if (it == children.end()) return 0.0;
  std::vector<std::pair<double, double>> iv;
  for (const auto* c : it->second) {
    const double a = std::max(c->start, parent.start);
    const double b = std::min(c->end, parent.end);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = -1.0;
  for (const auto& [a, b] : iv) {
    if (a > cur_b) {
      if (cur_b > cur_a) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (cur_b > cur_a) total += cur_b - cur_a;
  return total;
}

}  // namespace

std::map<std::string, double> Tracer::layer_self_s(
    const std::string& path) const {
  const auto spans = snapshot();
  const auto children = index_children(spans);
  std::unordered_map<std::uint64_t, const Span*> by_id;
  for (const auto& s : spans) by_id[s.id] = &s;
  const auto under_path = [&](const Span& s) {
    for (auto parent = s.parent; parent != 0;) {
      const auto it = by_id.find(parent);
      if (it == by_id.end()) return false;
      if (it->second->name == path) return true;
      parent = it->second->parent;
    }
    return false;
  };
  std::map<std::string, double> self;
  for (const auto& s : spans) {
    if (!under_path(s)) continue;
    self[s.name.substr(0, s.name.find('.'))] +=
        (s.end - s.start) - covered(s, children);
  }
  return self;
}

double Tracer::unattributed_s(const std::string& name) const {
  const auto spans = snapshot();
  const auto children = index_children(spans);
  double total = 0.0;
  for (const auto& s : spans) {
    if (s.name == name) total += (s.end - s.start) - covered(s, children);
  }
  return total;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  for (const auto& s : snapshot()) {
    out << "{\"name\": \"" << s.name << "\", \"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"request\": " << s.request
        << ", \"start_s\": " << json_number(s.start)
        << ", \"end_s\": " << json_number(s.end) << "}\n";
  }
}

}  // namespace pb
