#pragma once
// The four workloads. Each runs its set-up several times (set-up time is
// the median), measures for RunOptions::seconds, checks the program's
// outputs, and fills the report: end-to-end metrics on an untraced run,
// per-layer metrics on a traced one.

#include <functional>

#include "harness.hpp"

namespace pb {

void run_archive_grid(const RunOptions& opts, Report& report, Tracer& tracer);
void run_serve_live(const RunOptions& opts, Report& report, Tracer& tracer);
void run_serve_timesteps(const RunOptions& opts, Report& report,
                         Tracer& tracer);
void run_insitu_stream(const RunOptions& opts, Report& report, Tracer& tracer);

/// Set-up repetitions per untraced run; setup_s is their median.
inline constexpr int kSetupRepeats = 3;

/// Run `setup` kSetupRepeats times (once when traced) and report the
/// median wall as setup_s. `setup` must leave the workload's state ready.
void timed_setups(const RunOptions& opts, Report& report,
                  const std::function<void()>& setup);

}  // namespace pb
