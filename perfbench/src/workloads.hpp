// The benchmark's workloads. Each fills `report` with its end-to-end
// metrics (untraced run) or its per-layer metrics (runTraced).
#pragma once

#include <functional>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// Cold five-program compile + partition materialization, closed loop.
void runCompile(const Options& opts, Report& report);
/// One in-process Session::run() of all five apps per sample, closed loop.
void runTimestep(const Options& opts, Report& report);
/// Multi-process, checkpoint-after-every-launch steps of SpMV + PENNANT.
void runDurable(const Options& opts, Report& report);
/// Open-loop plan-service traffic over at most four client connections.
void runService(const Options& opts, Report& report);
/// The traced run of `opts.workload`: per-layer metrics and a Chrome trace.
void runTraced(const Options& opts, Report& report);

/// Set-up repeats per run: at least this many, and until this much time
/// has passed; setup_s reports their median.
inline constexpr std::size_t kMinSetupRepeats = 3;
inline constexpr double kMinSetupSeconds = 1.0;

/// Runs `setup` repeatedly (each call replaces the previous state) and
/// reports setup_s as the median wall time.
void timedSetup(Report& report, const std::function<void()>& setup);

/// Samples per timing the closed loops aim for: they run past `seconds`
/// (up to kMaxSecondsFactor times it) until they have this many.
inline constexpr std::size_t kMinSamples = 100;
inline constexpr double kMaxSecondsFactor = 1.5;

/// Calls `sample` (which returns one timing in ms) until `seconds` have
/// passed and kMinSamples were taken (see above), at least once; returns
/// the timings.
[[nodiscard]] std::vector<double> closedLoop(
    double seconds, const std::function<double()>& sample);

/// Reports the end-to-end cost of the timed operations: op_cpu_ms, the CPU
/// time (`cpuMs`, all threads and worker processes) per operation. The wall
/// time percentiles and the sample count go to stderr under the workload's
/// own name (suite_ms_p50, step_ms_p90, ...).
void reportOp(Report& report, const char* what,
              const std::vector<double>& samplesMs, double cpuMs);

}  // namespace perfbench
