// Shared plumbing of the end-to-end benchmark: command-line options, the
// result report every workload fills, sample statistics, process memory,
// and World comparisons used by the output oracles.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "region/world.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double msBetween(Clock::time_point a,
                                      Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double msSince(Clock::time_point a) {
  return msBetween(a, Clock::now());
}

/// Pieces and executor threads of every workload (the box has 4 cores).
inline constexpr std::size_t kPieces = 4;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (checkpoints, sockets).
  std::string workDir = ".bench_build/work";
  /// Chrome trace file written by a traced run.
  std::string traceOut;
};

/// Everything a run reports: operation tallies, named metrics with units,
/// and the reasons of failed operations (printed to stderr).
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  void attempt(std::size_t n = 1) { attempted_ += n; }
  /// Marks one attempted operation as failed and remembers why.
  void fail(const std::string& why);

  [[nodiscard]] std::size_t attempted() const { return attempted_; }
  [[nodiscard]] std::size_t failed() const { return failures_.size(); }
  [[nodiscard]] const std::vector<std::string>& failures() const {
    return failures_;
  }

  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

  /// The one-line JSON result: correct / attempted / failed / metrics.
  [[nodiscard]] std::string json() const;

 private:
  std::size_t attempted_ = 0;
  std::vector<std::string> failures_;
  std::vector<Metric> metrics_;
};

/// Linear-interpolated quantile (q in [0, 1]) of the samples; 0 when empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(const std::vector<double>& s) {
  return quantile(s, 0.5);
}

/// Peak resident set (VmHWM) of a process in MiB; 0 when unreadable.
[[nodiscard]] double peakRssMb(pid_t pid);

/// Private pages (Private_Clean + Private_Dirty of smaps_rollup) of a
/// process in MiB: the pages no other process maps. 0 when unreadable.
[[nodiscard]] double privateMb(pid_t pid);

/// CPU time (user + system, all threads) this process has used, in ms.
[[nodiscard]] double selfCpuMs();

/// CPU time (user + system) another process has used, in ms (clock-tick
/// resolution); 0 when unreadable.
[[nodiscard]] double processCpuMs(pid_t pid);

/// Creates `dir` (and parents) empty: removes whatever was there.
void freshDir(const std::string& dir);

/// First difference between two Worlds' field columns as text, or "" when
/// they match. `relTol` < 0 compares bit for bit; otherwise F64 columns
/// match within relTol * (1 + |want|) (the apps_test tolerance) and the
/// other column kinds must be equal.
[[nodiscard]] std::string worldDiff(const dpart::region::World& want,
                                    const dpart::region::World& got,
                                    double relTol);

/// Total elements of every field column, times 8 bytes — the computed
/// working set of a World.
[[nodiscard]] double worldBytes(const dpart::region::World& world);

}  // namespace perfbench
