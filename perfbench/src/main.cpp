// perfbench: the end-to-end benchmark of the dpart pipeline.
//
//   perfbench --workload <compile|timestep|durable|service> --seed <n>
//             --seconds <s> --trace <0|1> [--work-dir <dir>]
//             [--trace-out <file>]
//
// Prints human-readable detail on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones (setup_s, peak_rss_mb,
// op_cpu_ms); with --trace 1 they are the per-layer ones of the traced run,
// whose spans are written to --trace-out as Chrome trace JSON.
// Exits 1 when any operation failed its output oracle, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <compile|timestep|durable|service> "
               "--seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>] "
               "[--trace-out <file>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* value = argv[++i];
    if (arg == "--workload") {
      opts.workload = value;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value, nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value, nullptr);
    } else if (arg == "--trace") {
      opts.trace = std::strcmp(value, "0") != 0;
    } else if (arg == "--work-dir") {
      opts.workDir = value;
    } else if (arg == "--trace-out") {
      opts.traceOut = value;
    } else {
      return usage(argv[0]);
    }
  }
  if (opts.seconds <= 0) return usage(argv[0]);
  if (opts.traceOut.empty()) {
    opts.traceOut = opts.workDir + "/" + opts.workload + ".trace.json";
  }

  perfbench::Report report;
  try {
    if (opts.trace) {
      if (opts.workload != "compile" && opts.workload != "timestep" &&
          opts.workload != "durable" && opts.workload != "service") {
        return usage(argv[0]);
      }
      perfbench::runTraced(opts, report);
    } else if (opts.workload == "compile") {
      perfbench::runCompile(opts, report);
    } else if (opts.workload == "timestep") {
      perfbench::runTimestep(opts, report);
    } else if (opts.workload == "durable") {
      perfbench::runDurable(opts, report);
    } else if (opts.workload == "service") {
      perfbench::runService(opts, report);
    } else {
      return usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  for (const std::string& why : report.failures()) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
  }
  std::printf("%s\n", report.json().c_str());
  return report.failed() == 0 ? 0 : 1;
}
