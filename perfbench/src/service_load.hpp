// The plan-service workload: an in-process PlanServer on loopback fed by an
// open-loop generator through at most four client connections, with a
// seeded mix of exact repeats (L1 memo hits), renamed isomorphic programs
// (L2 SolveCache hits) and novel programs (misses).
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "common.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "support/trace.hpp"

namespace perfbench {

/// Client connections of the generator.
inline constexpr std::size_t kServiceClients = 4;

/// The fixed arrival rate, requests per second: about half the ~840/s this
/// mix sustained on a 4-core box when offered 2000/s (see BENCHMARK.json).
inline constexpr double kServiceRate = 400.0;

enum class RequestKind { Exact, Renamed, Novel };

/// What one request saw. Times in ms, measured from when it was due.
struct RequestRecord {
  RequestKind kind = RequestKind::Exact;
  std::size_t request = 0;     ///< which program was sent
  bool ok = false;             ///< a response arrived
  std::string error;           ///< why not, when !ok
  double latencyMs = 0;        ///< due -> response (inf when !ok)
  double clientWaitMs = 0;     ///< due -> a connection was free
  double genLateMs = 0;        ///< free connection (or due) -> sent
  double roundTripMs = 0;      ///< sent -> response
  dpart::service::PlanResponse response;
};

class ServiceLoad {
 public:
  /// Generates the seeded request schedule for `seconds` at `rate`.
  ServiceLoad(std::uint64_t seed, double seconds, double rate);
  ~ServiceLoad();
  ServiceLoad(const ServiceLoad&) = delete;
  ServiceLoad& operator=(const ServiceLoad&) = delete;

  /// Starts a fresh server (default 4 workers) on loopback TCP and sends
  /// every warm-up program once, filling both cache levels.
  void setUp();

  /// Plays the schedule open-loop; returns one record per request. Each
  /// client call is recorded as a "service.request" span when `tracer` is
  /// enabled.
  [[nodiscard]] std::vector<RequestRecord> play(dpart::Tracer* tracer);

  /// Output oracle: each response's DPL equals a direct compile of the same
  /// program, and cacheHit agrees with the request kind.
  void verify(const std::vector<RequestRecord>& records, Report& report);

  /// Stops the server and joins its threads.
  void tearDown();

 private:
  struct Request {
    RequestKind kind;
    std::size_t program;  ///< index into programs_
    double dueMs;         ///< offset from the start of play()
  };
  double rate_;
  std::vector<dpart::service::PlanRequest> programs_;
  std::size_t warmCount_ = 0;
  std::vector<Request> schedule_;
  std::unique_ptr<dpart::service::PlanServer> server_;
};

/// Prints, per request kind, the count and the server-time and latency
/// percentiles on stderr.
void printKinds(const std::vector<RequestRecord>& records);

/// Due-to-response latency of every request; a failed one counts as inf,
/// missing every limit.
[[nodiscard]] std::vector<double> latencies(
    const std::vector<RequestRecord>& records);

}  // namespace perfbench
