#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "constraint/vocab.hpp"
#include "ir/ir.hpp"
#include "region/world.hpp"
#include "support/check.hpp"
#include "support/serialize.hpp"

namespace dpart::service {

/// Wire protocol of the plan service (docs/service.md).
///
/// Every message travels as one "DPMG" CRC-framed message (support/framing,
/// the layer shared with the multi-process backend) on an AF_UNIX or
/// loopback TCP stream socket. The service owns the type range [32, 37];
/// the backend owns [1, 7] — the ranges are disjoint so a frame from the
/// wrong protocol is rejected at the frame layer, before any payload
/// decoding.
///
/// A parallelize request carries the tenant id, the compiler knobs, the
/// serialized loop IR and the region/function *shapes* of the requester's
/// World. Shapes suffice: the constraint pipeline is symbolic — it consults
/// region sizes, field types and function domains/codomains, never field
/// values or function semantics — so Compute closures and affine-function
/// bodies do not travel, and the server compiles against a placeholder
/// materialization. The response is the plan: the synthesized DPL program,
/// per-loop partition assignments, compile stats and the canonical cache
/// key. Failures travel as (ErrorCode, what) pairs and are rethrown as the
/// matching dpart::Error taxonomy subclass client-side.

enum class MsgType : std::uint8_t {
  Request = 32,       ///< client -> server: PlanRequest
  Response = 33,      ///< server -> client: PlanResponse
  ErrorReply = 34,    ///< server -> client: (ErrorCode, what)
  StatsRequest = 35,  ///< client -> server: tenant name ("" = service rollup)
  StatsReply = 36,    ///< server -> client: MetricsRegistry snapshot JSON
  Shutdown = 37,      ///< client -> server: stop serving and exit
};

[[nodiscard]] const char* toString(MsgType t);

/// The server's admission queue was full when the connection arrived. The
/// request was not admitted; retrying after a backoff is safe.
class Overloaded : public Error {
 public:
  explicit Overloaded(const std::string& what) : Error(what) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::Overloaded;
  }
};

/// Rethrows a decoded (code, what) pair as the matching taxonomy subclass,
/// covering the service-level codes before delegating the support-level
/// ones to throwErrorCode.
[[noreturn]] void throwServiceError(ErrorCode code, const std::string& what);

/// Shape of one field: enough to re-create it server-side, no values.
struct FieldShape {
  std::string name;
  region::FieldType type = region::FieldType::F64;
};

/// Shape of one region: name, index-space size, field shapes.
struct RegionShape {
  std::string name;
  region::Index size = 0;
  std::vector<FieldShape> fields;
};

/// Shape of one index function: the symbolic metadata the constraint
/// pipeline consults. Affine evaluators do not travel — the server
/// registers a placeholder body under the same id.
struct FnShape {
  std::string id;
  region::FnKind kind = region::FnKind::Affine;
  std::string domainRegion;
  std::string rangeRegion;
  std::string field;  ///< FieldPtr / FieldRange only
};

/// The requester's World, reduced to what compilation needs.
struct WorldShape {
  std::vector<RegionShape> regions;
  std::vector<FnShape> fns;

  /// Captures the shape of an existing World (regions, fields, fns).
  [[nodiscard]] static WorldShape describe(const region::World& world);

  /// Builds a compile-only World from the shape. Affine fns get identity
  /// placeholder bodies (legal: the solver never evaluates them). Throws
  /// BadRequest on an inconsistent shape or any region larger than
  /// `maxElements` (a hostile size would otherwise drive the field-column
  /// allocation).
  [[nodiscard]] region::World materialize(region::Index maxElements) const;
};

/// One parallelize request.
struct PlanRequest {
  std::string tenant;        ///< metrics namespace; "" lands in "anonymous"
  std::uint64_t pieces = 0;  ///< target piece count (must be > 0)
  /// Compiler knobs (parallelize::Options without the cache pointer).
  bool enableRelaxation = true;
  bool enableDisjointReduction = true;
  bool enablePrivateSubPartitions = true;
  bool enableUnification = true;
  WorldShape world;
  ir::Program program;  ///< Compute closures are dropped in transit
  /// External-constraint vocabulary (capacity / co-location / anti-affinity
  /// / replication), enforced by the propagation solver. A provably
  /// unsatisfiable set fails with ErrorCode::Infeasible — the request was
  /// well-formed (not BadRequest); the partitioning problem it poses has no
  /// solution.
  constraint::Vocabulary vocab;
};

/// Per-loop slice of the response.
struct LoopPlanInfo {
  std::string name;
  std::string iterPartition;
  bool relaxed = false;
};

/// One successful parallelize response.
struct PlanResponse {
  std::uint64_t cacheKey = 0;  ///< canonical constraint-graph hash
  bool cacheHit = false;       ///< served from the cross-tenant plan cache
  double inferMs = 0;
  double canonMs = 0;
  double unifyMs = 0;
  double solveMs = 0;
  double rewriteMs = 0;
  int parallelLoops = 0;
  double serverMs = 0;  ///< server-side wall time, admission to response
  std::string dpl;      ///< synthesized DPL partitioning program
  std::vector<LoopPlanInfo> loops;
  std::vector<std::string> externalSymbols;
  /// Propagation-engine counters (compile.propagate.* gauges; all zero on a
  /// cache hit or for unconstrained compiles solved without search).
  std::uint64_t propagations = 0;
  std::uint64_t prunes = 0;
  std::uint64_t branches = 0;
  std::uint64_t backtracks = 0;
  std::uint64_t restarts = 0;
};

/// Error payload: the taxonomy crossing the wire.
struct ErrorReplyMsg {
  ErrorCode code = ErrorCode::Internal;
  std::string what;
};

[[nodiscard]] std::vector<std::uint8_t> encodeRequest(const PlanRequest& m);
/// Throws BadRequest on any malformed payload (truncation, trailing bytes,
/// unknown enum values, counts the payload cannot hold).
[[nodiscard]] PlanRequest decodeRequest(BinaryReader& r);

[[nodiscard]] std::vector<std::uint8_t> encodeResponse(const PlanResponse& m);
[[nodiscard]] PlanResponse decodeResponse(BinaryReader& r);

[[nodiscard]] std::vector<std::uint8_t> encodeError(const ErrorReplyMsg& m);
[[nodiscard]] ErrorReplyMsg decodeError(BinaryReader& r);

/// StatsRequest payload is the tenant name; StatsReply payload is a JSON
/// document (MetricsRegistry snapshot), both as one string.
[[nodiscard]] std::vector<std::uint8_t> encodeString(const std::string& s);
[[nodiscard]] std::string decodeString(BinaryReader& r);

}  // namespace dpart::service
