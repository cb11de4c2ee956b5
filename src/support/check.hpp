#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace dpart {

/// Span id of the innermost trace span open on the calling thread, or 0
/// when none is open (defined in support/trace.cpp). Declared here so
/// ErrorContext can stamp errors with the span they were thrown under
/// without this header depending on the tracer.
[[nodiscard]] std::uint64_t currentTraceSpanId() noexcept;

/// Stable numeric codes for the error taxonomy. These travel over both
/// socket protocols (the multi-process backend's TaskError frames and the
/// plan service's Error responses), so the values are a wire contract:
/// append-only, never renumbered, never reused. A peer built from an older
/// revision must still decode every code it knows about.
enum class ErrorCode : std::uint16_t {
  Internal = 1,              ///< plain Error: broken precondition / invariant
  TaskFailure = 2,           ///< task died mid-loop (retryable)
  PartitionViolation = 3,    ///< materialized partition broke a plan property
  EvalFailure = 4,           ///< DPL evaluation failed
  CheckpointCorruption = 5,  ///< durable checkpoint failed validation
  Transport = 6,             ///< wire-level failure talking to a peer
  NodeLoss = 7,              ///< node presumed dead (runtime::NodeLossError)
  BadRequest = 8,            ///< service: malformed / unsupported request
  Overloaded = 9,            ///< service: admission queue full, try later
  Infeasible = 10,           ///< constraint set provably unsatisfiable
};

/// Human-readable name of a code (metrics labels, log lines, TaskErrorMsg
/// kind strings). Unknown values — a newer peer's codes — render as "?".
[[nodiscard]] constexpr const char* toString(ErrorCode code) {
  switch (code) {
    case ErrorCode::Internal: return "Error";
    case ErrorCode::TaskFailure: return "TaskFailure";
    case ErrorCode::PartitionViolation: return "PartitionViolation";
    case ErrorCode::EvalFailure: return "EvalFailure";
    case ErrorCode::CheckpointCorruption: return "CheckpointCorruption";
    case ErrorCode::Transport: return "TransportError";
    case ErrorCode::NodeLoss: return "NodeLossError";
    case ErrorCode::BadRequest: return "BadRequest";
    case ErrorCode::Overloaded: return "Overloaded";
    case ErrorCode::Infeasible: return "Infeasible";
  }
  return "?";
}

/// Error thrown on violated preconditions or internal invariants.
///
/// The library throws rather than aborting so that tests can assert on
/// failure modes and embedding applications can recover. Every subclass in
/// the taxonomy reports a stable numeric errorCode() so a failure can cross
/// a process boundary as (code, what) and be rethrown as the right type on
/// the other side (throwErrorCode).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
  [[nodiscard]] virtual ErrorCode errorCode() const noexcept {
    return ErrorCode::Internal;
  }
};

/// Structured locus carried by the error taxonomy below. Every field is
/// optional; describe() renders only the fields that are set, so messages
/// stay short while still localizing a failure to a fault site, loop,
/// partition symbol, field, statement and element index.
struct ErrorContext {
  std::string site;       ///< fault/check site, e.g. "task:flux:3"
  std::string loop;       ///< planned loop name
  std::string partition;  ///< partition symbol
  std::string field;      ///< accessed field as "region.field"
  int stmtId = -1;        ///< statement id within the loop
  std::int64_t index = -1;  ///< offending element index
  int piece = -1;         ///< task / subregion number
  int attempt = -1;       ///< replay attempt (0 = first execution)
  /// Trace span open on the throwing thread when the context was built
  /// (0 = none / tracing off); lets a failure be located on the timeline.
  std::uint64_t spanId = currentTraceSpanId();

  [[nodiscard]] std::string describe() const {
    std::string out;
    auto add = [&out](const char* key, const std::string& value) {
      out += out.empty() ? " [" : ", ";
      out += key;
      out += '=';
      out += value;
    };
    if (!site.empty()) add("site", site);
    if (!loop.empty()) add("loop", loop);
    if (!partition.empty()) add("partition", partition);
    if (!field.empty()) add("field", field);
    if (stmtId >= 0) add("stmt", std::to_string(stmtId));
    if (index >= 0) add("index", std::to_string(index));
    if (piece >= 0) add("piece", std::to_string(piece));
    if (attempt >= 0) add("attempt", std::to_string(attempt));
    if (spanId > 0) add("span", std::to_string(spanId));
    if (!out.empty()) out += ']';
    return out;
  }
};

/// A task died (or was killed by fault injection) during loop execution.
/// The resilient executor retries these; everything else propagates.
class TaskFailure : public Error {
 public:
  explicit TaskFailure(const std::string& what, ErrorContext context = {})
      : Error(what + context.describe()), context_(std::move(context)) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::TaskFailure;
  }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  ErrorContext context_;
};

/// A materialized partition broke a property the plan assumed (disjointness,
/// completeness, containment, bounds) or a task touched an index outside its
/// assigned subregion.
class PartitionViolation : public Error {
 public:
  explicit PartitionViolation(const std::string& what,
                              ErrorContext context = {})
      : Error(what + context.describe()), context_(std::move(context)) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::PartitionViolation;
  }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  ErrorContext context_;
};

/// DPL evaluation failed (unbound symbol, operator kernel error, injected
/// operator fault); carries which statement / site was being evaluated.
class EvalFailure : public Error {
 public:
  explicit EvalFailure(const std::string& what, ErrorContext context = {})
      : Error(what + context.describe()), context_(std::move(context)) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::EvalFailure;
  }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  ErrorContext context_;
};

/// A durable checkpoint failed validation: unreadable or truncated file, bad
/// magic/version, CRC32 mismatch (support/serialize framing), or a payload
/// that does not match the World it is being restored into.
/// runtime::CheckpointManager treats this as "fall back to the previous
/// generation"; it only propagates when no generation survives.
class CheckpointCorruption : public Error {
 public:
  explicit CheckpointCorruption(const std::string& what,
                                ErrorContext context = {})
      : Error(what + context.describe()), context_(std::move(context)) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::CheckpointCorruption;
  }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  ErrorContext context_;
};

/// A wire-level failure talking to a worker process (runtime/distributed):
/// send/recv error, truncated or malformed frame, CRC mismatch, recv
/// deadline, or unexpected peer EOF. Carries the worker's node id so the
/// coordinator's bounded retry/reconnect policy — and, when that is
/// exhausted, the NodeLossError escalation — can name the culprit. The
/// ErrorContext stamps the trace span open at throw time.
class TransportError : public Error {
 public:
  TransportError(std::size_t node, const std::string& what,
                 ErrorContext context = {})
      : Error(what + context.describe()),
        node_(node),
        context_(std::move(context)) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::Transport;
  }
  [[nodiscard]] std::size_t node() const { return node_; }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  std::size_t node_;
  ErrorContext context_;
};

/// The request or configuration was malformed: truncated payload,
/// out-of-range enum value, unknown region/field/function reference,
/// oversized region declaration, missing pieces, or a vocabulary whose shape
/// is invalid (constraint::Vocabulary::validate). Never retryable as-is.
class BadRequest : public Error {
 public:
  explicit BadRequest(const std::string& what) : Error(what) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::BadRequest;
  }
};

/// Rethrows a decoded (code, what) pair as the matching taxonomy subclass —
/// the receive half of the wire contract. Codes whose class lives above this
/// header (NodeLoss in runtime, Overloaded in the service, Infeasible in
/// constraint) fall through to plain Error; a decode site that speaks those
/// codes handles them before calling this. `what` is the peer's full rendered message, so
/// no fresh ErrorContext is attached (the peer's is already baked in; a new
/// one would stamp the local span id over the remote fault site).
[[noreturn]] inline void throwErrorCode(ErrorCode code, const std::string& what,
                                        std::size_t node = 0) {
  ErrorContext none;
  none.spanId = 0;  // describe() renders nothing: `what` passes through as-is
  switch (code) {
    case ErrorCode::TaskFailure: throw TaskFailure(what, std::move(none));
    case ErrorCode::PartitionViolation:
      throw PartitionViolation(what, std::move(none));
    case ErrorCode::EvalFailure: throw EvalFailure(what, std::move(none));
    case ErrorCode::CheckpointCorruption:
      throw CheckpointCorruption(what, std::move(none));
    case ErrorCode::Transport:
      throw TransportError(node, what, std::move(none));
    case ErrorCode::BadRequest: throw BadRequest(what);
    default: throw Error(what);
  }
}

namespace detail {
[[noreturn]] inline void failCheck(const char* cond, const char* file, int line,
                                   const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << cond;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}
}  // namespace detail

}  // namespace dpart

/// Precondition / invariant check; always on (the checks guard partition
/// legality, which is the whole point of the library).
#define DPART_CHECK(cond, ...)                                             \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::dpart::detail::failCheck(#cond, __FILE__, __LINE__,                \
                                 ::std::string{__VA_ARGS__});              \
    }                                                                      \
  } while (false)

#define DPART_UNREACHABLE(msg)                                             \
  ::dpart::detail::failCheck("unreachable", __FILE__, __LINE__,            \
                             ::std::string{msg})
