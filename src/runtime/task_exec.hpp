#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
#include "region/partition.hpp"
#include "region/world.hpp"
#include "runtime/options.hpp"
#include "support/fault.hpp"

namespace dpart::runtime {

/// The task-launch core shared by both execution backends: the in-process
/// PlanExecutor and the multi-process coordinator/worker pair
/// (runtime/distributed). Both backends run a launch through *exactly* this
/// machinery: the attempt policy (fault sites, replay, escalation), the
/// ownership guards, the reduction strategies, the footprint sets, the
/// deterministic reduction merge and the field-slice copies below define a
/// launch's observable effect, and the two backends are required to produce
/// bitwise identical fields (tests/distributed_exec_test.cpp enforces it).
/// What stays per backend is only what a task's death means there.

/// A node died for good (FaultKind::PermanentCrash on a "node:<id>" site, or
/// a task that exhausted its replays and whose host is therefore presumed
/// dead). Deliberately NOT a TaskFailure: in-place replay must not catch it —
/// the only recovery is a checkpoint restore with the node removed from the
/// machine (elastic shrink).
class NodeLossError : public Error {
 public:
  NodeLossError(std::size_t node, const std::string& what,
                ErrorContext context = {})
      : Error(what + context.describe()),
        node_(node),
        context_(std::move(context)) {}
  [[nodiscard]] ErrorCode errorCode() const noexcept override {
    return ErrorCode::NodeLoss;
  }
  [[nodiscard]] std::size_t node() const { return node_; }
  [[nodiscard]] const ErrorContext& context() const { return context_; }

 private:
  std::size_t node_;
  ErrorContext context_;
};

/// One (region, field) slice of F64 column data with its index set: a task
/// footprint's saved values, a ghost refresh (coordinator -> worker) and a
/// write-back (worker -> coordinator). Values are bit-exact: on the wire,
/// doubles travel as their IEEE-754 bit patterns (BinaryWriter::f64).
struct FieldSlice {
  std::string region;
  std::string field;
  region::IndexSet indices;
  std::vector<double> values;  ///< one per index, in ascending index order
};

/// Copies the World's values at `indices` into a slice.
[[nodiscard]] FieldSlice gatherSlice(const region::World& world,
                                     std::string regionName, std::string field,
                                     region::IndexSet indices);

/// Writes a slice's values back into the World.
void scatterSlice(region::World& world, const FieldSlice& slice);

/// One task's buffered contributions to one reduce statement, ready to
/// merge: entries in ascending target order. Travels the wire unchanged in
/// the multi-process backend's Result payload.
struct BufferedReduce {
  int stmtId = -1;
  ir::ReduceOp op = ir::ReduceOp::Sum;
  std::vector<std::pair<region::Index, double>> entries;
};

/// Folds every task's buffered reductions into the World in the one
/// deterministic order both backends share — piece ascending, then stmt id,
/// then target — so floating-point results are bitwise reproducible.
/// `byPiece[j]` is task j's TaskKernel::bufferedReductions(). `onMerged`,
/// when set, sees each merged buffer with its statement. Returns the number
/// of entries merged.
std::size_t mergeReductions(
    region::World& world, const ir::Loop& loop,
    const std::vector<std::vector<BufferedReduce>>& byPiece,
    const std::function<void(const ir::Stmt&, const BufferedReduce&)>&
        onMerged = {});

/// One task of one launch, lowered: the loop's kernel (ir::LoopRunner)
/// bound to the task's per-statement rules. Each reduce strategy maps onto
/// one rule — Direct writes every target; Guarded writes its guard subregion
/// and skips the rest; Buffered writes nothing in place and buffers every
/// contribution; PrivateSplit writes its private subregion and buffers the
/// rest — and centered writes under an aliased iteration partition write
/// only the task's ownership set. With `validate`, every executed access
/// must land in its access partition's subregion (Guarded reductions are
/// checked by their guard instead); a violation throws PartitionViolation.
class TaskKernel {
 public:
  TaskKernel(region::World& world, const parallelize::PlannedLoop& loop,
             std::size_t piece,
             const std::map<std::string, region::Partition>& env,
             bool validate, const region::IndexSet* ownership);

  /// Runs the given iterations (the task's subregion, or a prefix of it),
  /// filling the reduction buffers.
  void run(const region::IndexSet& iters) { runner_.run(iters); }

  /// The non-empty reduction buffers in ascending stmt id order — the
  /// deterministic order both backends merge them in.
  [[nodiscard]] std::vector<BufferedReduce> bufferedReductions() const;

 private:
  const parallelize::PlannedLoop& loop_;
  std::vector<ir::ReduceBuffer> buffers_;  // indexed by stmt id
  ir::LoopRunner runner_;
};

/// One task's in-place write footprint: for every (region, field) the task
/// may write in place, the exact index set and (once captured) the values
/// there. Restoring the footprint undoes every partial effect of a failed
/// attempt. The plan guarantees these sets are disjoint across tasks —
/// stores target the (disjoint or ownership-guarded) iteration subregion,
/// Direct reductions a provably disjoint partition, Guarded reductions their
/// disjoint guard, PrivateSplit reductions the disjoint private
/// sub-partition, and Buffered reductions touch nothing in place until the
/// post-loop merge — so a restore never clobbers another task's completed
/// work (DESIGN.md §7). The distributed worker captures the same slices
/// after the run and ships them back as its result: they are precisely the
/// bytes the task is entitled to have changed.
class TaskFootprint {
 public:
  TaskFootprint() = default;
  explicit TaskFootprint(region::World& world) : world_(&world) {}

  void add(const std::string& regionName, const std::string& field,
           region::IndexSet set);

  /// Saves the current field values over the footprint.
  void capture();

  /// Restores the captured values (capture() must have run).
  void restore() const;

  /// Overwrites the footprint with garbage — the worst state a dying task
  /// can leave behind without breaking write isolation.
  void poison() const;

  [[nodiscard]] const std::vector<FieldSlice>& slices() const {
    return slices_;
  }
  /// Consumes the footprint's slices.
  [[nodiscard]] std::vector<FieldSlice> take() { return std::move(slices_); }

 private:
  region::World* world_ = nullptr;
  std::vector<FieldSlice> slices_;  ///< one per (region, field)
};

/// Collects task j's in-place write footprint from the plan's metadata.
[[nodiscard]] TaskFootprint buildFootprint(
    region::World& world, const parallelize::PlannedLoop& loop, std::size_t j,
    const std::map<std::string, region::Partition>& env,
    const region::IndexSet* ownership);

/// The ownership guards of one launch, derived once from the loop and its
/// iteration partition. Centered writes (a store, or a reduce with no
/// planned strategy) under an aliased iteration partition apply only on the
/// piece that owns the index — the lowest-numbered subregion containing it
/// — so a duplicated iteration writes once. Other launches need no guard.
class Ownership {
 public:
  Ownership(const parallelize::PlannedLoop& loop,
            const region::Partition& iter);

  /// Piece j's guard, or nullptr when the launch needs none.
  [[nodiscard]] const region::IndexSet* of(std::size_t j) const {
    return owned_.empty() ? nullptr : &owned_[j];
  }

 private:
  std::vector<region::IndexSet> owned_;
};

/// Deterministic prefix of an index set holding ~frac of its elements, in
/// iteration order — the part of a task that "ran before the node died".
[[nodiscard]] region::IndexSet prefixOf(const region::IndexSet& iters,
                                        double frac);

/// Bumps errorsTotal{kind=...} (no-op without a metrics registry).
void countError(const ExecOptions& options, const char* kind);

/// Sleeps via ResilienceOptions::sleepMicros when set, for real otherwise.
void sleepFor(const ExecOptions& options, std::uint64_t micros);

/// What one launch did, folded into the executor's tallies the same way on
/// both backends.
struct LaunchStats {
  std::vector<double> taskSeconds;   ///< per piece, task CPU seconds
  std::size_t bufferedElements = 0;  ///< reduction-buffer entries merged
  std::uint64_t ghostElems = 0;      ///< refresh elements shipped
  std::uint64_t ghostMessages = 0;   ///< non-empty refresh slices shipped
};

/// Resilience tallies every task attempt adds to, on either backend.
struct TaskTallies {
  std::atomic<std::size_t> replays{0};        ///< task replays performed
  std::atomic<std::uint64_t> stallMicros{0};  ///< injected straggler stalls
};

/// What a task's life and death mean on one backend; the attempt policy
/// itself (runTaskAttempts) is backend-independent. Empty members do
/// nothing.
struct TaskBody {
  /// Runs the whole task. The in-process backend runs it here; the
  /// multi-process backend runs it on the worker after dispatch.
  std::function<void()> run;
  /// The task dies of an injected Crash, Poison or PermanentCrash fault,
  /// leaving behind what such a death leaves on this backend: in-process a
  /// Crash runs a prefix of the task and a Poison scribbles over the
  /// footprint; multi-process a PermanentCrash SIGKILLs the worker.
  std::function<void(const Fault&)> die;
  /// Undoes a failed attempt's partial effects before the replay.
  std::function<void()> rollback;
};

/// The attempt loop of task `piece` of a launch of `loop`, run on node
/// `node`. Each attempt fires the "node:<node>" site (a PermanentCrash
/// there loses the node) and then the "task:<loop>:<piece>" site: a
/// Straggler stalls, a Crash or Poison fails the attempt with TaskFailure,
/// a PermanentCrash loses the node with NodeLossError. Without a fault the
/// task runs. A failed attempt counts errorsTotal{TaskFailure}; in
/// taskReplay mode it is rolled back and replayed (one `task.replay`
/// instant each, exponential backoff) until maxTaskRetries is exhausted,
/// which throws "task failed after N attempt(s): <last failure>".
void runTaskAttempts(const ExecOptions& options, const std::string& loop,
                     std::size_t piece, std::size_t node, TaskTallies& tallies,
                     const TaskBody& body);

}  // namespace dpart::runtime
