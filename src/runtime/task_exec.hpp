#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
#include "region/partition.hpp"
#include "region/world.hpp"

namespace dpart::runtime {

/// The per-task execution core shared by the in-process PlanExecutor and the
/// multi-process distributed worker (runtime/distributed/worker). Both
/// backends must run a task through *exactly* this machinery: the reduction
/// strategies, ownership guards and footprint sets below define the task's
/// observable effect, and the two backends are required to produce bitwise
/// identical fields (tests/distributed_exec_test.cpp enforces it).

/// One task's buffered contributions to one reduce statement, ready to
/// merge: entries in ascending target order.
struct BufferedReduce {
  int stmtId = -1;
  ir::ReduceOp op = ir::ReduceOp::Sum;
  std::vector<std::pair<region::Index, double>> entries;
};

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
/// may write in place, the exact index set and (once captured) the
/// pre-execution values. Restoring the footprint undoes every partial
/// effect of a failed attempt. The plan guarantees these sets are disjoint
/// across tasks — stores target the (disjoint or ownership-guarded)
/// iteration subregion, Direct reductions a provably disjoint partition,
/// Guarded reductions their disjoint guard, PrivateSplit reductions the
/// disjoint private sub-partition, and Buffered reductions touch nothing in
/// place until the post-loop merge — so a restore never clobbers another
/// task's completed work (DESIGN.md §7). The distributed worker ships the
/// same sets back as its result: they are precisely the bytes the task is
/// entitled to have changed.
class TaskFootprint {
 public:
  struct Patch {
    std::string region;
    std::string field;
    std::span<double> column;
    region::IndexSet indices;
    std::vector<double> saved;
  };

  void add(std::span<double> column, const std::string& regionName,
           const std::string& field, region::IndexSet set);

  /// Saves the current field values over the footprint.
  void capture();

  /// Restores the captured values (capture() must have run).
  void restore() const;

  /// Overwrites the footprint with garbage — the worst state a dying task
  /// can leave behind without breaking write isolation.
  void poison() const;

  [[nodiscard]] const std::vector<Patch>& patches() const { return patches_; }

 private:
  std::map<std::string, std::size_t> byField_;
  std::vector<Patch> patches_;
};

/// Collects task j's in-place write footprint from the plan's metadata.
[[nodiscard]] TaskFootprint buildFootprint(
    region::World& world, const parallelize::PlannedLoop& loop, std::size_t j,
    const std::map<std::string, region::Partition>& env,
    const region::IndexSet* ownership);

/// Builds a first-claim disjointification of an aliased partition: index i
/// is owned by the lowest-numbered subregion containing it.
[[nodiscard]] std::vector<region::IndexSet> disjointify(
    const region::Partition& p);

/// Whether the loop has a centered write (store, or reduce with no planned
/// strategy) that needs ownership-guarding under an aliased iteration
/// partition.
[[nodiscard]] bool hasCenteredWrite(const parallelize::PlannedLoop& loop);

/// Deterministic prefix of an index set holding ~frac of its elements, in
/// iteration order — the part of a task that "ran before the node died".
[[nodiscard]] region::IndexSet prefixOf(const region::IndexSet& iters,
                                        double frac);

}  // namespace dpart::runtime
