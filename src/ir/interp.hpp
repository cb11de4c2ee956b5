#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ir/ir.hpp"
#include "region/index_set.hpp"
#include "region/world.hpp"

namespace dpart::ir {

/// One task's buffered contributions to one reduction statement: per target,
/// the contributions folded in execution order, starting from the
/// operator's identity. The runtime merges them after the launch.
class ReduceBuffer {
 public:
  void add(ReduceOp op, Index target, double value) {
    auto [slot, inserted] = sums_.try_emplace(target, reduceIdentity(op));
    slot->second = applyReduce(op, slot->second, value);
  }
  [[nodiscard]] bool empty() const { return sums_.empty(); }
  /// The (target, folded value) entries in ascending target order — the
  /// order every merge applies them in.
  [[nodiscard]] std::vector<std::pair<Index, double>> sorted() const;

 private:
  std::unordered_map<Index, double> sums_;
};

/// How one task executes one region-access statement. The runtime fills
/// one rule per statement at task setup (runtime/task_exec): the reduction
/// strategies of Sections 5.1 / 5.2, ownership guards on centered writes
/// under aliased iteration partitions, and the subregion access validation
/// requires. The default rule is plain serial semantics.
struct AccessRule {
  enum class Check : std::uint8_t {
    None,        ///< not validated (or a Guarded reduction)
    InSet,       ///< the target must lie in `required`
    Unassigned,  ///< the plan assigned no partition: executing it throws
  };

  /// Stores and reductions write in place only at targets in this set;
  /// nullptr writes every target.
  const region::IndexSet* applyIf = nullptr;
  /// Reductions: contributions to targets outside applyIf go here; nullptr
  /// skips them (another task owns those targets).
  ReduceBuffer* buffer = nullptr;
  /// Validating runs: what every executed access must satisfy.
  Check check = Check::None;
  const region::IndexSet* required = nullptr;
  std::string partition;  ///< symbol of `required`, for error context
};

/// One task's rules, indexed by stmt id (absent ids get the default rule).
/// Validation runs a separate, checking instantiation of the kernel, chosen
/// when any rule has a check.
struct TaskRules {
  std::vector<AccessRule> byStmt;
  int piece = -1;  ///< error context of partition violations
};

/// Executes a Loop over a subset of its iteration space against a World.
///
/// Construction lowers the loop once into a flat array of typed ops: every
/// variable gets a slot in one of three typed slot files (f64, index, run),
/// field columns and index functions are resolved to raw pointers, and each
/// access op carries its task rule. Running an element then does no name
/// lookup, no variant access and no virtual call. The runner is the single
/// interpreter core shared by the serial reference execution (no rules)
/// and both task backends.
class LoopRunner {
 public:
  /// Throws Error when a variable is used at two types, naming the loop
  /// and the variable.
  LoopRunner(region::World& world, const Loop& loop, TaskRules rules = {});

  LoopRunner(const LoopRunner&) = delete;
  LoopRunner& operator=(const LoopRunner&) = delete;

  /// Runs the given iterations in ascending order.
  void run(const region::IndexSet& iters) const;

  /// Runs the full iteration space (serial reference semantics).
  void runAll() const;

  [[nodiscard]] const Loop& loop() const { return loop_; }

 private:
  enum class OpKind : std::uint8_t {
    LoadF64,
    LoadIdx,
    LoadRange,
    Store,               // write every target
    StoreIf,             // write targets in applyIf, skip the rest
    Reduce,              // fold into every target
    ReduceIf,            // fold into targets in applyIf, skip the rest
    ReduceIfElseBuffer,  // fold into targets in applyIf, buffer the rest
    ApplyIdentity,
    ApplyField,          // FieldPtr function: a bounds-checked column read
    ApplyAffine,
    AliasF64,
    AliasIdx,
    AliasRun,
    Compute,
    InnerLoop,
  };

  /// One lowered statement. Operand fields hold slot numbers in the file
  /// of the operand's type; which fields are live depends on `kind`.
  struct Op {
    OpKind kind{};
    std::uint32_t dst = 0;
    std::uint32_t idx = 0;  // index operand: access target / fn argument
    std::uint32_t src = 0;  // stored / reduced / aliased value; inner range
    ReduceOp reduceOp = ReduceOp::Sum;
    Index size = 0;  // column length: the bound every access is checked by
    double* f64 = nullptr;
    const Index* idxCol = nullptr;
    const Run* runCol = nullptr;
    const region::IndexSet* applyIf = nullptr;
    ReduceBuffer* buffer = nullptr;
    const std::function<Index(Index)>* affine = nullptr;
    const ComputeFn* compute = nullptr;
    std::uint32_t begin = 0;  // Compute: args_; InnerLoop: body in ops_
    std::uint32_t end = 0;
    const Stmt* stmt = nullptr;        // error messages
    const AccessRule* rule = nullptr;  // validation
  };

  struct Frame;
  struct SlotTable;

  std::uint32_t lower(const std::vector<Stmt>& stmts, const SlotTable& slots);
  template <bool kValidate>
  void exec(std::uint32_t begin, std::uint32_t end, Frame& f) const;
  template <bool kValidate>
  Index target(const Op& op, const Frame& f) const;
  void validate(const Op& op, Index t) const;
  template <bool kValidate>
  void runIn(const region::IndexSet& iters, Frame& f) const;

  region::World& world_;
  const Loop& loop_;
  TaskRules rules_;
  std::vector<Op> ops_;  // the loop body, then each inner body after it
  std::uint32_t bodyEnd_ = 0;
  std::vector<std::uint32_t> args_;  // Compute argument slots, concatenated
  std::uint32_t maxArgs_ = 0;
  std::uint32_t loopVarSlot_ = 0;
  std::uint32_t slotCount_[3] = {0, 0, 0};  // f64, index, run
  bool validating_ = false;
};

/// Runs every loop of a program once, in order, serially — the reference
/// semantics auto-parallelized executions are validated against.
void runSerial(region::World& world, const Program& program);

}  // namespace dpart::ir
