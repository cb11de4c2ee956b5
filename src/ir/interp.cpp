#include "ir/interp.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "support/check.hpp"

namespace dpart::ir {

using region::FieldType;
using region::IndexSet;

std::vector<std::pair<Index, double>> ReduceBuffer::sorted() const {
  std::vector<std::pair<Index, double>> entries(sums_.begin(), sums_.end());
  std::sort(entries.begin(), entries.end());
  return entries;
}

namespace {

const char* typeName(FieldType t) {
  switch (t) {
    case FieldType::F64:
      return "f64";
    case FieldType::Idx:
      return "index";
    case FieldType::Range:
      return "run";
  }
  DPART_UNREACHABLE("bad slot type");
}

std::size_t fileOf(FieldType t) { return static_cast<std::size_t>(t); }

const AccessRule kSerialRule{};

}  // namespace

/// The typed slot files of one run.
struct LoopRunner::Frame {
  double* f64;
  Index* idx;
  Run* run;
  double* args;  // Compute argument gather buffer
};

/// Lowering-time variable typing: every variable gets one type, inferred
/// from how the loop defines and uses it, and a slot in that type's file.
struct LoopRunner::SlotTable {
  const Loop& loop;
  std::unordered_map<std::string, std::pair<FieldType, std::uint32_t>> vars;
  std::uint32_t counts[3] = {0, 0, 0};

  explicit SlotTable(const Loop& l) : loop(l) {
    declare(loop.loopVar, FieldType::Idx);
    std::vector<const Stmt*> aliases;
    infer(loop.body, aliases);
    // An alias takes its source's type. Resolve chains in any order; an
    // alias pair nothing else types is f64, reading zero until assigned.
    for (bool progress = true; progress && !aliases.empty();) {
      progress = false;
      for (auto it = aliases.begin(); it != aliases.end();) {
        const Stmt& s = **it;
        if (const auto* src = find(s.src)) {
          declare(s.var, src->first);
        } else if (const auto* var = find(s.var)) {
          declare(s.src, var->first);
        } else {
          ++it;
          continue;
        }
        it = aliases.erase(it);
        progress = true;
      }
    }
    for (const Stmt* s : aliases) {
      declare(s->src, FieldType::F64);
      declare(s->var, FieldType::F64);
    }
  }

  void infer(const std::vector<Stmt>& stmts,
             std::vector<const Stmt*>& aliases) {
    for (const Stmt& s : stmts) {
      switch (s.kind) {
        case StmtKind::LoadF64:
          declare(s.idxVar, FieldType::Idx);
          declare(s.var, FieldType::F64);
          break;
        case StmtKind::LoadIdx:
        case StmtKind::ApplyFn:
          declare(s.idxVar, FieldType::Idx);
          declare(s.var, FieldType::Idx);
          break;
        case StmtKind::LoadRange:
          declare(s.idxVar, FieldType::Idx);
          declare(s.var, FieldType::Range);
          break;
        case StmtKind::StoreF64:
        case StmtKind::ReduceF64:
          declare(s.idxVar, FieldType::Idx);
          declare(s.src, FieldType::F64);
          break;
        case StmtKind::Alias:
          aliases.push_back(&s);
          break;
        case StmtKind::Compute:
          for (const std::string& a : s.args) declare(a, FieldType::F64);
          declare(s.var, FieldType::F64);
          break;
        case StmtKind::InnerLoop:
          declare(s.rangeVar, FieldType::Range);
          declare(s.loopVar, FieldType::Idx);
          infer(s.body, aliases);
          break;
      }
    }
  }

  void declare(const std::string& var, FieldType t) {
    DPART_CHECK(!var.empty(), "empty variable name in loop " + loop.name);
    auto [it, fresh] = vars.try_emplace(var, t, 0);
    if (fresh) {
      it->second.second = counts[fileOf(t)]++;
    } else if (it->second.first != t) {
      throw Error("loop '" + loop.name + "': variable '" + var +
                  "' is used as " + typeName(it->second.first) + " and as " +
                  typeName(t));
    }
  }

  [[nodiscard]] const std::pair<FieldType, std::uint32_t>* find(
      const std::string& var) const {
    auto it = vars.find(var);
    return it == vars.end() ? nullptr : &it->second;
  }

  [[nodiscard]] std::uint32_t slot(const std::string& var) const {
    return vars.at(var).second;
  }
};

LoopRunner::LoopRunner(region::World& world, const Loop& loop,
                       TaskRules rules)
    : world_(world), loop_(loop), rules_(std::move(rules)) {
  const SlotTable slots(loop_);
  std::copy(std::begin(slots.counts), std::end(slots.counts), slotCount_);
  loopVarSlot_ = slots.slot(loop_.loopVar);
  bodyEnd_ = static_cast<std::uint32_t>(loop_.body.size());
  lower(loop_.body, slots);
  validating_ = std::any_of(
      rules_.byStmt.begin(), rules_.byStmt.end(),
      [](const AccessRule& r) { return r.check != AccessRule::Check::None; });
}

std::uint32_t LoopRunner::lower(const std::vector<Stmt>& stmts,
                                const SlotTable& slots) {
  const auto begin = static_cast<std::uint32_t>(ops_.size());
  ops_.resize(ops_.size() + stmts.size());
  for (std::size_t k = 0; k < stmts.size(); ++k) {
    const Stmt& s = stmts[k];
    Op op;
    op.stmt = &s;
    region::Region* accessed = nullptr;
    if (isAccess(s.kind)) {
      accessed = &world_.region(s.region);
      op.size = accessed->size();
      op.idx = slots.slot(s.idxVar);
      const auto id = static_cast<std::size_t>(s.id);
      op.rule = s.id >= 0 && id < rules_.byStmt.size() ? &rules_.byStmt[id]
                                                      : &kSerialRule;
    }
    switch (s.kind) {
      case StmtKind::LoadF64:
        op.kind = OpKind::LoadF64;
        op.f64 = accessed->f64(s.field).data();
        op.dst = slots.slot(s.var);
        break;
      case StmtKind::LoadIdx:
        op.kind = OpKind::LoadIdx;
        op.idxCol = accessed->idx(s.field).data();
        op.dst = slots.slot(s.var);
        break;
      case StmtKind::LoadRange:
        op.kind = OpKind::LoadRange;
        op.runCol = accessed->range(s.field).data();
        op.dst = slots.slot(s.var);
        break;
      case StmtKind::StoreF64:
        op.applyIf = op.rule->applyIf;
        op.kind = op.applyIf != nullptr ? OpKind::StoreIf : OpKind::Store;
        op.f64 = accessed->f64(s.field).data();
        op.src = slots.slot(s.src);
        break;
      case StmtKind::ReduceF64:
        op.applyIf = op.rule->applyIf;
        op.buffer = op.rule->buffer;
        op.kind = op.applyIf == nullptr ? OpKind::Reduce
                  : op.buffer != nullptr ? OpKind::ReduceIfElseBuffer
                                         : OpKind::ReduceIf;
        op.f64 = accessed->f64(s.field).data();
        op.src = slots.slot(s.src);
        op.reduceOp = s.op;
        break;
      case StmtKind::ApplyFn: {
        DPART_CHECK(world_.hasFn(s.fn), "unknown fn '" + s.fn + "'");
        const region::BatchFn fn(world_, world_.fn(s.fn));
        op.idx = slots.slot(s.idxVar);
        op.dst = slots.slot(s.var);
        switch (fn.def().kind) {
          case region::FnKind::Identity:
            op.kind = OpKind::ApplyIdentity;
            break;
          case region::FnKind::FieldPtr:
            op.kind = OpKind::ApplyField;
            op.idxCol = fn.idxColumn().data();
            op.size = static_cast<Index>(fn.idxColumn().size());
            break;
          case region::FnKind::Affine:
            op.kind = OpKind::ApplyAffine;
            op.affine = &fn.def().point;
            break;
          case region::FnKind::FieldRange:
            throw Error("loop '" + loop_.name + "': " + s.toString() +
                        " applies range-valued function '" + s.fn + "'");
        }
        break;
      }
      case StmtKind::Alias: {
        const FieldType t = slots.vars.at(s.var).first;
        op.kind = t == FieldType::F64   ? OpKind::AliasF64
                  : t == FieldType::Idx ? OpKind::AliasIdx
                                        : OpKind::AliasRun;
        op.src = slots.slot(s.src);
        op.dst = slots.slot(s.var);
        break;
      }
      case StmtKind::Compute:
        DPART_CHECK(s.compute != nullptr,
                    "compute stmt without evaluator in loop " + loop_.name);
        op.kind = OpKind::Compute;
        op.compute = &s.compute;
        op.begin = static_cast<std::uint32_t>(args_.size());
        for (const std::string& a : s.args) args_.push_back(slots.slot(a));
        op.end = static_cast<std::uint32_t>(args_.size());
        maxArgs_ = std::max(maxArgs_, op.end - op.begin);
        op.dst = slots.slot(s.var);
        break;
      case StmtKind::InnerLoop:
        op.kind = OpKind::InnerLoop;
        op.src = slots.slot(s.rangeVar);
        op.dst = slots.slot(s.loopVar);
        op.begin = lower(s.body, slots);
        op.end = op.begin + static_cast<std::uint32_t>(s.body.size());
        break;
    }
    ops_[begin + k] = op;
  }
  return begin;
}

void LoopRunner::validate(const Op& op, Index t) const {
  const AccessRule& rule = *op.rule;
  const Stmt& s = *op.stmt;
  switch (rule.check) {
    case AccessRule::Check::None:
      return;
    case AccessRule::Check::InSet: {
      if (rule.required->contains(t)) return;
      ErrorContext ctx;
      ctx.loop = loop_.name;
      ctx.partition = rule.partition;
      ctx.field = s.region + "." + s.field;
      ctx.stmtId = s.id;
      ctx.index = t;
      ctx.piece = rules_.piece;
      throw PartitionViolation(
          "illegal access: " + s.toString() + " touches index " +
              std::to_string(t) + " outside subregion " +
              std::to_string(rules_.piece) + " of " + rule.partition,
          std::move(ctx));
    }
    case AccessRule::Check::Unassigned: {
      ErrorContext ctx;
      ctx.loop = loop_.name;
      ctx.stmtId = s.id;
      ctx.piece = rules_.piece;
      throw PartitionViolation(
          "access with no assigned partition: " + s.toString(),
          std::move(ctx));
    }
  }
}

template <bool kValidate>
Index LoopRunner::target(const Op& op, const Frame& f) const {
  const Index t = f.idx[op.idx];
  DPART_CHECK(t >= 0 && t < op.size,
              "index out of bounds in " + op.stmt->toString());
  if constexpr (kValidate) validate(op, t);
  return t;
}

template <bool kValidate>
void LoopRunner::exec(std::uint32_t begin, std::uint32_t end,
                      Frame& f) const {
  for (std::uint32_t k = begin; k < end; ++k) {
    const Op& op = ops_[k];
    switch (op.kind) {
      case OpKind::LoadF64:
        f.f64[op.dst] = op.f64[target<kValidate>(op, f)];
        break;
      case OpKind::LoadIdx:
        f.idx[op.dst] = op.idxCol[target<kValidate>(op, f)];
        break;
      case OpKind::LoadRange:
        f.run[op.dst] = op.runCol[target<kValidate>(op, f)];
        break;
      case OpKind::Store:
        op.f64[target<kValidate>(op, f)] = f.f64[op.src];
        break;
      case OpKind::StoreIf: {
        const Index t = target<kValidate>(op, f);
        if (op.applyIf->contains(t)) op.f64[t] = f.f64[op.src];
        break;
      }
      case OpKind::Reduce: {
        double& cell = op.f64[target<kValidate>(op, f)];
        cell = applyReduce(op.reduceOp, cell, f.f64[op.src]);
        break;
      }
      case OpKind::ReduceIf: {
        const Index t = target<kValidate>(op, f);
        if (op.applyIf->contains(t)) {
          op.f64[t] = applyReduce(op.reduceOp, op.f64[t], f.f64[op.src]);
        }
        break;
      }
      case OpKind::ReduceIfElseBuffer: {
        const Index t = target<kValidate>(op, f);
        if (op.applyIf->contains(t)) {
          op.f64[t] = applyReduce(op.reduceOp, op.f64[t], f.f64[op.src]);
        } else {
          op.buffer->add(op.reduceOp, t, f.f64[op.src]);
        }
        break;
      }
      case OpKind::ApplyIdentity:
        f.idx[op.dst] = f.idx[op.idx];
        break;
      case OpKind::ApplyField: {
        const Index a = f.idx[op.idx];
        DPART_CHECK(a >= 0 && a < op.size,
                    "index out of bounds in " + op.stmt->toString());
        f.idx[op.dst] = op.idxCol[a];
        break;
      }
      case OpKind::ApplyAffine:
        f.idx[op.dst] = (*op.affine)(f.idx[op.idx]);
        break;
      case OpKind::AliasF64:
        f.f64[op.dst] = f.f64[op.src];
        break;
      case OpKind::AliasIdx:
        f.idx[op.dst] = f.idx[op.src];
        break;
      case OpKind::AliasRun:
        f.run[op.dst] = f.run[op.src];
        break;
      case OpKind::Compute: {
        const std::uint32_t n = op.end - op.begin;
        for (std::uint32_t a = 0; a < n; ++a) {
          f.args[a] = f.f64[args_[op.begin + a]];
        }
        f.f64[op.dst] = (*op.compute)(std::span<const double>(f.args, n));
        break;
      }
      case OpKind::InnerLoop: {
        const Run range = f.run[op.src];
        for (Index i = range.lo; i < range.hi; ++i) {
          f.idx[op.dst] = i;
          exec<kValidate>(op.begin, op.end, f);
        }
        break;
      }
    }
  }
}

template <bool kValidate>
void LoopRunner::runIn(const IndexSet& iters, Frame& f) const {
  const auto element = [&](Index i) {
    f.idx[loopVarSlot_] = i;
    exec<kValidate>(0, bodyEnd_, f);
  };
  iters.visitChunks([&](const IndexSet::ChunkView& chunk) {
    for (const Run& r : chunk.runs) {
      for (Index i = r.lo; i < r.hi; ++i) element(i);
    }
    for (std::size_t w = 0; w < chunk.words.size(); ++w) {
      const Index base = chunk.base + static_cast<Index>(w * 64);
      for (std::uint64_t word = chunk.words[w]; word != 0;
           word &= word - 1) {
        element(base + std::countr_zero(word));
      }
    }
  });
}

void LoopRunner::run(const IndexSet& iters) const {
  std::vector<double> f64(slotCount_[fileOf(FieldType::F64)], 0.0);
  std::vector<Index> idx(slotCount_[fileOf(FieldType::Idx)], 0);
  std::vector<Run> runs(slotCount_[fileOf(FieldType::Range)]);
  std::vector<double> args(maxArgs_);
  Frame f{f64.data(), idx.data(), runs.data(), args.data()};
  if (validating_) {
    runIn<true>(iters, f);
  } else {
    runIn<false>(iters, f);
  }
}

void LoopRunner::runAll() const {
  run(world_.region(loop_.iterRegion).indexSpace());
}

void runSerial(region::World& world, const Program& program) {
  for (const Loop& loop : program.loops) {
    LoopRunner runner(world, loop);
    runner.runAll();
  }
}

}  // namespace dpart::ir
