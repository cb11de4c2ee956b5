#include "runtime/task_exec.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"

namespace dpart::runtime {

using optimize::ReduceStrategy;
using region::Index;
using region::IndexSet;
using region::Partition;

namespace {

std::size_t stmtSlots(const ir::Loop& loop) {
  std::size_t n = 0;
  loop.forEachStmt([&](const ir::Stmt& s) {
    DPART_CHECK(s.id >= 0, "unnumbered stmt in loop " + loop.name);
    n = std::max(n, static_cast<std::size_t>(s.id) + 1);
  });
  return n;
}

/// Task j's rule for every access statement of the loop.
ir::TaskRules taskRules(const parallelize::PlannedLoop& loop, std::size_t j,
                        const std::map<std::string, Partition>& env,
                        bool validate, const IndexSet* ownership,
                        std::vector<ir::ReduceBuffer>& buffers) {
  static const IndexSet kNowhere;  // Buffered: nothing applies in place
  ir::TaskRules rules;
  rules.piece = static_cast<int>(j);
  rules.byStmt.resize(buffers.size());
  loop.loop->forEachStmt([&](const ir::Stmt& s) {
    if (!ir::isAccess(s.kind)) return;
    const auto id = static_cast<std::size_t>(s.id);
    ir::AccessRule& rule = rules.byStmt[id];
    auto rit = s.kind == ir::StmtKind::ReduceF64 ? loop.reduces.find(s.id)
                                                 : loop.reduces.end();
    const bool guarded = rit != loop.reduces.end() &&
                         rit->second.strategy == ReduceStrategy::Guarded;
    if (rit == loop.reduces.end()) {
      // Centered store / reduction: ownership-guarded under aliased
      // iteration, so a duplicated iteration writes once. Loads have no
      // write rule.
      rule.applyIf = ownership;
    } else {
      switch (rit->second.strategy) {
        case ReduceStrategy::Direct:
          break;
        case ReduceStrategy::Guarded:
          rule.applyIf = &env.at(rit->second.partition).sub(j);
          break;
        case ReduceStrategy::Buffered:
          rule.applyIf = &kNowhere;
          rule.buffer = &buffers[id];
          break;
        case ReduceStrategy::PrivateSplit:
          rule.applyIf = &env.at(rit->second.privatePart).sub(j);
          rule.buffer = &buffers[id];
          break;
      }
    }
    if (!validate) return;
    auto ait = loop.accessPartition.find(s.id);
    if (ait == loop.accessPartition.end()) {
      rule.check = ir::AccessRule::Check::Unassigned;
    } else if (!guarded) {
      // Guarded reductions may compute targets outside the task's
      // subregion; the guard rejects them before any memory access.
      rule.check = ir::AccessRule::Check::InSet;
      rule.required = &env.at(ait->second).sub(j);
      rule.partition = ait->second;
    }
  });
  return rules;
}

}  // namespace

TaskKernel::TaskKernel(region::World& world,
                       const parallelize::PlannedLoop& loop, std::size_t piece,
                       const std::map<std::string, Partition>& env,
                       bool validate, const IndexSet* ownership)
    : loop_(loop),
      buffers_(stmtSlots(*loop.loop)),
      runner_(world, *loop.loop,
              taskRules(loop, piece, env, validate, ownership, buffers_)) {}

std::vector<BufferedReduce> TaskKernel::bufferedReductions() const {
  std::vector<BufferedReduce> out;
  for (std::size_t id = 0; id < buffers_.size(); ++id) {
    if (buffers_[id].empty()) continue;
    const ir::Stmt* stmt = loop_.loop->stmt(static_cast<int>(id));
    DPART_CHECK(stmt != nullptr);
    out.push_back(BufferedReduce{static_cast<int>(id), stmt->op,
                                 buffers_[id].sorted()});
  }
  return out;
}

std::vector<IndexSet> disjointify(const Partition& p) {
  std::vector<IndexSet> owned;
  owned.reserve(p.count());
  IndexSet claimed;
  for (std::size_t j = 0; j < p.count(); ++j) {
    owned.push_back(p.sub(j).subtract(claimed));
    claimed = claimed.unionWith(p.sub(j));
  }
  return owned;
}

bool hasCenteredWrite(const parallelize::PlannedLoop& loop) {
  bool centered = false;
  loop.loop->forEachStmt([&](const ir::Stmt& s) {
    if (s.kind == ir::StmtKind::StoreF64 ||
        (s.kind == ir::StmtKind::ReduceF64 && !loop.reduces.contains(s.id))) {
      centered = true;
    }
  });
  return centered;
}

void TaskFootprint::add(std::span<double> column, const std::string& regionName,
                        const std::string& field, IndexSet set) {
  if (set.empty()) return;
  const std::string key = regionName + "." + field;
  auto [it, inserted] = byField_.try_emplace(key, patches_.size());
  if (inserted) {
    patches_.push_back(Patch{regionName, field, column, std::move(set), {}});
  } else {
    Patch& p = patches_[it->second];
    p.indices = p.indices.unionWith(set);
  }
}

void TaskFootprint::capture() {
  for (Patch& p : patches_) {
    p.saved.clear();
    p.saved.reserve(static_cast<std::size_t>(p.indices.size()));
    p.indices.forEach([&p](Index i) {
      p.saved.push_back(p.column[static_cast<std::size_t>(i)]);
    });
  }
}

void TaskFootprint::restore() const {
  for (const Patch& p : patches_) {
    std::size_t k = 0;
    p.indices.forEach([&p, &k](Index i) {
      p.column[static_cast<std::size_t>(i)] = p.saved[k++];
    });
  }
}

void TaskFootprint::poison() const {
  for (const Patch& p : patches_) {
    p.indices.forEach([&p](Index i) {
      p.column[static_cast<std::size_t>(i)] =
          std::numeric_limits<double>::quiet_NaN();
    });
  }
}

TaskFootprint buildFootprint(region::World& world,
                             const parallelize::PlannedLoop& loop,
                             std::size_t j,
                             const std::map<std::string, Partition>& env,
                             const IndexSet* ownership) {
  TaskFootprint fp;
  loop.loop->forEachStmt([&](const ir::Stmt& s) {
    if (s.kind != ir::StmtKind::StoreF64 && s.kind != ir::StmtKind::ReduceF64)
      return;
    const IndexSet* set = nullptr;
    IndexSet guarded;
    auto rit = loop.reduces.find(s.id);
    if (s.kind == ir::StmtKind::ReduceF64 && rit != loop.reduces.end()) {
      switch (rit->second.strategy) {
        case ReduceStrategy::Direct:
          set = &env.at(loop.accessPartition.at(s.id)).sub(j);
          break;
        case ReduceStrategy::Guarded:
          set = &env.at(rit->second.partition).sub(j);
          break;
        case ReduceStrategy::Buffered:
          return;  // task-local buffer; nothing written in place
        case ReduceStrategy::PrivateSplit:
          set = &env.at(rit->second.privatePart).sub(j);
          break;
      }
    } else {
      // Centered store / centered reduction: the task writes its iteration
      // subregion, narrowed to its ownership set under aliased iteration.
      const IndexSet& acc = env.at(loop.accessPartition.at(s.id)).sub(j);
      if (ownership != nullptr) {
        guarded = acc.intersectWith(*ownership);
        set = &guarded;
      } else {
        set = &acc;
      }
    }
    fp.add(world.region(s.region).f64(s.field), s.region, s.field, *set);
  });
  return fp;
}

IndexSet prefixOf(const IndexSet& iters, double frac) {
  const Index want = static_cast<Index>(
      static_cast<double>(iters.size()) * std::clamp(frac, 0.0, 1.0));
  region::IndexSetBuilder builder;
  Index taken = 0;
  for (const region::Run& r : iters.runs()) {
    if (taken >= want) break;
    const Index take = std::min(r.size(), want - taken);
    builder.addRun(r.lo, r.lo + take);
    taken += take;
  }
  return builder.build();
}

}  // namespace dpart::runtime
