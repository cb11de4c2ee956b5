#include "runtime/task_exec.hpp"

#include <algorithm>
#include <limits>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/sleep.hpp"
#include "support/trace.hpp"

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

/// First-claim disjointification of an aliased partition: index i is owned
/// by the lowest-numbered subregion containing it.
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

Ownership::Ownership(const parallelize::PlannedLoop& loop,
                     const Partition& iter) {
  if (hasCenteredWrite(loop) && !iter.isDisjoint()) owned_ = disjointify(iter);
}

FieldSlice gatherSlice(const region::World& world, std::string regionName,
                       std::string field, IndexSet indices) {
  FieldSlice slice{std::move(regionName), std::move(field), std::move(indices),
                   {}};
  const auto column = world.region(slice.region).f64(slice.field);
  slice.values.reserve(static_cast<std::size_t>(slice.indices.size()));
  slice.indices.forEach([&](Index i) {
    slice.values.push_back(column[static_cast<std::size_t>(i)]);
  });
  return slice;
}

void scatterSlice(region::World& world, const FieldSlice& slice) {
  const auto column = world.region(slice.region).f64(slice.field);
  std::size_t k = 0;
  slice.indices.forEach([&](Index i) {
    column[static_cast<std::size_t>(i)] = slice.values[k++];
  });
}

std::size_t mergeReductions(
    region::World& world, const ir::Loop& loop,
    const std::vector<std::vector<BufferedReduce>>& byPiece,
    const std::function<void(const ir::Stmt&, const BufferedReduce&)>&
        onMerged) {
  std::size_t merged = 0;
  for (const std::vector<BufferedReduce>& buffers : byPiece) {
    for (const BufferedReduce& br : buffers) {
      const ir::Stmt* stmt = loop.stmt(br.stmtId);
      DPART_CHECK(stmt != nullptr, "reduction buffer names unknown stmt " +
                                       std::to_string(br.stmtId));
      const auto column = world.region(stmt->region).f64(stmt->field);
      for (const auto& [target, value] : br.entries) {
        double& cell = column[static_cast<std::size_t>(target)];
        cell = ir::applyReduce(br.op, cell, value);
      }
      merged += br.entries.size();
      if (onMerged) onMerged(*stmt, br);
    }
  }
  return merged;
}

void TaskFootprint::add(const std::string& regionName,
                        const std::string& field, IndexSet set) {
  if (set.empty()) return;
  for (FieldSlice& s : slices_) {
    if (s.region == regionName && s.field == field) {
      s.indices = s.indices.unionWith(set);
      return;
    }
  }
  slices_.push_back(FieldSlice{regionName, field, std::move(set), {}});
}

void TaskFootprint::capture() {
  for (FieldSlice& s : slices_) {
    s = gatherSlice(*world_, std::move(s.region), std::move(s.field),
                    std::move(s.indices));
  }
}

void TaskFootprint::restore() const {
  for (const FieldSlice& s : slices_) scatterSlice(*world_, s);
}

void TaskFootprint::poison() const {
  for (const FieldSlice& s : slices_) {
    const auto column = world_->region(s.region).f64(s.field);
    s.indices.forEach([&column](Index i) {
      column[static_cast<std::size_t>(i)] =
          std::numeric_limits<double>::quiet_NaN();
    });
  }
}

TaskFootprint buildFootprint(region::World& world,
                             const parallelize::PlannedLoop& loop,
                             std::size_t j,
                             const std::map<std::string, Partition>& env,
                             const IndexSet* ownership) {
  TaskFootprint fp(world);
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
    fp.add(s.region, s.field, *set);
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

void countError(const ExecOptions& options, const char* kind) {
  if (options.observability.metrics != nullptr) {
    options.observability.metrics->counter("errorsTotal", {{"kind", kind}})
        .inc();
  }
}

void sleepFor(const ExecOptions& options, std::uint64_t micros) {
  sleepOrHook(options.resilience.sleepMicros, micros);
}

void runTaskAttempts(const ExecOptions& options, const std::string& loop,
                     std::size_t piece, std::size_t node, TaskTallies& tallies,
                     const TaskBody& body) {
  const ResilienceOptions& res = options.resilience;
  FaultInjector* injector = res.faultInjector;
  const std::string site = "task:" + loop + ":" + std::to_string(piece);
  // The node site is keyed on the (stable) node id, not the (shrinkable)
  // piece number, so "node:2" still names the same machine after an
  // elastic shrink.
  const std::string nodeSite = "node:" + std::to_string(node);
  auto context = [&](const std::string& at, int attempt) {
    ErrorContext ctx;
    ctx.site = at;
    ctx.loop = loop;
    ctx.piece = static_cast<int>(piece);
    ctx.attempt = attempt;
    return ctx;
  };
  // A NodeLossError (not a TaskFailure), so in-place replay cannot catch
  // it: only a checkpoint restore with the node removed recovers.
  auto loseNode = [&](const Fault& fault, const std::string& at,
                      int attempt) {
    if (body.die) body.die(fault);
    return NodeLossError(node, "injected fault: node lost permanently",
                         context(at, attempt));
  };

  for (int attempt = 0;; ++attempt) {
    try {
      if (injector != nullptr) {
        if (auto fault = injector->fire(nodeSite);
            fault && fault->kind == FaultKind::PermanentCrash) {
          throw loseNode(*fault, nodeSite, attempt);
        }
        if (auto fault = injector->fire(site)) {
          switch (fault->kind) {
            case FaultKind::Straggler:
              tallies.stallMicros.fetch_add(fault->stragglerMicros,
                                            std::memory_order_relaxed);
              sleepFor(options, fault->stragglerMicros);
              break;
            case FaultKind::Poison:
            case FaultKind::Crash:
              if (body.die) body.die(*fault);
              throw TaskFailure(fault->kind == FaultKind::Poison
                                    ? "injected fault: task result poisoned"
                                    : "injected fault: task crashed mid-run",
                                context(site, attempt));
            case FaultKind::PermanentCrash:
              // Same death as at the node site, for callers that arm
              // "task:..." directly.
              throw loseNode(*fault, site, attempt);
            case FaultKind::CorruptCheckpoint:
              break;  // only meaningful at checkpoint:write sites
          }
        }
      }
      if (body.run) body.run();
      return;
    } catch (const TaskFailure& failure) {
      countError(options, "TaskFailure");
      // Only task deaths are replayable; partition violations and
      // evaluation failures propagate immediately.
      if (!res.taskReplay) throw;
      if (body.rollback) body.rollback();
      if (attempt >= res.maxTaskRetries) {
        ErrorContext ctx = failure.context();
        ctx.attempt = attempt;
        throw TaskFailure(std::string("task failed after ") +
                              std::to_string(attempt + 1) +
                              " attempt(s): " + failure.what(),
                          std::move(ctx));
      }
      tallies.replays.fetch_add(1, std::memory_order_relaxed);
      if (Tracer* tr = options.observability.tracer;
          tr != nullptr && tr->enabled()) {
        tr->instant("executor", "task.replay",
                    "\"site\":\"" + jsonEscape(site) + "\",\"fault_site\":\"" +
                        jsonEscape(failure.context().site) +
                        "\",\"node\":" + std::to_string(node) +
                        ",\"attempt\":" + std::to_string(attempt));
      }
      if (res.retryBackoffMicros > 0) {
        sleepFor(options, res.retryBackoffMicros << attempt);
      }
    }
  }
}

}  // namespace dpart::runtime
