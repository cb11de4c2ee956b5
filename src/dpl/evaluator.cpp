#include "dpl/evaluator.hpp"

#include <utility>

#include "support/check.hpp"
#include "support/sleep.hpp"
#include "support/timer.hpp"

namespace dpart::dpl {

using region::IndexSet;
using region::Partition;

namespace {

std::uint64_t runsProduced(const Partition& p) {
  std::uint64_t total = 0;
  for (std::size_t j = 0; j < p.count(); ++j) total += p.sub(j).runCount();
  return total;
}

const char* opSite(ExprKind kind) {
  switch (kind) {
    case ExprKind::Symbol: return "dpl:symbol";
    case ExprKind::Union: return "dpl:union";
    case ExprKind::Intersect: return "dpl:intersect";
    case ExprKind::Subtract: return "dpl:subtract";
    case ExprKind::Image: return "dpl:image";
    case ExprKind::Preimage: return "dpl:preimage";
    case ExprKind::Equal: return "dpl:equal";
  }
  return "dpl:?";
}

// The `op` label of a kernel's dpl.op.* gauges: its fault site minus "dpl:".
const char* opLabel(ExprKind kind) { return opSite(kind) + 4; }

// Deterministically corrupts an operator result: drops the first element of
// the first non-empty subregion (breaks completeness) or, when the draw says
// so and a second subregion exists, duplicates it there (breaks
// disjointness). Exactly what a half-written partition after a lost node
// looks like — and what region::verifyPartitions must catch.
Partition poisonPartition(const Partition& p, double magnitude) {
  std::vector<IndexSet> subs(p.subregions().begin(), p.subregions().end());
  for (std::size_t j = 0; j < subs.size(); ++j) {
    if (subs[j].empty()) continue;
    const IndexSet one = IndexSet::interval(subs[j].lowerBound(),
                                            subs[j].lowerBound() + 1);
    if (magnitude >= 0.5 && subs.size() > 1) {
      subs[(j + 1) % subs.size()] = subs[(j + 1) % subs.size()].unionWith(one);
    } else {
      subs[j] = subs[j].subtract(one);
    }
    break;
  }
  return Partition(p.regionName(), std::move(subs));
}

}  // namespace

void Evaluator::setMetrics(MetricsRegistry* metrics) {
  opGauges_ = {};
  containerSwitches_ = bitmapOpWords_ = nullptr;
  if (metrics == nullptr) return;
  for (const ExprKind kind :
       {ExprKind::Equal, ExprKind::Image, ExprKind::Preimage, ExprKind::Union,
        ExprKind::Intersect, ExprKind::Subtract}) {
    const MetricLabels labels{{"op", opLabel(kind)}};
    opGauges_[static_cast<std::size_t>(kind)] = {
        &metrics->gauge("dpl.op.calls", labels),
        &metrics->gauge("dpl.op.ms", labels),
        &metrics->gauge("dpl.op.elements", labels),
        &metrics->gauge("dpl.op.runs", labels)};
  }
  containerSwitches_ = &metrics->gauge("dpl.indexset.container_switches");
  bitmapOpWords_ = &metrics->gauge("dpl.indexset.bitmap_op_words");
}

void Evaluator::bind(const std::string& name, Partition partition) {
  // A fresh generation per (re)binding: cache keys embed the generation, so
  // entries computed against an older binding can never be returned again.
  bindingGen_[name] = ++nextGen_;
  env_.insert_or_assign(name, std::move(partition));
}

const Partition& Evaluator::partition(const std::string& name) const {
  auto it = env_.find(name);
  DPART_CHECK(it != env_.end(), "unbound partition symbol '" + name + "'");
  return it->second;
}

std::string Evaluator::cacheKey(const ExprPtr& expr) const {
  switch (expr->kind) {
    case ExprKind::Symbol: {
      auto it = bindingGen_.find(expr->name);
      // Unbound symbols keep a readable key; evaluation will throw before
      // anything is inserted under it.
      if (it == bindingGen_.end()) return "S?" + expr->name;
      return "S" + std::to_string(it->second);
    }
    case ExprKind::Union:
    case ExprKind::Intersect: {
      // u and n are commutative and the kernels are symmetric, so canonical
      // operand order lets `A u B` hit the entry cached for `B u A`.
      std::string l = cacheKey(expr->lhs);
      std::string r = cacheKey(expr->rhs);
      if (r < l) std::swap(l, r);
      return (expr->kind == ExprKind::Union ? "U(" : "I(") + l + "," + r + ")";
    }
    case ExprKind::Subtract:
      return "D(" + cacheKey(expr->lhs) + "," + cacheKey(expr->rhs) + ")";
    case ExprKind::Image:
      return "img(" + expr->fn + ";" + expr->region + ";" +
             cacheKey(expr->arg) + ")";
    case ExprKind::Preimage:
      return "pre(" + expr->region + ";" + expr->fn + ";" +
             cacheKey(expr->arg) + ")";
    case ExprKind::Equal:
      return "E(" + expr->region + "," + std::to_string(pieces_) + ")";
  }
  DPART_UNREACHABLE("bad ExprKind");
}

Partition Evaluator::eval(const ExprPtr& expr) const { return evalMemo(expr); }

Partition Evaluator::evalMemo(const ExprPtr& expr) const {
  // Bare symbols are env lookups; copying out of the cache would cost the
  // same as copying out of the environment, so they bypass memoization.
  if (expr->kind == ExprKind::Symbol) return partition(expr->name);

  std::string key;
  if (memoize_) {
    key = cacheKey(expr);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++counters_.cacheHits;
      if (tracer_ != nullptr && tracer_->enabled()) {
        tracer_->instant("dpl", "memo.hit",
                         std::string("\"op\":\"") + opSite(expr->kind) + '"');
      }
      return it->second;
    }
    ++counters_.cacheMisses;
  }

  bool poison = false;
  double poisonMagnitude = 0;
  if (injector_ != nullptr) {
    if (auto fault = injector_->fire(opSite(expr->kind))) {
      switch (fault->kind) {
        case FaultKind::Crash: {
          ErrorContext ctx;
          ctx.site = opSite(expr->kind);
          throw EvalFailure(
              "injected fault: DPL operator failed evaluating " +
                  expr->toString(),
              std::move(ctx));
        }
        case FaultKind::Straggler:
          // Attributed to the dedicated stall counter (never the stalled
          // operator's wall time), so per-op timings in the bench JSON stay
          // comparable between faulty and fault-free runs.
          counters_.injectedStallMicros += fault->stragglerMicros;
          sleepOrHook(sleepHook_, fault->stragglerMicros);
          break;
        case FaultKind::Poison:
          poison = true;
          poisonMagnitude = fault->magnitude;
          break;
        case FaultKind::PermanentCrash: {
          // No node granularity inside operator evaluation: a permanently
          // dead evaluator is as fatal as a crashed one.
          ErrorContext ctx;
          ctx.site = opSite(expr->kind);
          throw EvalFailure(
              "injected fault: DPL operator lost its node evaluating " +
                  expr->toString(),
              std::move(ctx));
        }
        case FaultKind::CorruptCheckpoint:
          break;  // only meaningful at checkpoint:write sites
      }
    }
  }

  // Inclusive operator span: operand evaluation recurses inside it, so the
  // exported trace shows the expression tree as nested spans.
  DPART_TRACE_SPAN_NAMED(opSpan, tracer_, "dpl",
                         std::string(opSite(expr->kind)));

  Partition result;
  std::uint64_t elements = 0;  // inputs the kernel scans
  double seconds = 0;
  IndexSet::Stats sets;  // the kernel's IndexSet::stats() delta
  // Times one kernel call after its operands are evaluated, so nested
  // operators are not counted twice.
  const auto timed = [&](auto&& kernel) {
    const IndexSet::Stats before = IndexSet::stats();
    const Timer t;
    result = kernel();
    seconds = t.seconds();
    const IndexSet::Stats after = IndexSet::stats();
    sets.containerSwitches = after.containerSwitches - before.containerSwitches;
    sets.bitmapOpWords = after.bitmapOpWords - before.bitmapOpWords;
  };
  switch (expr->kind) {
    case ExprKind::Symbol:
      DPART_UNREACHABLE("handled above");
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract: {
      const Partition lhs = evalMemo(expr->lhs);
      const Partition rhs = evalMemo(expr->rhs);
      elements = static_cast<std::uint64_t>(lhs.totalElements() +
                                            rhs.totalElements());
      timed([&] {
        if (expr->kind == ExprKind::Union) {
          return region::unionPartitions(lhs, rhs, pool_);
        }
        if (expr->kind == ExprKind::Intersect) {
          return region::intersectPartitions(lhs, rhs, pool_);
        }
        return region::subtractPartitions(lhs, rhs, pool_);
      });
      break;
    }
    case ExprKind::Image: {
      const Partition arg = evalMemo(expr->arg);
      elements = static_cast<std::uint64_t>(arg.totalElements());
      timed([&] {
        return region::imagePartition(world_, arg, expr->fn, expr->region,
                                      pool_);
      });
      break;
    }
    case ExprKind::Preimage: {
      const Partition arg = evalMemo(expr->arg);
      elements =
          static_cast<std::uint64_t>(world_.region(expr->region).size());
      timed([&] {
        return region::preimagePartition(world_, expr->region, expr->fn, arg,
                                         pool_);
      });
      break;
    }
    case ExprKind::Equal:
      elements =
          static_cast<std::uint64_t>(world_.region(expr->region).size());
      timed([&] {
        return region::equalPartition(world_, expr->region, pieces_);
      });
      break;
  }

  // The kernel's own figures, before any injected poisoning.
  const OpGauges& gauges = opGauges_[static_cast<std::size_t>(expr->kind)];
  if (gauges.calls != nullptr || opSpan.active()) {
    const std::uint64_t runs = runsProduced(result);
    if (gauges.calls != nullptr) {
      gauges.calls->add(1);
      gauges.ms->add(seconds * 1e3);
      gauges.elements->add(static_cast<double>(elements));
      gauges.runs->add(static_cast<double>(runs));
      containerSwitches_->add(static_cast<double>(sets.containerSwitches));
      bitmapOpWords_->add(static_cast<double>(sets.bitmapOpWords));
    }
    if (opSpan.active()) {
      opSpan.annotate(
          "\"result_elements\":" + std::to_string(result.totalElements()) +
          ",\"runs\":" + std::to_string(runs) +
          (memoize_ ? ",\"memo\":\"miss\"" : ""));
    }
  }

  if (poison) result = poisonPartition(result, poisonMagnitude);

  if (memoize_) cache_.emplace(std::move(key), result);
  return result;
}

const std::map<std::string, Partition>& Evaluator::run(
    const Program& program) {
  for (const Stmt& s : program.stmts()) {
    try {
      bind(s.lhs, eval(s.rhs));
    } catch (const EvalFailure&) {
      throw;  // already carries the failing operator's context
    } catch (const Error& e) {
      ErrorContext ctx;
      ctx.partition = s.lhs;
      throw EvalFailure("evaluating DPL statement '" + s.lhs + " = " +
                            s.rhs->toString() + "': " + e.what(),
                        std::move(ctx));
    }
  }
  return env_;
}

}  // namespace dpart::dpl
