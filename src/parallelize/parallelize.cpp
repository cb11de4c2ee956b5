#include "parallelize/parallelize.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <sstream>
#include <utility>

#include "constraint/canonical.hpp"
#include "constraint/entail.hpp"
#include "constraint/proof.hpp"
#include "constraint/solver.hpp"
#include "constraint/unify.hpp"
#include "parallelize/solve_cache.hpp"
#include "support/check.hpp"

namespace dpart::parallelize {

using analysis::AccessMode;
using constraint::resolveRename;
using constraint::System;
using dpl::ExprKind;
using dpl::ExprPtr;
using optimize::ReducePlan;
using optimize::ReduceStrategy;

std::string ParallelPlan::toString() const {
  std::ostringstream os;
  os << "=== DPL program ===\n" << dpl.toString();
  os << "=== loop plans ===\n";
  for (const PlannedLoop& pl : loops) {
    os << pl.loop->name << ": iter=" << pl.iterPartition
       << (pl.relaxed ? " (relaxed)" : "") << '\n';
    for (const auto& [stmtId, sym] : pl.accessPartition) {
      os << "  stmt#" << stmtId << " -> " << sym;
      auto it = pl.reduces.find(stmtId);
      if (it != pl.reduces.end()) {
        os << " [" << optimize::toString(it->second.strategy);
        if (!it->second.privatePart.empty()) {
          os << " priv=" << it->second.privatePart
             << " shared=" << it->second.sharedPart;
        }
        os << ']';
      }
      os << '\n';
    }
  }
  return os.str();
}

namespace {

void writeProofFile(const std::string& path, const std::string& text) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  DPART_CHECK(os.good(), "cannot open proof file '" + path + "'");
  os << text;
  os.flush();
  DPART_CHECK(os.good(), "failed writing proof file '" + path + "'");
}

/// Renders one expectation as the certificate's key=value tokens
/// (provenance text contains spaces and is omitted; the checker re-derives
/// obligations from the plan section, so `why` is display-only anyway).
std::string expectationTokens(const region::PartitionExpectation& e) {
  std::ostringstream os;
  os << "partition=" << e.partition;
  if (!e.region.empty()) os << " region=" << e.region;
  if (e.pieces > 0) os << " pieces=" << e.pieces;
  if (e.disjoint) os << " disjoint=1";
  if (e.complete) os << " complete=1";
  if (!e.containedIn.empty()) os << " containedIn=" << e.containedIn;
  if (e.maxPieceElems > 0) os << " capacity=" << e.maxPieceElems;
  if (e.replicationMin > 0) os << " replicationMin=" << e.replicationMin;
  if (e.replicationMax > 0) os << " replicationMax=" << e.replicationMax;
  if (!e.colocateWith.empty()) os << " colocateWith=" << e.colocateWith;
  if (!e.antiAffineWith.empty()) {
    os << " antiAffineWith=" << e.antiAffineWith;
  }
  return os.str();
}

}  // namespace

std::vector<region::PartitionExpectation> planExpectations(
    const ParallelPlan& plan, std::size_t pieces) {
  // Merged per symbol: unification reuses partitions across loops, and the
  // strongest requirement from any use applies.
  std::map<std::string, region::PartitionExpectation> merged;
  auto note = [&](const std::string& symbol, const std::string& regionName,
                  bool disjoint, bool complete, const std::string& containedIn,
                  const std::string& why) {
    auto [it, inserted] = merged.try_emplace(symbol);
    region::PartitionExpectation& e = it->second;
    if (inserted) {
      e.partition = symbol;
      e.pieces = pieces;
    }
    if (e.region.empty()) e.region = regionName;
    e.disjoint = e.disjoint || disjoint;
    e.complete = e.complete || complete;
    if (e.containedIn.empty()) e.containedIn = containedIn;
    if (e.why.empty()) e.why = why;
  };

  for (const PlannedLoop& pl : plan.loops) {
    const std::string& ln = pl.loop->name;
    note(pl.iterPartition, pl.loop->iterRegion, /*disjoint=*/!pl.relaxed,
         /*complete=*/true, "", "iteration partition of loop '" + ln + "'");
    pl.loop->forEachStmt([&](const ir::Stmt& s) {
      switch (s.kind) {
        case ir::StmtKind::LoadF64:
        case ir::StmtKind::LoadIdx:
        case ir::StmtKind::LoadRange:
        case ir::StmtKind::StoreF64:
        case ir::StmtKind::ReduceF64: {
          auto it = pl.accessPartition.find(s.id);
          if (it == pl.accessPartition.end()) break;
          bool disjoint = false;
          auto rit = pl.reduces.find(s.id);
          if (s.kind == ir::StmtKind::ReduceF64 && rit != pl.reduces.end() &&
              rit->second.strategy == optimize::ReduceStrategy::Direct) {
            // The optimizer picks Direct only for provably disjoint targets.
            disjoint = true;
          }
          note(it->second, s.region, disjoint, /*complete=*/false, "",
               "access partition of stmt " + std::to_string(s.id) +
                   " in loop '" + ln + "'");
          break;
        }
        default:
          break;
      }
    });
    for (const auto& [stmtId, rp] : pl.reduces) {
      // Resolve the reduced region for partitions not used as a direct
      // access partition (guard / private / shared symbols).
      const ir::Stmt* reduced = pl.loop->stmt(stmtId);
      const std::string reducedRegion = reduced ? reduced->region : "";
      switch (rp.strategy) {
        case optimize::ReduceStrategy::Direct:
          break;  // covered via the access partition above
        case optimize::ReduceStrategy::Guarded:
          // Guards must cover every target exactly once.
          note(rp.partition, reducedRegion, /*disjoint=*/true,
               /*complete=*/true, "",
               "guard partition of reduce stmt " + std::to_string(stmtId) +
                   " in loop '" + ln + "'");
          break;
        case optimize::ReduceStrategy::Buffered:
          note(rp.partition, reducedRegion, false, false, "",
               "buffered reduction partition of stmt " +
                   std::to_string(stmtId) + " in loop '" + ln + "'");
          break;
        case optimize::ReduceStrategy::PrivateSplit:
          note(rp.privatePart, reducedRegion, /*disjoint=*/true, false,
               rp.partition,
               "private sub-partition of reduce stmt " +
                   std::to_string(stmtId) + " in loop '" + ln + "'");
          note(rp.sharedPart, reducedRegion, false, false, rp.partition,
               "shared remainder of reduce stmt " + std::to_string(stmtId) +
                   " in loop '" + ln + "'");
          break;
      }
    }
  }

  // ---- External-vocabulary obligations (constraint/vocab) ----
  // The solver already enforced these symbolically; the runtime re-checks
  // them against the materialized partitions, so a model/ground-truth
  // mismatch surfaces as a verification failure rather than silent
  // misplacement.
  const constraint::SolverVocabulary& v = plan.solverVocab;
  for (const auto& [sym, cap] : v.capacity) {
    auto it = merged.find(sym);
    if (it != merged.end()) it->second.maxPieceElems = cap;
  }
  for (const auto& [sym, bounds] : v.replication) {
    auto it = merged.find(sym);
    if (it == merged.end()) continue;
    it->second.replicationMin = bounds.first;
    it->second.replicationMax = bounds.second;
  }
  // A pair lands on the first of its symbols with no partner yet.
  auto pairUp = [&merged](const auto& pairs,
                          std::string region::PartitionExpectation::*with) {
    for (const constraint::SolverVocabulary::SymbolPair& p : pairs) {
      if (auto it = merged.find(p.symA);
          it != merged.end() && (it->second.*with).empty()) {
        it->second.*with = p.symB;
      } else if (auto jt = merged.find(p.symB);
                 jt != merged.end() && (jt->second.*with).empty()) {
        jt->second.*with = p.symA;
      }
    }
  };
  pairUp(v.colocated, &region::PartitionExpectation::colocateWith);
  pairUp(v.antiAffine, &region::PartitionExpectation::antiAffineWith);

  std::vector<region::PartitionExpectation> out;
  out.reserve(merged.size());
  for (auto& [_, e] : merged) out.push_back(std::move(e));
  return out;
}

/// Algorithm 1's output, over the plan's own copy of the program:
/// PlannedLoop::loop points at these loops, so the plan must not dangle when
/// the caller's program is a temporary (or is destroyed before the plan is
/// executed).
struct AutoParallelizer::Inferred {
  struct Loop {
    const ir::Loop* loop = nullptr;
    analysis::ParallelizableResult accesses;
    analysis::LoopConstraints constraints;
    optimize::LoopReductionPlan reduction;  ///< empty until relax()
  };
  std::shared_ptr<const ir::Program> program;
  std::set<std::string> rangeFns;  ///< the world's range-valued fn ids
  std::vector<Loop> loops;
};

/// Section 5.1 applied: every loop's reduction plan is set (relaxed, or
/// tentatively buffered reductions that synthesize may upgrade).
struct AutoParallelizer::Relaxed : Inferred {};

/// The canonical cache key of the post-relaxation constraint state, and the
/// solve-cache entry stored under it.
struct AutoParallelizer::Canonical {
  constraint::CanonicalForm form;
  SolveCache* cache = nullptr;  ///< null when caching is off or bypassed
  std::shared_ptr<const SolveCacheEntry> hit;  ///< null on a miss
};

namespace {

/// Runs one compile phase inside its "compile" trace span and adds its time
/// to the phase's CompileStats field. The clock reads sit inside the span,
/// so the span and the field share one boundary and
/// Tracer::spanTotalsMs() cannot disagree with CompileStats.
template <typename Fn>
auto inPhase(Tracer* tracer, const char* name, double& statMs, Fn&& fn) {
  using Clock = std::chrono::steady_clock;
  const TraceSpan span(tracer, "compile",
                       [name] { return std::string(name); });
  const Clock::time_point start = Clock::now();
  auto artifact = fn();
  statMs += std::chrono::duration<double, std::milli>(Clock::now() - start)
                .count();
  return artifact;
}

/// Emits the certificate header (ground model + decisive system +
/// vocabulary) that precedes the logged replay of the decisive solve.
void beginProof(constraint::ProofLog& log, const region::World& world,
                std::size_t pieces, const System& decisive,
                const constraint::SolverVocabulary& vocab) {
  log.begin(pieces);
  for (const std::string& r : world.regionNames()) {
    log.region(r, static_cast<std::size_t>(world.region(r).size()));
  }
  for (const std::string& id : world.fnIds()) {
    const region::FnDef& fn = world.fn(id);
    const region::BatchFn batch(world, fn);
    const region::Run domain{0, world.region(fn.domainRegion).size()};
    const auto n = static_cast<std::size_t>(domain.size());
    if (fn.isRangeValued()) {
      std::vector<region::Run> runs(n);
      batch.ranges(domain, runs);
      std::vector<std::pair<long long, long long>> table;
      table.reserve(n);
      for (const region::Run& run : runs) table.emplace_back(run.lo, run.hi);
      log.rangeFn(id, fn.domainRegion, fn.rangeRegion, table);
    } else {
      std::vector<region::Index> points(n);
      batch.points(domain, points);
      log.pointFn(id, fn.domainRegion, fn.rangeRegion,
                  std::vector<long long>(points.begin(), points.end()));
    }
  }
  for (const std::string& sym : decisive.symbols()) {
    log.symbol(sym, decisive.isFixed(sym), decisive.regionOf(sym));
  }
  log.conjuncts(decisive);
  log.vocabulary(vocab);
}

/// Closes the certificate with the plan section — the final DPL program and
/// the runtime verifier's expectations, so the checker can evaluate the
/// model end-to-end and cross-validate against region/verify — and writes
/// it.
void finishProof(constraint::ProofLog& log, const ParallelPlan& plan,
                 std::size_t pieces, const std::string& path) {
  for (const dpl::Stmt& s : plan.dpl.stmts()) log.planStmt(s.lhs, s.rhs);
  for (const region::PartitionExpectation& e : planExpectations(plan, pieces)) {
    log.expectation(expectationTokens(e));
  }
  writeProofFile(path, log.finish());
}

}  // namespace

AutoParallelizer::AutoParallelizer(const region::World& world, Options options)
    : world_(world), options_(options) {}

void AutoParallelizer::addExternalConstraint(const System& external) {
  System marked;
  marked.merge(external, /*assumed=*/true);
  externals_.push_back(std::move(marked));
}

ParallelPlan AutoParallelizer::plan(const ir::Program& program) {
  CompileStats stats;
  std::optional<constraint::ProofLog> proof;
  if (!options_.proofFile.empty()) proof.emplace();

  Inferred inferred = inPhase(tracer_, "phase.infer", stats.inferMs,
                              [&] { return infer(program); });
  stats.parallelLoops = static_cast<int>(inferred.loops.size());
  // The paper's Table 1 bills the relaxation analysis as "solve".
  Relaxed relaxed = inPhase(tracer_, "phase.relax", stats.solveMs,
                            [&] { return relax(std::move(inferred)); });
  const Canonical canonical = inPhase(tracer_, "phase.canon", stats.canonMs,
                                      [&] { return canonicalize(relaxed); });
  stats.cacheKey = canonical.form.hash;
  stats.cacheHit = canonical.hit != nullptr;

  constraint::UnifyResult unified;
  if (!canonical.hit) {
    unified = inPhase(tracer_, "phase.unify", stats.unifyMs,
                      [&] { return unify(relaxed); });
  }
  constraint::SolverVocabulary solverVocab;
  Solved solved = inPhase(tracer_, "phase.solve", stats.solveMs, [&] {
    // The rendering matched, so the inverse of this compile's canonical
    // labeling is an isomorphism from the cached systems onto ours: the
    // rebound entry is exactly what a fresh solve would produce (solver
    // determinism + symmetry).
    if (canonical.hit) {
      return mapNames(canonical.hit->solved,
                      canonical.form.toCanonical.inverted());
    }
    solverVocab = translateVocabulary(relaxed, unified);
    Solved fresh = solve(std::move(unified), relaxed, solverVocab,
                         proof ? &*proof : nullptr);
    if (canonical.cache != nullptr) {
      canonical.cache->insert(
          canonical.form.hash,
          std::make_shared<const SolveCacheEntry>(SolveCacheEntry{
              canonical.form.rendering,
              mapNames(fresh, canonical.form.toCanonical)}));
    }
    return fresh;
  });
  stats.solve = solved.solution.stats;
  stats.solverCalls = solved.solverCalls;

  ParallelPlan result = inPhase(tracer_, "phase.synthesize", stats.rewriteMs,
                                [&] {
    ParallelPlan built = synthesize(std::move(relaxed), std::move(solved),
                                    std::move(solverVocab));
    if (proof) {
      finishProof(*proof, built, options_.pieces, options_.proofFile);
      stats.proofEvents = proof->events();
      stats.proofBytes = proof->bytes();
    }
    return built;
  });
  result.stats = stats;
  return result;
}

AutoParallelizer::Inferred AutoParallelizer::infer(
    const ir::Program& program) const {
  Inferred out;
  out.program = std::make_shared<const ir::Program>(program);
  for (const std::string& id : world_.fnIds()) {
    if (world_.fn(id).isRangeValued()) out.rangeFns.insert(id);
  }
  constraint::SymbolGen gen;
  for (const ir::Loop& loop : out.program->loops) {
    Inferred::Loop st;
    st.loop = &loop;
    st.accesses = analysis::checkParallelizable(world_, loop);
    DPART_CHECK(st.accesses.ok, "loop '" + loop.name +
                                    "' is not parallelizable: " +
                                    st.accesses.reason);
    st.constraints = analysis::inferConstraints(world_, loop, gen);
    out.loops.push_back(std::move(st));
  }

  // Vocabulary shape errors are BadRequest-class failures; infeasibility is
  // only ever decided by the solver.
  const constraint::Vocabulary& vocab = options_.vocab;
  if (!vocab.empty()) {
    DPART_CHECK(options_.engine == constraint::SolverEngine::Propagation,
                "the syntax-directed engine does not support external "
                "vocabularies");
    std::set<std::string> accessedFields;
    for (const Inferred::Loop& st : out.loops) {
      for (const analysis::AccessInfo& a : st.accesses.accesses) {
        accessedFields.insert(a.stmt->region + "." + a.stmt->field);
      }
    }
    const std::vector<std::string> regions = world_.regionNames();
    vocab.validate({regions.begin(), regions.end()}, accessedFields,
                   options_.pieces);
  }
  return out;
}

AutoParallelizer::Relaxed AutoParallelizer::relax(Inferred inferred) const {
  Relaxed out{std::move(inferred)};
  if (options_.enableRelaxation) {
    // The paper's heuristic: relax only when *all* loops using the same
    // iteration-space region can be relaxed. A loop with centered writes
    // cannot run on an aliased iteration partition without losing its
    // disjoint partition reuse, so it blocks its whole group (this is why
    // Circuit keeps reduction buffers while MiniAero sheds them).
    std::map<std::string, bool> groupRelaxable;
    for (const Inferred::Loop& st : out.loops) {
      bool& ok = groupRelaxable.try_emplace(st.loop->iterRegion, true)
                     .first->second;
      bool hasUncenteredReduce = false;
      bool hasCenteredWrite = false;
      for (const analysis::AccessInfo& a : st.accesses.accesses) {
        const bool reduce = a.mode == AccessMode::Reduce;
        if (reduce && !a.centered) hasUncenteredReduce = true;
        if (a.mode == AccessMode::Write || (reduce && a.centered)) {
          hasCenteredWrite = true;
        }
      }
      if (hasCenteredWrite) ok = false;
      if (hasUncenteredReduce &&
          !optimize::isRelaxable(st.accesses, st.constraints)) {
        ok = false;
      }
    }
    for (Inferred::Loop& st : out.loops) {
      if (!groupRelaxable.at(st.loop->iterRegion)) continue;
      if (!optimize::isRelaxable(st.accesses, st.constraints)) continue;
      st.reduction = optimize::relaxLoop(st.accesses, st.constraints);
    }
  }

  // Tentative plans for remaining uncentered reductions: buffered (may be
  // upgraded by synthesize).
  for (Inferred::Loop& st : out.loops) {
    if (st.reduction.relaxed) continue;
    for (const analysis::AccessInfo& a : st.accesses.accesses) {
      if (a.mode != AccessMode::Reduce || a.centered) continue;
      ReducePlan rp;
      rp.stmtId = a.stmt->id;
      rp.strategy = ReduceStrategy::Buffered;
      rp.partition = st.constraints.stmtSymbol.at(a.stmt->id);
      st.reduction.reduces.push_back(rp);
    }
  }
  return out;
}

AutoParallelizer::Canonical AutoParallelizer::canonicalize(
    const Relaxed& relaxed) const {
  // Algorithm 3 already computes isomorphism classes of constraint graphs;
  // canonicalize() lifts that to the whole program so an isomorphic program
  // compiled before — under any renaming of symbols, regions and fns — can
  // reuse its collapse+unify+solve result. The key covers everything that
  // stage consumes: the post-relax systems, the external constraint systems,
  // the range-fn set, the relevant options, each loop's relaxed flag and its
  // reduce-target symbols (which drive the disjoint-reduction attempt).
  const std::uint64_t optionBits =
      (options_.enableRelaxation ? 1u : 0u) |
      (options_.enableDisjointReduction ? 2u : 0u) |
      (options_.enablePrivateSubPartitions ? 4u : 0u) |
      (options_.enableUnification ? 8u : 0u);
  std::vector<constraint::CanonicalLoop> canonLoops;
  canonLoops.reserve(relaxed.loops.size());
  for (const Inferred::Loop& st : relaxed.loops) {
    constraint::CanonicalLoop cl;
    cl.system = &st.constraints.system;
    cl.relaxed = st.reduction.relaxed;
    for (const ReducePlan& rp : st.reduction.reduces) {
      cl.reduceTargets.push_back(rp.partition);
    }
    canonLoops.push_back(std::move(cl));
  }
  std::vector<const System*> exts;
  exts.reserve(externals_.size());
  for (const System& ext : externals_) exts.push_back(&ext);
  // Vocabulary constraints reference concrete region names and sizes —
  // exactly what canonical isomorphism abstracts away — so they join the
  // key as raw material: two compiles only share a key when their
  // vocabularies, piece counts and region sizes agree verbatim.
  const constraint::Vocabulary& vocab = options_.vocab;
  std::string extraKey;
  if (!vocab.empty()) {
    std::ostringstream ek;
    ek << "pieces " << options_.pieces << '\n' << vocab.rendered();
    for (const std::string& r : world_.regionNames()) {
      ek << "size " << r << ' ' << world_.region(r).size() << '\n';
    }
    extraKey = ek.str();
  }

  Canonical out;
  out.form = constraint::canonicalize(canonLoops, exts, relaxed.rangeFns,
                                      optionBits, extraKey);
  // Constrained and proof-emitting compiles bypass the cache in both
  // directions: rebinding a cached solve under renamed symbols cannot
  // preserve vocabulary semantics (which bind to concrete names), and a
  // certificate must describe an actual solve, not a rebound one.
  out.cache = vocab.empty() && options_.proofFile.empty()
                  ? options_.solveCache
                  : nullptr;
  if (out.cache) out.hit = out.cache->find(out.form.hash, out.form.rendering);
  return out;
}

constraint::UnifyResult AutoParallelizer::unify(const Relaxed& relaxed) const {
  std::map<std::string, std::string> renames;
  std::size_t collapseCalls = 0;
  std::vector<System> systems;
  for (const Inferred::Loop& st : relaxed.loops) {
    systems.push_back(st.constraints.system);
    if (options_.enableUnification) {
      collapseCalls += constraint::collapsePlainEdges(
          systems.back(), renames, relaxed.rangeFns);
    }
  }
  for (const System& ext : externals_) systems.push_back(ext);

  if (!options_.enableUnification) {
    System combined;
    for (const System& s : systems) combined.merge(s);
    return {combined.substituted({}), {}};
  }
  constraint::UnifyResult ur =
      constraint::unifySystems(std::move(systems), relaxed.rangeFns);
  ur.renames.merge(renames);  // unification's renames win over collapses
  ur.solverCalls += collapseCalls;
  return ur;
}

constraint::SolverVocabulary AutoParallelizer::translateVocabulary(
    const Relaxed& relaxed, const constraint::UnifyResult& unified) const {
  // Capacity / replication bounds on a region apply to every open symbol
  // partitioning it; field affinities bind the access partitions of the
  // named "region.field" statements (pairs keep the field names for
  // first-conflict provenance).
  constraint::SolverVocabulary out;
  const constraint::Vocabulary& vocab = options_.vocab;
  const System& combined = unified.system;
  auto openSymbolsOf = [&](const std::string& regionName) {
    std::vector<std::string> syms;
    for (const std::string& sym : combined.symbols()) {
      if (!combined.isFixed(sym) && combined.regionOf(sym) == regionName) {
        syms.push_back(sym);
      }
    }
    return syms;
  };
  for (const constraint::CapacityBound& cb : vocab.capacities) {
    for (const std::string& sym : openSymbolsOf(cb.region)) {
      auto [it, inserted] = out.capacity.try_emplace(sym, cb.maxPerPiece);
      if (!inserted) it->second = std::min(it->second, cb.maxPerPiece);
    }
  }
  for (const constraint::ReplicationBound& rb : vocab.replications) {
    for (const std::string& sym : openSymbolsOf(rb.region)) {
      auto [it, inserted] = out.replication.try_emplace(
          sym, std::make_pair(rb.minFactor, rb.maxFactor));
      if (inserted) continue;
      it->second.first = std::max(it->second.first, rb.minFactor);
      if (rb.maxFactor > 0) {
        it->second.second = it->second.second <= 0
                                ? rb.maxFactor
                                : std::min(it->second.second, rb.maxFactor);
      }
    }
  }
  // Vocabulary::validate guaranteed every affinity field has an access.
  auto fieldSymbols = [&](const std::string& fieldName) {
    std::set<std::string> syms;
    for (const Inferred::Loop& st : relaxed.loops) {
      for (const analysis::AccessInfo& a : st.accesses.accesses) {
        if (a.stmt->region + "." + a.stmt->field == fieldName) {
          syms.insert(resolveRename(unified.renames,
                                    st.constraints.stmtSymbol.at(a.stmt->id)));
        }
      }
    }
    return syms;
  };
  std::set<std::pair<std::string, std::string>> seenCo, seenAnti;
  for (const constraint::FieldAffinity& fa : vocab.affinities) {
    for (const std::string& sa : fieldSymbols(fa.fieldA)) {
      for (const std::string& sb : fieldSymbols(fa.fieldB)) {
        // Unification may have collapsed both fields onto one symbol:
        // co-location then already holds structurally, while anti-affinity
        // becomes a (refutable) self-conflict the propagator reports with
        // field provenance.
        if (fa.together && sa == sb) continue;
        const auto key = std::minmax(sa, sb);
        auto& seen = fa.together ? seenCo : seenAnti;
        if (!seen.insert(key).second) continue;
        (fa.together ? out.colocated : out.antiAffine)
            .push_back({sa, sb, fa.fieldA, fa.fieldB});
      }
    }
  }
  return out;
}

Solved AutoParallelizer::solve(constraint::UnifyResult unified,
                               const Relaxed& relaxed,
                               const constraint::SolverVocabulary& vocab,
                               constraint::ProofLog* proof) const {
  const System& combined = unified.system;
  // Section 5.1 first strategy: for non-relaxed loops whose uncentered
  // reductions all target one partition symbol, demand DISJ on it so the
  // solver derives a preimage iteration partition and no buffer is needed.
  // Fall back when unsolvable.
  std::set<std::string> disjointified;
  if (options_.enableDisjointReduction) {
    for (const Inferred::Loop& st : relaxed.loops) {
      if (st.reduction.relaxed) continue;
      std::set<std::string> targets;
      for (const ReducePlan& rp : st.reduction.reduces) {
        targets.insert(resolveRename(unified.renames, rp.partition));
      }
      if (targets.size() == 1) disjointified.insert(*targets.begin());
    }
  }

  constraint::SolverConfig scfg;
  scfg.engine = options_.engine;
  scfg.vocab = vocab;
  scfg.pieces = options_.pieces;
  scfg.search = options_.search;
  for (const std::string& r : world_.regionNames()) {
    scfg.regionSizes[r] = static_cast<std::size_t>(world_.region(r).size());
  }

  System attempt = combined;
  for (const std::string& sym : disjointified) {
    if (attempt.hasSymbol(sym) && !attempt.isFixed(sym)) {
      attempt.addDisj(dpl::symbol(sym));
    }
  }
  std::size_t solverCalls = unified.solverCalls;
  auto solveOnce = [&](const System& system,
                       const constraint::SolverConfig& cfg) {
    ++solverCalls;
    return constraint::Solver(system, relaxed.rangeFns, cfg).solve();
  };
  constraint::Solution sol = solveOnce(attempt, scfg);
  bool usedAttempt = true;
  if (!sol.ok && !disjointified.empty()) {
    sol = solveOnce(combined, scfg);
    usedAttempt = false;
  }
  if (proof != nullptr) {
    // Replay the decisive solve with logging: the solver is deterministic,
    // so the trail reproduces the result above exactly.
    const System& decisive = usedAttempt ? attempt : combined;
    beginProof(*proof, world_, options_.pieces, decisive, vocab);
    constraint::SolverConfig pcfg = scfg;
    pcfg.proof = proof;
    const constraint::Solution psol = solveOnce(decisive, pcfg);
    DPART_CHECK(psol.ok == sol.ok,
                "proof replay diverged from the decisive solve");
  }
  if (!sol.ok) {
    const std::string msg = "constraint resolution failed: " + sol.failure;
    // The certificate already carries the infeasibility trail; write it
    // before surfacing the failure so the caller can hand it to
    // tools/proof_check.
    if (proof != nullptr) writeProofFile(options_.proofFile, proof->finish());
    if (sol.conflict.valid()) throw constraint::InfeasibleError(msg);
    DPART_CHECK(false, msg);
  }

  std::set<std::string> fixedSymbols;
  for (const std::string& sym : combined.symbols()) {
    if (combined.isFixed(sym)) fixedSymbols.insert(sym);
  }
  return {std::move(unified.renames), std::move(sol), std::move(fixedSymbols),
          solverCalls};
}

ParallelPlan AutoParallelizer::synthesize(
    Relaxed relaxed, Solved solved,
    constraint::SolverVocabulary vocab) const {
  const constraint::Solution& sol = solved.solution;
  dpl::Program prog = sol.program();
  constraint::Entailment ent(sol.resolved, relaxed.rangeFns);
  auto assignedExpr = [&](const std::string& sym) -> ExprPtr {
    auto it = sol.assignments.find(sym);
    return it == sol.assignments.end() ? dpl::symbol(sym) : it->second;
  };

  ParallelPlan result;
  int privCounter = 0;
  for (Inferred::Loop& st : relaxed.loops) {
    PlannedLoop pl;
    pl.loop = st.loop;
    pl.relaxed = st.reduction.relaxed;
    pl.iterPartition = resolveRename(solved.renames, st.constraints.iterSymbol);
    for (const auto& [stmtId, sym] : st.constraints.stmtSymbol) {
      pl.accessPartition[stmtId] = resolveRename(solved.renames, sym);
    }

    // In-place ("Direct") reduction needs more than a disjoint partition
    // per access: when several reduce stmts hit the same field through
    // different partitions, task j1's subregion of one partition can
    // overlap task j2's subregion of the other, and the unsynchronized
    // read-modify-write races (and can lose contributions). A group of
    // reduces into one field may go direct only if they all use the same
    // provably disjoint partition — and the iteration partition is
    // disjoint too, so no duplicated iteration applies a reduce twice.
    const bool iterDisjoint = ent.proveDisj(assignedExpr(pl.iterPartition));
    std::map<std::pair<std::string, std::string>, std::vector<ReducePlan*>>
        byField;
    for (ReducePlan& rp : st.reduction.reduces) {
      rp.partition = resolveRename(solved.renames, rp.partition);
      if (rp.strategy != ReduceStrategy::Buffered) continue;
      const ir::Stmt* stmt = st.loop->stmt(rp.stmtId);
      DPART_CHECK(stmt != nullptr);
      byField[{stmt->region, stmt->field}].push_back(&rp);
    }

    // Reduces that stay buffered, grouped by target region for the
    // intersection of private sub-partitions (Section 5.2).
    std::map<std::string, std::vector<ReducePlan*>> byRegion;
    for (auto& [key, plans] : byField) {
      bool direct = iterDisjoint &&
                    ent.proveDisj(assignedExpr(plans.front()->partition));
      for (const ReducePlan* rp : plans) {
        direct = direct && rp->partition == plans.front()->partition;
      }
      for (ReducePlan* rp : plans) {
        if (direct) {
          rp->strategy = ReduceStrategy::Direct;
        } else {
          byRegion[key.first].push_back(rp);
        }
      }
    }

    // PENNANT Hint2's mechanism: a user-provided partition FIX is a valid
    // private sub-partition for a reduction through f when the external
    // constraints assert preimage(R_iter, f, FIX) <= P_iter and P_iter is
    // disjoint — every side pointing into FIX[j] is then owned by task j.
    auto externalPrivate = [&](const std::string& fn) -> std::string {
      for (const System& ext : externals_) {
        for (const constraint::Subset& sc : ext.subsets()) {
          if (sc.lhs->kind == ExprKind::Preimage && sc.lhs->fn == fn &&
              sc.lhs->region == st.loop->iterRegion &&
              sc.lhs->arg->kind == ExprKind::Symbol &&
              sc.rhs->kind == ExprKind::Symbol &&
              resolveRename(solved.renames, sc.rhs->name) ==
                  pl.iterPartition) {
            return sc.lhs->arg->name;
          }
        }
      }
      return "";
    };

    if (options_.enablePrivateSubPartitions && iterDisjoint) {
      for (auto& [regionName, plans] : byRegion) {
        // First preference: user-provided private sub-partitions for every
        // reduction in the group (Section 6.5, Hint2).
        bool allExternal = true;
        std::vector<std::string> extPriv;
        for (ReducePlan* rp : plans) {
          const ExprPtr& bound = st.constraints.stmtRawBound.at(rp->stmtId);
          std::string fix = bound->kind == ExprKind::Image
                                ? externalPrivate(bound->fn)
                                : std::string();
          if (fix.empty()) {
            allExternal = false;
            break;
          }
          extPriv.push_back(std::move(fix));
        }
        if (allExternal && !plans.empty()) {
          for (std::size_t i = 0; i < plans.size(); ++i) {
            ReducePlan* rp = plans[i];
            rp->strategy = ReduceStrategy::PrivateSplit;
            rp->privatePart = extPriv[i];
            rp->sharedPart = extPriv[i] + "_shared_" +
                             std::to_string(rp->stmtId);
            prog.append(rp->sharedPart,
                        dpl::subtractOf(dpl::symbol(rp->partition),
                                        dpl::symbol(extPriv[i])));
          }
          continue;
        }
        // Every reduce in this region group must map the loop variable
        // directly so Theorem 5.1 applies: bound = image(P_iter, f, S).
        std::vector<ExprPtr> privParts;
        bool applicable = true;
        for (ReducePlan* rp : plans) {
          const ExprPtr& bound = st.constraints.stmtRawBound.at(rp->stmtId);
          if (bound->kind != ExprKind::Image ||
              bound->arg->kind != ExprKind::Symbol ||
              resolveRename(solved.renames, bound->arg->name) !=
                  pl.iterPartition ||
              relaxed.rangeFns.contains(bound->fn)) {
            applicable = false;
            break;
          }
          privParts.push_back(optimize::privateSubPartitionExpr(
              dpl::symbol(pl.iterPartition), bound->fn,
              st.loop->iterRegion, regionName));
        }
        if (!applicable) continue;
        ExprPtr priv = privParts.front();
        for (std::size_t i = 1; i < privParts.size(); ++i) {
          priv = dpl::intersectOf(priv, privParts[i]);
        }
        const std::string privName =
            st.loop->name + "_priv_" + std::to_string(privCounter++);
        prog.append(privName, priv);
        for (ReducePlan* rp : plans) {
          rp->strategy = ReduceStrategy::PrivateSplit;
          rp->privatePart = privName;
          rp->sharedPart = privName + "_shared_" + std::to_string(rp->stmtId);
          prog.append(rp->sharedPart,
                      dpl::subtractOf(dpl::symbol(rp->partition),
                                      dpl::symbol(privName)));
        }
      }
    }

    for (const ReducePlan& rp : st.reduction.reduces) {
      pl.reduces[rp.stmtId] = rp;
    }
    result.loops.push_back(std::move(pl));
  }

  result.program = std::move(relaxed.program);
  result.dpl = prog.withCse();
  result.system = std::move(solved.solution.resolved);
  result.externalSymbols = std::move(solved.fixedSymbols);
  result.vocab = options_.vocab;
  result.solverVocab = std::move(vocab);
  return result;
}

std::string equalBaseSymbol(const ParallelPlan& plan,
                            const PlannedLoop& loop) {
  std::map<std::string, const dpl::ExprPtr*> defs;
  for (const dpl::Stmt& s : plan.dpl.stmts()) defs[s.lhs] = &s.rhs;
  std::string name = loop.iterPartition;
  // Follow alias statements; the visited set guards against cycles (which a
  // well-formed program never contains, but a query must not hang on).
  std::set<std::string> visited;
  while (visited.insert(name).second) {
    auto it = defs.find(name);
    if (it == defs.end()) return "";  // external / unbound symbol
    const dpl::Expr& rhs = **it->second;
    if (rhs.kind == dpl::ExprKind::Symbol) {
      name = rhs.name;
      continue;
    }
    if (rhs.kind == dpl::ExprKind::Equal &&
        rhs.region == loop.loop->iterRegion) {
      return name;
    }
    return "";
  }
  return "";
}

}  // namespace dpart::parallelize
