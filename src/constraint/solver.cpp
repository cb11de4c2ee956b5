#include "constraint/solver.hpp"

#include <algorithm>
#include <tuple>

#include "constraint/entail.hpp"
#include "constraint/proof.hpp"
#include "support/check.hpp"

namespace dpart::constraint {

using dpl::ExprKind;
using dpl::ExprPtr;

dpl::Program Solution::program() const {
  dpl::Program prog;
  for (const std::string& sym : order) {
    prog.append(sym, assignments.at(sym));
  }
  return prog.withCse();
}

Solver::Solver(System system, std::set<std::string> rangeFns)
    : system_(std::move(system)), rangeFns_(std::move(rangeFns)) {}

Solver::Solver(System system, std::set<std::string> rangeFns,
               SolverConfig config)
    : system_(std::move(system)),
      rangeFns_(std::move(rangeFns)),
      config_(std::move(config)) {}

Solution Solver::solve(const std::map<std::string, ExprPtr>& initial) {
  steps_ = 0;
  if (config_.engine == SolverEngine::Propagation) {
    return solvePropagation(initial);
  }
  stepCap_ = maxSteps_;
  Solution out;
  std::vector<std::string> order;
  if (!solveRec(initial, order, out)) {
    out.ok = false;
    if (out.failure.empty()) out.failure = "no resolution found";
  }
  return out;
}

// ---- propagation engine --------------------------------------------------

namespace {
SearchHeuristic flip(SearchHeuristic h) {
  return h == SearchHeuristic::PaperOrder ? SearchHeuristic::SmallestDomain
                                          : SearchHeuristic::PaperOrder;
}
}  // namespace

Solution Solver::solvePropagation(
    const std::map<std::string, ExprPtr>& initial) {
  propagators_ = makePropagators(config_.vocab);
  conflict_ = ConflictInfo{};
  nodeCounter_ = 0;
  ProofLog* proof = config_.proof;
  if (proof != nullptr) proof->beginSearch();

  Solution out;
  SearchHeuristic heuristic = config_.search.heuristic;
  std::size_t budget = config_.search.restartBudget == 0
                           ? maxSteps_
                           : config_.search.restartBudget;
  std::size_t attempt = 0;
  while (true) {
    budgetHit_ = false;
    stepCap_ = std::min(steps_ + budget, maxSteps_);
    out.failure.clear();
    std::vector<std::string> order;
    if (searchNode(initial, order, out, /*parentId=*/0, /*branchedSymbol=*/"",
                   heuristic)) {
      out.conflict = ConflictInfo{};
      if (proof != nullptr) proof->solution(out.order, out.assignments);
      return out;
    }
    if (!budgetHit_) {
      // Genuine exhaustion: the system is unsatisfiable under the current
      // vocabulary (or unprovable by the lemma engine).
      out.ok = false;
      out.conflict = conflict_;
      if (conflict_.valid()) {
        out.failure = "infeasible vocabulary: " + conflict_.toString();
      } else if (out.failure.empty()) {
        out.failure = "no resolution found";
      }
      if (proof != nullptr) {
        proof->infeasible(conflict_.valid() ? conflict_.toString()
                                            : out.failure);
      }
      return out;
    }
    if (steps_ >= maxSteps_) {
      out.ok = false;
      out.failure = "search budget exhausted";
      out.conflict = conflict_;
      return out;
    }
    // Restart with the alternate heuristic and a grown budget; the step
    // count carries over so the total stays bounded by maxSteps_.
    ++attempt;
    ++out.stats.restarts;
    heuristic = attempt == 1 ? flip(config_.search.heuristic)
                             : config_.search.heuristic;
    budget = static_cast<std::size_t>(
        static_cast<double>(budget) *
        std::max(1.0, config_.search.restartGrowth));
    if (proof != nullptr) {
      proof->restart(attempt, constraint::toString(heuristic), budget);
    }
  }
}

bool Solver::searchNode(const std::map<std::string, ExprPtr>& partial,
                        std::vector<std::string>& order, Solution& out,
                        std::size_t parentId,
                        const std::string& branchedSymbol,
                        SearchHeuristic heuristic) {
  ProofLog* proof = config_.proof;
  if (++steps_ > stepCap_) {
    budgetHit_ = true;
    if (proof != nullptr) proof->budget(parentId);
    return false;
  }
  const std::size_t id = nodeCounter_++;
  if (proof != nullptr) proof->node(id, parentId, branchedSymbol);

  const System c = system_.substituted(partial);
  const std::set<std::string> open = c.openSymbols();
  if (open.empty()) {
    const std::string bad = checkResolved(c, rangeFns_);
    if (!bad.empty()) {
      if (out.failure.empty()) out.failure = "unprovable conjunct: " + bad;
      if (proof != nullptr) proof->leafBad(id, bad);
      return false;
    }
    if (proof != nullptr) proof->leafOk(id);
    out.ok = true;
    out.assignments = partial;
    out.order = order;
    out.resolved = c;
    return true;
  }

  // The paper's candidate generation seeds this node's domain store; the
  // candidates keep their Algorithm 2 order.
  DomainStore dom;
  for (const Candidate& cand : candidates(c)) {
    dom.add(cand.symbol, cand.expr);
  }
  if (proof != nullptr) {
    for (std::size_t i = 0; i < dom.size(); ++i) {
      proof->candidate(id, i, dom.entry(i).symbol, dom.entry(i).expr);
    }
  }

  // Propagate to fixpoint through the watched-constraint queue: seed with
  // the propagators affected by the branching assignment (all of them at
  // the root, and always those that consume the node-local candidate
  // lists), then chase domain changes.
  PropagationContext ctx;
  ctx.dom = &dom;
  ctx.partial = &partial;
  ctx.system = &c;
  ctx.bounds.regionSizes = &config_.regionSizes;
  ctx.bounds.pieces = config_.pieces;
  ctx.bounds.rangeFns = &rangeFns_;
  ctx.bounds.regionOf = [&c](const std::string& sym) {
    return c.hasSymbol(sym) ? c.regionOf(sym) : std::string();
  };
  ctx.proof = proof;
  ctx.nodeId = id;
  ctx.stats = &out.stats;

  std::vector<std::size_t> queue;
  std::vector<char> queued(propagators_.size(), 0);
  auto enqueue = [&](std::size_t i) {
    if (queued[i] == 0) {
      queued[i] = 1;
      queue.push_back(i);
    }
  };
  for (std::size_t i = 0; i < propagators_.size(); ++i) {
    if (branchedSymbol.empty() || propagators_[i]->rerunEveryNode() ||
        propagators_[i]->watches().contains(branchedSymbol)) {
      enqueue(i);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::size_t i = queue[head];
    queued[i] = 0;
    ctx.changed.clear();
    propagators_[i]->propagate(ctx);
    ++out.stats.propagations;
    if (ctx.refuted) break;
    for (const std::string& sym : ctx.changed) {
      for (std::size_t j = 0; j < propagators_.size(); ++j) {
        if (j != i && propagators_[j]->watches().contains(sym)) enqueue(j);
      }
    }
  }
  if (ctx.conflict.valid() && !conflict_.valid()) conflict_ = ctx.conflict;
  if (ctx.refuted) {
    // A symbol was refuted for every possible expression: no extension of
    // this node can assign it, so the node fails outright.
    return false;
  }

  // Avoid retrying structurally identical equalities.
  std::map<std::string, dpl::ExprSet> tried;
  for (std::size_t idx : dom.order(heuristic)) {
    if (!dom.live(idx)) continue;
    const DomainStore::Entry& entry = dom.entry(idx);
    if (!tried[entry.symbol].insert(entry.expr).second) {
      if (proof != nullptr) proof->dedup(id, idx);
      continue;
    }
    std::map<std::string, ExprPtr> next = partial;
    next[entry.symbol] = entry.expr;
    // Ground the new equality against earlier assignments so every value
    // stays fully substituted.
    for (auto& [sym, expr] : next) {
      expr = dpl::substitute(expr, next);
    }
    order.push_back(entry.symbol);
    if (proof != nullptr) proof->branch(id, idx);
    ++out.stats.branches;
    if (searchNode(next, order, out, id, entry.symbol, heuristic)) {
      return true;
    }
    ++out.stats.backtracks;
    if (proof != nullptr) proof->backtrack(id);
    order.pop_back();
    if (budgetHit_) return false;
  }
  if (proof != nullptr) proof->exhausted(id);
  if (out.failure.empty()) {
    out.failure = "no candidate resolves symbol set";
  }
  return false;
}

// ---- shared candidate generation ----------------------------------------

std::vector<Solver::Candidate> Solver::candidates(const System& c) const {
  std::vector<Candidate> cands;
  const std::set<std::string> open = c.openSymbols();

  // Rule 1 (Algorithm 2 lines 11-15): image(P, f, R) <= E with closed E and
  // open P: candidate P = preimage(R', f, E). Point-valued fns only — L14
  // does not hold for the generalized IMAGE.
  for (const Subset& sc : c.subsets()) {
    if (sc.lhs->kind != ExprKind::Image) continue;
    if (sc.lhs->arg->kind != ExprKind::Symbol) continue;
    const std::string& p = sc.lhs->arg->name;
    if (!open.contains(p)) continue;
    if (rangeFns_.contains(sc.lhs->fn)) continue;
    if (!sc.rhs->closedUnder(open)) continue;
    cands.push_back(Candidate{
        p, dpl::preimage(c.regionOf(p), sc.lhs->fn, sc.rhs)});
  }

  // Rule 2 (lines 16-18): P whose lower bounds are all closed: candidate
  // P = union of the bounds (L13).
  for (const std::string& p : open) {
    std::vector<ExprPtr> bounds;
    bool allClosed = true;
    for (const Subset& sc : c.subsets()) {
      if (sc.rhs->kind != ExprKind::Symbol || sc.rhs->name != p) continue;
      if (!sc.lhs->closedUnder(open)) {
        allClosed = false;
        break;
      }
      bounds.push_back(sc.lhs);
    }
    if (!allClosed || bounds.empty()) continue;
    cands.push_back(Candidate{p, dpl::unionOf(bounds)});
  }

  // Rule 3 (lines 19-27): DISJ symbols then COMP symbols, deepest first.
  // Externally provided partitions are preferred over fresh equal(R)
  // (partition reuse, Section 3.3). Its inputs depend on the node, not on
  // the symbol being resolved, so they are computed once here: the DISJ /
  // COMP symbol sets, the closed expressions the user asserted predicates
  // about (deduplicated structurally, in conjunct order), one lemma engine,
  // and the filtered external candidates per (region, DISJ, COMP) demand.
  std::set<std::string> disjSyms;
  std::set<std::string> compSyms;
  std::vector<ExprPtr> asserted;
  dpl::ExprSet assertedSeen;
  for (const Pred& p : c.preds()) {
    if (p.expr->kind == ExprKind::Symbol) {
      if (p.kind == Pred::Kind::Disj) disjSyms.insert(p.expr->name);
      if (p.kind == Pred::Kind::Comp) compSyms.insert(p.expr->name);
    }
    if (p.assumed && p.expr->closedUnder(open) &&
        assertedSeen.insert(p.expr).second) {
      asserted.push_back(p.expr);
    }
  }
  Entailment ent(c, rangeFns_);
  std::map<std::tuple<std::string, bool, bool>, std::vector<ExprPtr>>
      externals;
  // Asserted expressions plus bare fixed symbols of the region, filtered by
  // provability of the needed predicates.
  auto externalCandidates = [&](const std::string& region, bool needDisj,
                                bool needComp) -> const std::vector<ExprPtr>& {
    auto [it, fresh] =
        externals.try_emplace(std::make_tuple(region, needDisj, needComp));
    if (!fresh) return it->second;
    std::vector<ExprPtr> raw = asserted;
    for (const std::string& sym : c.symbols()) {
      if (!c.isFixed(sym) || c.regionOf(sym) != region) continue;
      ExprPtr e = dpl::symbol(sym);
      if (!assertedSeen.contains(e)) raw.push_back(std::move(e));
    }
    for (const ExprPtr& e : raw) {
      if (!ent.provePart(e, region)) continue;
      if (needDisj && !ent.proveDisj(e)) continue;
      if (needComp && !ent.proveComp(e, region)) continue;
      it->second.push_back(e);
    }
    return it->second;
  };
  std::vector<std::pair<int, std::string>> byDepth;
  for (const std::string& p : open) byDepth.emplace_back(c.depth(p), p);
  std::sort(byDepth.begin(), byDepth.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first > b.first
                                        : a.second < b.second;
            });
  auto addRule3 = [&](bool wantDisj) {
    for (const auto& [depth, p] : byDepth) {
      const bool needDisj = disjSyms.contains(p);
      const bool needComp = compSyms.contains(p);
      if (wantDisj ? !needDisj : (!needComp || needDisj)) continue;
      const std::string& region = c.regionOf(p);
      for (const ExprPtr& e : externalCandidates(region, needDisj, needComp)) {
        cands.push_back(Candidate{p, e});
      }
      cands.push_back(Candidate{p, dpl::equalOf(region)});
    }
  };
  addRule3(/*wantDisj=*/true);
  addRule3(/*wantDisj=*/false);

  // Fallback: any remaining symbol (no bounds, no predicates) gets equal(R);
  // keeps the solver total on degenerate inputs.
  for (const std::string& p : open) {
    cands.push_back(Candidate{p, dpl::equalOf(c.regionOf(p))});
  }
  return cands;
}

// ---- legacy syntax-directed engine (differential reference) --------------

bool Solver::solveRec(const std::map<std::string, ExprPtr>& partial,
                      std::vector<std::string>& order, Solution& out) {
  if (++steps_ > maxSteps_) {
    out.failure = "search budget exhausted";
    return false;
  }
  const System c = system_.substituted(partial);
  const std::set<std::string> open = c.openSymbols();
  if (open.empty()) {
    const std::string bad = checkResolved(c, rangeFns_);
    if (!bad.empty()) {
      if (out.failure.empty()) out.failure = "unprovable conjunct: " + bad;
      return false;
    }
    out.ok = true;
    out.assignments = partial;
    out.order = order;
    out.resolved = c;
    return true;
  }

  // Avoid retrying structurally identical equalities.
  std::map<std::string, dpl::ExprSet> tried;
  for (const Candidate& cand : candidates(c)) {
    if (!tried[cand.symbol].insert(cand.expr).second) {
      continue;
    }
    std::map<std::string, ExprPtr> next = partial;
    next[cand.symbol] = cand.expr;
    // Ground the new equality against earlier assignments so every value
    // stays fully substituted.
    for (auto& [sym, expr] : next) {
      expr = dpl::substitute(expr, next);
    }
    order.push_back(cand.symbol);
    if (solveRec(next, order, out)) return true;
    order.pop_back();
    if (steps_ > maxSteps_) return false;
  }
  if (out.failure.empty()) {
    out.failure = "no candidate resolves symbol set";
  }
  return false;
}

}  // namespace dpart::constraint
