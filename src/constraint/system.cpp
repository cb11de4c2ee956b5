#include "constraint/system.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "support/check.hpp"

namespace dpart::constraint {

std::string Pred::toString() const {
  switch (kind) {
    case Kind::Part:
      return "PART(" + expr->toString() + ", " + region + ")";
    case Kind::Disj:
      return "DISJ(" + expr->toString() + ")";
    case Kind::Comp:
      return "COMP(" + expr->toString() + ", " + region + ")";
  }
  DPART_UNREACHABLE("bad Pred::Kind");
}

bool Pred::sameAs(const Pred& other) const {
  return kind == other.kind && assumed == other.assumed &&
         (kind == Kind::Disj || region == other.region) &&
         dpl::exprEq(expr, other.expr);
}

std::string Subset::toString() const {
  return lhs->toString() + " <= " + rhs->toString();
}

bool Subset::sameAs(const Subset& other) const {
  return assumed == other.assumed && dpl::exprEq(lhs, other.lhs) &&
         dpl::exprEq(rhs, other.rhs);
}

namespace {

// Hashes consistent with Pred::sameAs / Subset::sameAs.
std::size_t conjunctHash(const Pred& p) {
  return p.expr->hash * 31 + static_cast<std::size_t>(p.kind) * 2 +
         (p.assumed ? 1 : 0);
}

std::size_t conjunctHash(const Subset& s) {
  return (s.lhs->hash * 31 + s.rhs->hash) * 2 + (s.assumed ? 1 : 0);
}

/// Appends `c` to `out` unless a structurally identical conjunct was
/// appended through the same `index` (out's positions bucketed by hash).
template <typename Conjunct>
void appendUnique(std::vector<Conjunct>& out,
                  std::unordered_multimap<std::size_t, std::size_t>& index,
                  Conjunct c) {
  const std::size_t h = conjunctHash(c);
  const auto [lo, hi] = index.equal_range(h);
  for (auto it = lo; it != hi; ++it) {
    if (out[it->second].sameAs(c)) return;
  }
  index.emplace(h, out.size());
  out.push_back(std::move(c));
}

}  // namespace

void System::declareSymbol(const std::string& name, const std::string& region,
                           bool fixed) {
  auto it = symbolRegion_.find(name);
  if (it != symbolRegion_.end()) {
    DPART_CHECK(it->second == region,
                "symbol '" + name + "' re-declared with different region");
    if (fixed) fixed_.insert(name);
    return;
  }
  symbolRegion_.emplace(name, region);
  if (fixed) fixed_.insert(name);
  preds_.push_back(Pred{Pred::Kind::Part, dpl::symbol(name), region});
}

const std::string& System::regionOf(const std::string& symbol) const {
  auto it = symbolRegion_.find(symbol);
  DPART_CHECK(it != symbolRegion_.end(),
              "undeclared partition symbol '" + symbol + "'");
  return it->second;
}

std::set<std::string> System::symbols() const {
  std::set<std::string> out;
  for (const auto& [name, _] : symbolRegion_) out.insert(name);
  return out;
}

std::set<std::string> System::openSymbols() const {
  std::set<std::string> out;
  for (const auto& [name, _] : symbolRegion_) {
    if (!fixed_.contains(name)) out.insert(name);
  }
  return out;
}

void System::addDisj(ExprPtr expr, bool assumed) {
  preds_.push_back(Pred{Pred::Kind::Disj, std::move(expr), "", assumed});
}

void System::addComp(ExprPtr expr, std::string region, bool assumed) {
  preds_.push_back(
      Pred{Pred::Kind::Comp, std::move(expr), std::move(region), assumed});
}

void System::addPart(ExprPtr expr, std::string region, bool assumed) {
  preds_.push_back(
      Pred{Pred::Kind::Part, std::move(expr), std::move(region), assumed});
}

void System::addSubset(ExprPtr lhs, ExprPtr rhs, bool assumed) {
  subsets_.push_back(Subset{std::move(lhs), std::move(rhs), assumed});
}

bool System::requiresDisj(const std::string& symbol) const {
  return std::any_of(preds_.begin(), preds_.end(), [&](const Pred& p) {
    return p.kind == Pred::Kind::Disj &&
           p.expr->kind == dpl::ExprKind::Symbol && p.expr->name == symbol;
  });
}

bool System::requiresComp(const std::string& symbol) const {
  return std::any_of(preds_.begin(), preds_.end(), [&](const Pred& p) {
    return p.kind == Pred::Kind::Comp &&
           p.expr->kind == dpl::ExprKind::Symbol && p.expr->name == symbol;
  });
}

void System::merge(const System& other, bool assumed) {
  for (const auto& [name, reg] : other.symbolRegion_) {
    declareSymbol(name, reg, other.fixed_.contains(name) || assumed);
  }
  for (Pred p : other.preds_) {
    // Symbol PART preds were re-added by declareSymbol; skip duplicates.
    if (p.kind == Pred::Kind::Part && p.expr->kind == dpl::ExprKind::Symbol) {
      continue;
    }
    p.assumed = p.assumed || assumed;
    preds_.push_back(std::move(p));
  }
  for (Subset sc : other.subsets_) {
    sc.assumed = sc.assumed || assumed;
    subsets_.push_back(std::move(sc));
  }
}

System System::substituted(const std::map<std::string, ExprPtr>& subst) const {
  System out;
  for (const auto& [name, reg] : symbolRegion_) {
    if (subst.contains(name)) continue;
    out.declareSymbol(name, reg, fixed_.contains(name));
  }
  std::unordered_multimap<std::size_t, std::size_t> predIndex;
  predIndex.reserve(preds_.size());
  for (const Pred& p : preds_) {
    if (p.kind == Pred::Kind::Part && p.expr->kind == dpl::ExprKind::Symbol &&
        !subst.contains(p.expr->name)) {
      continue;  // re-added by declareSymbol above
    }
    Pred q = p;
    q.expr = dpl::substitute(p.expr, subst);
    appendUnique(out.preds_, predIndex, std::move(q));
  }
  std::unordered_multimap<std::size_t, std::size_t> subsetIndex;
  subsetIndex.reserve(subsets_.size());
  for (const Subset& sc : subsets_) {
    Subset q = sc;
    q.lhs = dpl::substitute(sc.lhs, subst);
    q.rhs = dpl::substitute(sc.rhs, subst);
    if (dpl::exprEq(q.lhs, q.rhs)) continue;  // tautology
    appendUnique(out.subsets_, subsetIndex, std::move(q));
  }
  return out;
}

void System::renameSymbol(const std::string& from, const std::string& to) {
  DPART_CHECK(symbolRegion_.contains(to),
              "rename target '" + to + "' not declared");
  DPART_CHECK(regionOf(from) == regionOf(to),
              "cannot unify partitions of different regions");
  std::map<std::string, ExprPtr> subst{{from, dpl::symbol(to)}};
  const bool wasFixed = fixed_.contains(from);
  *this = substituted(subst);
  if (wasFixed) fixed_.insert(to);
}

int System::depth(const std::string& symbol) const {
  // Longest chain through subset constraints. The inference algorithm never
  // creates cycles among solver symbols, but external (fixed) recursive
  // constraints may (PENNANT Hint2); we bound recursion to the symbol count.
  const int limit = static_cast<int>(symbolRegion_.size()) + 1;
  std::function<int(const std::string&, int)> go =
      [&](const std::string& sym, int fuel) -> int {
    if (fuel <= 0) return 0;
    int best = 0;
    for (const Subset& sc : subsets_) {
      if (sc.rhs->kind != dpl::ExprKind::Symbol || sc.rhs->name != sym) {
        continue;
      }
      std::set<std::string> lhsSyms;
      sc.lhs->collectSymbols(lhsSyms);
      for (const std::string& s : lhsSyms) {
        if (s == sym) continue;
        best = std::max(best, 1 + go(s, fuel - 1));
      }
      best = std::max(best, lhsSyms.empty() ? 1 : best);
    }
    return best;
  };
  return go(symbol, limit);
}

std::string System::toString() const {
  std::ostringstream os;
  for (const auto& [name, reg] : symbolRegion_) {
    os << (fixed_.contains(name) ? "fixed " : "") << name << " : partition of "
       << reg << '\n';
  }
  for (const Pred& p : preds_) {
    if (p.kind == Pred::Kind::Part && p.expr->kind == dpl::ExprKind::Symbol) {
      continue;  // implied by the declarations above
    }
    os << p.toString() << '\n';
  }
  for (const Subset& s : subsets_) os << s.toString() << '\n';
  return os.str();
}

}  // namespace dpart::constraint
