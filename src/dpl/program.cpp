#include "dpl/program.hpp"

#include <map>
#include <sstream>

namespace dpart::dpl {

void Program::append(std::string lhs, ExprPtr rhs) {
  stmts_.push_back(Stmt{std::move(lhs), std::move(rhs)});
}

std::size_t Program::constructedPartitions() const {
  std::size_t n = 0;
  for (const Stmt& s : stmts_) {
    if (s.rhs->kind != ExprKind::Symbol) ++n;
  }
  return n;
}

namespace {

// Rewrites (sub)expressions matching earlier definitions to their symbols,
// top-down so the largest match wins. Keys are printed forms of the *fully
// substituted* definitions, which makes matching canonical.
ExprPtr rewriteWithDefs(const ExprPtr& e,
                        const std::map<std::string, std::string>& defs) {
  if (e->kind != ExprKind::Symbol) {
    auto it = defs.find(e->toString());
    if (it != defs.end()) return symbol(it->second);
  }
  switch (e->kind) {
    case ExprKind::Symbol:
    case ExprKind::Equal:
      return e;
    case ExprKind::Union:
    case ExprKind::Intersect:
    case ExprKind::Subtract: {
      ExprPtr l = rewriteWithDefs(e->lhs, defs);
      ExprPtr r = rewriteWithDefs(e->rhs, defs);
      if (l == e->lhs && r == e->rhs) return e;
      if (e->kind == ExprKind::Union) return unionOf(l, r);
      if (e->kind == ExprKind::Intersect) return intersectOf(l, r);
      return subtractOf(l, r);
    }
    case ExprKind::Image:
    case ExprKind::Preimage: {
      ExprPtr a = rewriteWithDefs(e->arg, defs);
      if (a == e->arg) return e;
      return e->kind == ExprKind::Image ? image(a, e->fn, e->region)
                                        : preimage(e->region, e->fn, a);
    }
  }
  return e;
}

}  // namespace

Program Program::withCse() const {
  Program out;
  // firstDef maps a printed canonical (alias-normalized) expression to the
  // symbol that first defined it; aliasSubst normalizes alias chains.
  std::map<std::string, std::string> firstDef;
  std::map<std::string, ExprPtr> aliasSubst;
  for (const Stmt& s : stmts_) {
    ExprPtr canonical = substitute(s.rhs, aliasSubst);
    ExprPtr rhs = rewriteWithDefs(canonical, firstDef);
    if (rhs->kind != ExprKind::Symbol) {
      firstDef.emplace(canonical->toString(), s.lhs);
    } else {
      // Later uses of this alias normalize to the canonical definition, so
      // CSE keys compare equal across alias chains.
      aliasSubst[s.lhs] = rhs;
    }
    out.append(s.lhs, rhs);
  }
  return out;
}

Program Program::withoutDefinitions(
    const std::set<std::string>& symbols) const {
  Program out;
  for (const Stmt& s : stmts_) {
    if (!symbols.contains(s.lhs)) out.append(s.lhs, s.rhs);
  }
  return out;
}

std::string Program::toString() const {
  std::ostringstream os;
  for (const Stmt& s : stmts_) {
    os << s.lhs << " = " << s.rhs->toString() << '\n';
  }
  return os.str();
}

}  // namespace dpart::dpl
