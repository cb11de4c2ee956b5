#pragma once

#include <set>
#include <string>

#include "constraint/system.hpp"

namespace dpart::constraint {

/// Deductive engine over the DPL lemmas of the paper's Figure 8 (L1-L14)
/// plus direct set-theoretic consequences of the operator definitions.
///
/// The engine proves PART / DISJ / COMP predicates and subset constraints on
/// *ground* expressions (symbols are either fixed external partitions or
/// already substituted away), given a set of hypothesis predicates and
/// subsets — the other conjuncts of the system plus user-asserted external
/// invariants.
///
/// Range-valued functions (the generalized IMAGE/PREIMAGE of Section 4) are
/// excluded from lemmas L7, L12 and L14, which only hold for point-valued
/// functions.
class Entailment {
 public:
  /// `rangeFns` lists the function ids that are range-valued.
  Entailment(const System& hypotheses, std::set<std::string> rangeFns);

  [[nodiscard]] bool provePart(const ExprPtr& e, const std::string& region);
  [[nodiscard]] bool proveDisj(const ExprPtr& e);
  [[nodiscard]] bool proveComp(const ExprPtr& e, const std::string& region);
  [[nodiscard]] bool proveSubset(const ExprPtr& lhs, const ExprPtr& rhs);

  /// Proves a whole predicate / subset conjunct.
  [[nodiscard]] bool prove(const Pred& pred);
  [[nodiscard]] bool prove(const Subset& subset);

  /// Region a ground expression partitions, where derivable ("" otherwise).
  [[nodiscard]] std::string regionOf(const ExprPtr& e) const;

  /// Excludes one conjunct (and every structurally identical one, see
  /// Pred::sameAs) from the hypothesis set — Algorithm 2's leaf check
  /// proves each conjunct from the *others*. The conjunct must outlive the
  /// proofs made under the exclusion.
  void excludeConjunct(const Pred& p) {
    excludedPred_ = &p;
    excludedSubset_ = nullptr;
  }
  void excludeConjunct(const Subset& s) {
    excludedPred_ = nullptr;
    excludedSubset_ = &s;
  }

 private:
  [[nodiscard]] bool pointFn(const std::string& fnId) const {
    return !rangeFns_.contains(fnId);
  }
  bool proveDisjFuel(const ExprPtr& e, int fuel);
  bool proveCompFuel(const ExprPtr& e, const std::string& region, int fuel);
  bool proveSubsetFuel(const ExprPtr& lhs, const ExprPtr& rhs, int fuel);

  // Assumed (user-asserted) conjuncts are always usable as hypotheses;
  // only the proof obligation itself is excluded.
  [[nodiscard]] bool usable(const Pred& p) const {
    return p.assumed || excludedPred_ == nullptr || !p.sameAs(*excludedPred_);
  }
  [[nodiscard]] bool usable(const Subset& s) const {
    return s.assumed || excludedSubset_ == nullptr ||
           !s.sameAs(*excludedSubset_);
  }

  const System& hyp_;
  std::set<std::string> rangeFns_;
  const Pred* excludedPred_ = nullptr;
  const Subset* excludedSubset_ = nullptr;
};

/// Checks Algorithm 2's leaf condition: every non-assumed ground conjunct of
/// `system` is entailed by the remaining conjuncts and the DPL lemmas.
/// Returns the first unprovable conjunct's description, or "" when
/// consistent.
std::string checkResolved(const System& system,
                          const std::set<std::string>& rangeFns);

}  // namespace dpart::constraint
