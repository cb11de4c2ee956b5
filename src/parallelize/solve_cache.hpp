#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "constraint/canonical.hpp"
#include "constraint/solver.hpp"

namespace dpart::parallelize {

/// The collapse+unify+solve result of one compile: the symbol renames of
/// edge collapsing + Algorithm 3 unification (eliminated -> surviving;
/// follow with constraint::resolveRename), the Algorithm 2 solution, and the
/// fixed (externally bound) symbols of the unified system
/// (-> ParallelPlan::externalSymbols).
struct Solved {
  std::map<std::string, std::string> renames;
  constraint::Solution solution;
  std::set<std::string> fixedSymbols;
  /// Solver::solve calls that produced this result: unification's checks,
  /// then the final solve attempts (0 when rebound from the cache).
  std::size_t solverCalls = 0;
};

/// Renames every symbol, region and fn of `solved` through `maps`. The solve
/// cache uses it in both directions: through a compile's
/// CanonicalForm::toCanonical to store a result, and through the inverse of
/// the requester's map to rebind an entry. Only the name-bearing parts of
/// the solution carry over (ok, assignments, order, resolved); its failure
/// text, search counters, conflict and solver call count describe one
/// concrete search and are left empty.
[[nodiscard]] Solved mapNames(const Solved& solved,
                              const constraint::NameMaps& maps);

/// One cached result, stored in canonical names (constraint::canonicalize).
/// A requester rebinds it through the inverse of its own canonical NameMaps —
/// valid whenever its rendering matches the entry's, because a matching
/// rendering proves the requester's labeling is an isomorphism onto the
/// cached systems.
struct SolveCacheEntry {
  /// Canonical rendering of the systems this entry was solved for. Compared
  /// byte-for-byte on lookup so a 64-bit hash collision between structurally
  /// distinct programs degrades to a cache miss, never a wrong plan.
  std::string rendering;
  Solved solved;
};

/// Thread-safe LRU cache keyed on the canonical constraint-graph hash.
/// Shared across AutoParallelizer instances (and across service tenants):
/// entries are immutable once inserted and handed out by shared_ptr.
class SolveCache {
 public:
  explicit SolveCache(std::size_t capacity = 1024);

  /// Returns the entry for `hash` when present AND its rendering matches;
  /// counts a hit/miss either way (a rendering conflict counts as a miss).
  [[nodiscard]] std::shared_ptr<const SolveCacheEntry> find(
      std::uint64_t hash, const std::string& rendering);

  /// Inserts (or refreshes) an entry, evicting the least recently used
  /// beyond capacity. First insert wins on a same-key race.
  void insert(std::uint64_t hash, std::shared_ptr<const SolveCacheEntry> entry);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /// Lookups whose hash matched but whose rendering did not (either a true
    /// 64-bit collision or a canonicalization defect; always safe).
    std::uint64_t renderingConflicts = 0;
    std::size_t entries = 0;
  };
  [[nodiscard]] Stats stats() const;

  void clear();

 private:
  using LruList =
      std::list<std::pair<std::uint64_t, std::shared_ptr<const SolveCacheEntry>>>;

  mutable std::mutex mu_;
  std::size_t capacity_;
  LruList lru_;  // front = most recently used
  std::map<std::uint64_t, LruList::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t renderingConflicts_ = 0;
};

}  // namespace dpart::parallelize
