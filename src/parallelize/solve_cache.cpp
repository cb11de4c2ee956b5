#include "parallelize/solve_cache.hpp"

#include "support/check.hpp"

namespace dpart::parallelize {

Solved mapNames(const Solved& solved, const constraint::NameMaps& maps) {
  Solved out;
  for (const auto& [from, to] : solved.renames) {
    out.renames[maps.symbol(from)] = maps.symbol(to);
  }
  const constraint::Solution& in = solved.solution;
  constraint::Solution& sol = out.solution;
  sol.ok = in.ok;
  for (const auto& [sym, expr] : in.assignments) {
    sol.assignments[maps.symbol(sym)] = constraint::mapExpr(expr, maps);
  }
  for (const std::string& sym : in.order) sol.order.push_back(maps.symbol(sym));
  sol.resolved = constraint::mapSystem(in.resolved, maps);
  for (const std::string& sym : solved.fixedSymbols) {
    out.fixedSymbols.insert(maps.symbol(sym));
  }
  return out;
}

SolveCache::SolveCache(std::size_t capacity) : capacity_(capacity) {
  DPART_CHECK(capacity_ > 0, "SolveCache capacity must be positive");
}

std::shared_ptr<const SolveCacheEntry> SolveCache::find(
    std::uint64_t hash, const std::string& rendering) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(hash);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  if (it->second->second->rendering != rendering) {
    ++renderingConflicts_;
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->second;
}

void SolveCache::insert(std::uint64_t hash,
                        std::shared_ptr<const SolveCacheEntry> entry) {
  DPART_CHECK(entry != nullptr, "SolveCache::insert: null entry");
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.contains(hash)) return;  // first solve wins; entries immutable
  lru_.emplace_front(hash, std::move(entry));
  index_[hash] = lru_.begin();
  while (lru_.size() > capacity_) {
    index_.erase(lru_.back().first);
    lru_.pop_back();
  }
}

SolveCache::Stats SolveCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.renderingConflicts = renderingConflicts_;
  s.entries = lru_.size();
  return s;
}

void SolveCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lru_.clear();
  index_.clear();
}

}  // namespace dpart::parallelize
