#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace dpart::region {

/// Index of an element within a region. Regions are indexed [0, size).
using Index = std::int64_t;

/// Half-open run of consecutive indices [lo, hi).
struct Run {
  Index lo = 0;
  Index hi = 0;  // exclusive

  [[nodiscard]] Index size() const { return hi - lo; }
  friend bool operator==(const Run&, const Run&) = default;
};

namespace detail {

/// The index space is cut into fixed-width chunks; each chunk of a set is
/// stored as whichever container is smaller for its contents. 4096 indices
/// per chunk keeps a bitmap container at 64 words (512 bytes — one cache
/// line octet), small enough to live on the stack during set operations.
inline constexpr Index kChunkBits = 4096;
inline constexpr std::size_t kChunkWords =
    static_cast<std::size_t>(kChunkBits) / 64;

/// Container crossover: a run container costs 16 bytes per run, a bitmap a
/// flat 512 bytes, so a chunk holding more than 32 local runs is stored as a
/// bitmap. The rule depends only on the chunk's contents, which keeps the
/// representation canonical: equal sets have identical containers.
inline constexpr std::uint32_t kRunCrossover = 32;

/// Per-chunk directory entry. Containers live in the owning set's shared
/// pools (one runs pool, one words pool) so a set costs O(1) allocations
/// regardless of chunk count; `off`/`len` locate this chunk's slice.
struct Chunk {
  Index id = 0;             // covers [id*kChunkBits, (id+1)*kChunkBits)
  std::uint32_t off = 0;    // first element of the slice in the pool
  std::uint32_t len = 0;    // runs: run count; bitmap: kChunkWords
  std::uint32_t card = 0;   // set members within the chunk (> 0)
  std::uint32_t nruns = 0;  // chunk-local run count (both containers)
  bool bitmap = false;
  friend bool operator==(const Chunk&, const Chunk&) = default;
};

struct Assembler;

}  // namespace detail

/// A set of indices, logically a sorted sequence of disjoint, non-adjacent
/// runs — but stored as a Roaring-style hybrid: the index space is split
/// into fixed-width chunks (detail::kChunkBits indices), and each chunk
/// holds its members either as chunk-local runs (interval-shaped data) or
/// as a packed 64-bit-word bitmap (dense data), switching automatically at
/// the run-count crossover. Set algebra runs chunk-at-a-time: run containers
/// use linear merges exactly like the original flat representation, bitmap
/// containers use word-at-a-time (autovectorizable) boolean ops, and
/// mismatched chunk directories are reconciled with a galloping skip.
///
/// IndexSet is the concrete representation of subregions: every DPL operator
/// ultimately manipulates IndexSets. `runCount()` still exposes the logical
/// run count — the fragmentation of a subregion, which the runtime and the
/// cluster simulator charge for (non-contiguous subregions are how the paper
/// explains the MiniAero and PENNANT performance gaps) — independent of the
/// physical container a chunk happens to use.
class IndexSet {
 public:
  IndexSet() = default;
  IndexSet(const IndexSet& other);
  IndexSet(IndexSet&& other) noexcept;
  IndexSet& operator=(const IndexSet& other);
  IndexSet& operator=(IndexSet&& other) noexcept;
  ~IndexSet();

  /// The contiguous set [lo, hi). Empty if hi <= lo.
  static IndexSet interval(Index lo, Index hi);

  /// Builds a set from arbitrary (possibly unsorted, duplicated) indices.
  static IndexSet fromIndices(std::vector<Index> indices);

  static IndexSet fromRuns(std::vector<Run> runs);

  /// As fromRuns(vector), but borrowing the caller's buffer (the kernels
  /// pass per-thread arena scratch, so the per-piece fan-out allocates no
  /// transient run vectors).
  static IndexSet fromRuns(std::span<const Run> runs);

  IndexSet(std::initializer_list<Index> indices);

  [[nodiscard]] bool empty() const { return chunks_.empty(); }
  [[nodiscard]] Index size() const { return size_; }

  /// Number of logical runs (maximal intervals), container-independent.
  [[nodiscard]] std::size_t runCount() const { return runCount_; }

  /// The logical runs, sorted. Materialized lazily from the chunk
  /// containers on first call (thread-safe) and cached for the set's
  /// lifetime; run-shaped sets serve the pool directly without a copy.
  [[nodiscard]] std::span<const Run> runs() const;

  /// Smallest index in the set. Precondition: !empty().
  [[nodiscard]] Index lowerBound() const;
  /// One past the largest index in the set. Precondition: !empty().
  [[nodiscard]] Index upperBound() const;

  [[nodiscard]] bool contains(Index i) const;
  [[nodiscard]] bool containsAll(const IndexSet& other) const;
  [[nodiscard]] bool intersects(const IndexSet& other) const;

  [[nodiscard]] IndexSet unionWith(const IndexSet& other) const;
  [[nodiscard]] IndexSet intersectWith(const IndexSet& other) const;
  [[nodiscard]] IndexSet subtract(const IndexSet& other) const;

  /// Calls fn(i) for every index in ascending order.
  void forEach(const std::function<void(Index)>& fn) const;

  /// All indices, ascending. Intended for tests and small sets.
  [[nodiscard]] std::vector<Index> toVector() const;

  /// Human-readable form like "{[0,4) [7,9)}".
  [[nodiscard]] std::string toString() const;

  // ---- Representation introspection (tests, snapshots, observability) ----

  /// Number of populated chunks.
  [[nodiscard]] std::size_t chunkCount() const { return chunks_.size(); }
  /// Number of chunks currently stored as bitmaps.
  [[nodiscard]] std::size_t bitmapChunkCount() const;

  /// One chunk of the hybrid representation, exposed read-only. Exactly one
  /// of `runs` / `words` is non-empty, matching the chunk's container.
  struct ChunkView {
    Index base = 0;  // chunk covers [base, base + detail::kChunkBits)
    std::span<const Run> runs;
    std::span<const std::uint64_t> words;
  };
  /// Visits every chunk in ascending index order. This is the hook the
  /// snapshot writer uses to serialize dense chunks as raw bitmap words.
  void visitChunks(const std::function<void(const ChunkView&)>& fn) const;

  /// Process-global set-algebra tallies, whose per-kernel deltas the
  /// evaluator adds to its dpl.indexset.* gauges: container conversions performed while canonicalizing chunk
  /// results, and 64-bit words processed by the bitmap op kernels.
  struct Stats {
    std::uint64_t containerSwitches = 0;
    std::uint64_t bitmapOpWords = 0;
  };
  static Stats stats();

  friend bool operator==(const IndexSet& a, const IndexSet& b) {
    // The representation is canonical (container choice is a pure function
    // of chunk contents; pools are laid out in chunk order), so structural
    // equality is exactly set equality. The lazy runs cache is excluded.
    return a.size_ == b.size_ && a.runCount_ == b.runCount_ &&
           a.chunks_ == b.chunks_ && a.words_ == b.words_ &&
           a.runPool_ == b.runPool_;
  }

 private:
  friend struct detail::Assembler;

  [[nodiscard]] std::span<const Run> chunkRuns(const detail::Chunk& c) const {
    return {runPool_.data() + c.off, c.len};
  }
  [[nodiscard]] const std::uint64_t* chunkWords(const detail::Chunk& c) const {
    return words_.data() + c.off;
  }
  /// Returns the chunk as bitmap words, materializing run containers into
  /// `scratch` (kChunkWords capacity) when needed.
  [[nodiscard]] const std::uint64_t* wordsOrFill(const detail::Chunk& c,
                                                 std::uint64_t* scratch) const;
  [[nodiscard]] std::vector<Run> materializeRuns() const;

  std::vector<detail::Chunk> chunks_;      // ascending by id
  std::vector<std::uint64_t> words_;       // bitmap containers, concatenated
  std::vector<Run> runPool_;               // run containers, concatenated
  Index size_ = 0;
  std::size_t runCount_ = 0;
  /// True when runPool_ already equals the logical run sequence (no bitmap
  /// chunks, no runs split at chunk boundaries): runs() then returns the
  /// pool itself.
  bool poolIsLogicalRuns_ = false;
  mutable std::atomic<const std::vector<Run>*> runsCache_{nullptr};
};

std::ostream& operator<<(std::ostream& os, const IndexSet& set);

/// Accumulates indices one at a time and coalesces them into an IndexSet.
/// Appending in ascending order is O(1) amortized; arbitrary order falls back
/// to a sort at build() time.
class IndexSetBuilder {
 public:
  /// Pre-sizes the pending-run buffer — callers that know the run count of
  /// their input (e.g. Partition construction from existing subregions)
  /// avoid the growth reallocations in the fan-out loops.
  void reserve(std::size_t runs) { runs_.reserve(runs); }

  void add(Index i);
  void addRun(Index lo, Index hi);

  /// Consumes the builder.
  [[nodiscard]] IndexSet build();

 private:
  std::vector<Run> runs_;  // coalesced on the fly while input stays sorted
  bool sorted_ = true;
};

}  // namespace dpart::region
