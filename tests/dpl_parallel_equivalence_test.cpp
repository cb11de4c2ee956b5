// Differential tests for the parallel, memoizing evaluation pipeline: the
// pooled kernels and the memo cache must be observationally identical to the
// serial reference semantics, across point- and range-valued fns,
// out-of-bounds fn values, aliased sources, and empty subregions.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "dpl/evaluator.hpp"
#include "region/dpl_ops.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace dpart::dpl {
namespace {

using region::FieldType;
using region::Index;
using region::IndexSet;
using region::Partition;
using region::Region;
using region::Run;
using region::World;

// A world with two regions A and B and fns in both directions:
//   A[.].to : A -> B (point, with out-of-bounds values)
//   A[.].span : A -> B (range, with empty and partially out-of-bounds runs)
//   B[.].to / B[.].span : the mirror images
//   affAB / affBA : affine maps that walk off both ends of the codomain
struct RandomWorld {
  RandomWorld(Rng& rng, Index n, Index m) : world() {
    Region& a = world.addRegion("A", n);
    Region& b = world.addRegion("B", m);
    fill(rng, a, n, m);
    fill(rng, b, m, n);
    world.defineFieldFn("A", "to", "B");
    world.defineRangeFn("A", "span", "B");
    world.defineFieldFn("B", "to", "A");
    world.defineRangeFn("B", "span", "A");
    world.defineAffineFn("affAB", "A", "B",
                         [m](Index i) { return i * 3 - m / 2; });
    world.defineAffineFn("affBA", "B", "A",
                         [n](Index i) { return n - 1 - i * 2; });
  }

  static void fill(Rng& rng, Region& r, Index n, Index codomain) {
    r.addField("to", FieldType::Idx);
    r.addField("span", FieldType::Range);
    auto to = r.idx("to");
    auto span = r.range("span");
    for (Index i = 0; i < n; ++i) {
      // ~10% of pointers fall outside [0, codomain) on either side.
      to[static_cast<std::size_t>(i)] = rng.range(-3, codomain + 3);
      // Runs: ~20% empty, bounds free to stick out of the codomain.
      Index lo = rng.range(-2, codomain + 2);
      Index len = rng.chance(0.2) ? 0 : rng.range(0, 5);
      span[static_cast<std::size_t>(i)] = Run{lo, lo + len};
    }
  }

  World world;
};

// A random partition with `pieces` subregions over [0, n): possibly aliased,
// possibly with empty subregions, possibly not covering the region.
Partition randomPartition(Rng& rng, const std::string& regionName, Index n,
                          std::size_t pieces) {
  std::vector<IndexSet> subs;
  subs.reserve(pieces);
  for (std::size_t j = 0; j < pieces; ++j) {
    if (rng.chance(0.15) || n == 0) {
      subs.push_back(IndexSet());  // empty subregion
      continue;
    }
    std::vector<Run> runs;
    const std::size_t k = 1 + rng.below(4);
    for (std::size_t t = 0; t < k; ++t) {
      const Index lo = rng.range(0, n);
      const Index len = rng.range(0, std::min<Index>(n - lo, 16) + 1);
      runs.push_back(Run{lo, lo + len});
    }
    subs.push_back(IndexSet::fromRuns(std::move(runs)));
  }
  return Partition(regionName, std::move(subs));
}

TEST(DplParallelEquivalence, KernelsMatchSerialReference) {
  ThreadPool pool(4);
  for (std::uint64_t trial = 0; trial < 30; ++trial) {
    Rng rng(0x9e3779b9 + trial);
    const Index n = rng.range(1, 600);
    const Index m = rng.range(1, 400);
    RandomWorld w(rng, n, m);
    const std::size_t pieces = 1 + rng.below(6);
    const Partition srcA = randomPartition(rng, "A", n, pieces);
    const Partition srcB = randomPartition(rng, "B", m, pieces);

    for (const char* fn : {"A[.].to", "A[.].span", "affAB"}) {
      EXPECT_EQ(region::imagePartition(w.world, srcA, fn, "B"),
                region::imagePartition(w.world, srcA, fn, "B", &pool))
          << "image fn=" << fn << " trial=" << trial;
    }
    for (const char* fn : {"A[.].to", "A[.].span", "affAB"}) {
      EXPECT_EQ(region::preimagePartition(w.world, "A", fn, srcB),
                region::preimagePartition(w.world, "A", fn, srcB, &pool))
          << "preimage fn=" << fn << " trial=" << trial;
    }
    const Partition other = randomPartition(rng, "A", n, pieces);
    EXPECT_EQ(region::unionPartitions(srcA, other),
              region::unionPartitions(srcA, other, &pool));
    EXPECT_EQ(region::intersectPartitions(srcA, other),
              region::intersectPartitions(srcA, other, &pool));
    EXPECT_EQ(region::subtractPartitions(srcA, other),
              region::subtractPartitions(srcA, other, &pool));
  }
}

// Whole-program differential: serial + memo-off vs pooled + memo-on.
TEST(DplParallelEquivalence, ProgramsMatchSerialReference) {
  for (std::uint64_t trial = 0; trial < 15; ++trial) {
    Rng rng(0xc0ffee + trial);
    const Index n = rng.range(1, 500);
    const Index m = rng.range(1, 300);
    RandomWorld w(rng, n, m);
    const std::size_t pieces = 1 + rng.below(5);

    Program prog;
    prog.append("PB", equalOf("B"));
    prog.append("Q1", preimage("A", "A[.].to", symbol("PB")));
    prog.append("Q2", image(symbol("Q1"), "A[.].span", "B"));
    prog.append("Q3", unionOf(preimage("A", "A[.].to", symbol("PB")),
                              preimage("A", "affAB", symbol("PB"))));
    prog.append("Q4", subtractOf(symbol("Q1"), symbol("Q3")));
    prog.append("Q5", intersectOf(image(symbol("Q3"), "A[.].to", "B"),
                                  image(symbol("Q3"), "A[.].to", "B")));

    Evaluator serial(w.world, pieces);
    serial.setMemoize(false);
    Evaluator parallel(w.world, pieces, /*threads=*/4);
    const Partition ext = randomPartition(rng, "B", m, pieces);
    serial.bind("X", ext);
    parallel.bind("X", ext);
    prog.append("Q6", unionOf(symbol("Q2"), symbol("X")));

    const auto& envA = serial.run(prog);
    const auto& envB = parallel.run(prog);
    ASSERT_EQ(envA.size(), envB.size());
    for (const auto& [name, part] : envA) {
      EXPECT_EQ(part, envB.at(name)) << name << " trial=" << trial;
    }
    EXPECT_EQ(serial.counters().cacheHits, 0u);
    EXPECT_GT(parallel.counters().cacheHits, 0u)
        << "duplicated subtrees should hit the memo cache";
  }
}

TEST(DplParallelEquivalence, DuplicatedSubexpressionsHitCache) {
  Rng rng(42);
  RandomWorld w(rng, 64, 32);
  MetricsRegistry registry;
  Evaluator ev(w.world, 4);
  ev.setMetrics(&registry);
  Program prog;
  prog.append("PB", equalOf("B"));
  // The same preimage subtree appears three times across two statements.
  prog.append("Q1", preimage("A", "A[.].to", symbol("PB")));
  prog.append("Q2", unionOf(preimage("A", "A[.].to", symbol("PB")),
                            preimage("A", "A[.].to", symbol("PB"))));
  ev.run(prog);
  EXPECT_GE(ev.counters().cacheHits, 2u);
  EXPECT_GT(ev.counters().cacheMisses, 0u);

  Evaluator ref(w.world, 4);
  ref.setMemoize(false);
  const auto& envRef = ref.run(prog);
  for (const auto& [name, part] : envRef) {
    EXPECT_EQ(part, ev.partition(name)) << name;
  }
  const auto preimageGauge = [&](const std::string& name) {
    for (const auto& e : registry.snapshot().entries) {
      if (e.name == name && e.labels == MetricLabels{{"op", "preimage"}}) {
        return e.value;
      }
    }
    ADD_FAILURE() << name << "{op=preimage} is not in the registry";
    return 0.0;
  };
  EXPECT_GT(preimageGauge("dpl.op.calls"), 0.0);
  EXPECT_GT(preimageGauge("dpl.op.elements"), 0.0);
}

TEST(DplParallelEquivalence, CommutativeOperandOrderIsCanonicalized) {
  Rng rng(7);
  RandomWorld w(rng, 40, 20);
  Evaluator ev(w.world, 2);
  ev.bind("P", randomPartition(rng, "A", 40, 2));
  ev.bind("Q", randomPartition(rng, "A", 40, 2));
  const ExprPtr pq = unionOf(image(symbol("P"), "A[.].to", "B"),
                             image(symbol("Q"), "A[.].to", "B"));
  const ExprPtr qp = unionOf(image(symbol("Q"), "A[.].to", "B"),
                             image(symbol("P"), "A[.].to", "B"));
  const Partition first = ev.eval(pq);
  const std::uint64_t missesAfterFirst = ev.counters().cacheMisses;
  const Partition second = ev.eval(qp);  // same sets, flipped operand order
  EXPECT_EQ(first, second);
  EXPECT_EQ(ev.counters().cacheMisses, missesAfterFirst);
  // The union node itself hits (canonical operand order), short-circuiting
  // before the child images are even consulted.
  EXPECT_GE(ev.counters().cacheHits, 1u);
}

TEST(DplParallelEquivalence, RebindingInvalidatesCache) {
  Rng rng(11);
  RandomWorld w(rng, 40, 20);
  Evaluator ev(w.world, 2);
  ev.bind("P", Partition("A", {IndexSet::interval(0, 10), IndexSet()}));
  const ExprPtr e = image(symbol("P"), "A[.].to", "B");
  const Partition before = ev.eval(e);
  ev.bind("P", Partition("A", {IndexSet::interval(10, 40), IndexSet()}));
  const Partition after = ev.eval(e);
  // The rebound symbol must not serve the stale cached image.
  Evaluator ref(w.world, 2);
  ref.setMemoize(false);
  ref.bind("P", Partition("A", {IndexSet::interval(10, 40), IndexSet()}));
  EXPECT_EQ(after, ref.eval(e));
}

TEST(DplParallelEquivalence, EmptyRegionAndEmptyPartitionEdgeCases) {
  ThreadPool pool(3);
  World world;
  world.addRegion("A", 0);
  Region& b = world.addRegion("B", 5);
  b.addField("to", FieldType::Idx);
  auto to = b.idx("to");
  for (Index i = 0; i < 5; ++i) to[static_cast<std::size_t>(i)] = 7;  // OOB
  world.defineFieldFn("B", "to", "A");

  const Partition emptySrc("B", {IndexSet(), IndexSet(), IndexSet()});
  EXPECT_EQ(region::imagePartition(world, emptySrc, "B[.].to", "A"),
            region::imagePartition(world, emptySrc, "B[.].to", "A", &pool));
  const Partition pa("A", {IndexSet(), IndexSet()});
  EXPECT_EQ(region::preimagePartition(world, "B", "B[.].to", pa),
            region::preimagePartition(world, "B", "B[.].to", pa, &pool));
  // All fn values miss region A entirely: images are empty.
  const Partition full("B", {IndexSet::interval(0, 5), IndexSet()});
  const Partition img =
      region::imagePartition(world, full, "B[.].to", "A", &pool);
  EXPECT_TRUE(img.sub(0).empty());
}

}  // namespace
}  // namespace dpart::dpl
