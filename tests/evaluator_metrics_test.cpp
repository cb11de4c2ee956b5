// The evaluator's per-operator tallies live only in the MetricsRegistry it
// is given: a fixed dpl.op.* schema from the moment a registry is
// installed, figures that match a hand count, and sums across evaluators
// that share one registry.

#include <gtest/gtest.h>

#include <string>

#include "dpl/evaluator.hpp"
#include "support/metrics.hpp"

namespace dpart::dpl {
namespace {

using region::FieldType;
using region::Index;
using region::Region;
using region::World;

constexpr const char* kOps[] = {"equal",  "image",     "preimage",
                                "union",  "intersect", "subtract"};
constexpr const char* kFamilies[] = {"dpl.op.calls", "dpl.op.ms",
                                     "dpl.op.elements", "dpl.op.runs"};

using Entry = MetricsRegistry::Snapshot::Entry;

/// The snapshot entry for (name, op), or nullptr: reading the snapshot
/// (rather than registry.gauge()) never creates the metric it checks.
const Entry* find(const MetricsRegistry::Snapshot& snap,
                  const std::string& name, const std::string& op) {
  for (const Entry& e : snap.entries) {
    if (e.name == name && e.labels == MetricLabels{{"op", op}}) return &e;
  }
  return nullptr;
}

double value(const MetricsRegistry& registry, const std::string& name,
             const std::string& op) {
  const MetricsRegistry::Snapshot snap = registry.snapshot();
  const Entry* e = find(snap, name, op);
  EXPECT_NE(e, nullptr) << name << "{op=" << op << "}";
  return e == nullptr ? -1 : e->value;
}

// Particles point at cells in contiguous pairs (particle p -> cell p / 2),
// so with two pieces every subregion below is a single run.
class EvaluatorMetrics : public ::testing::Test {
 protected:
  void SetUp() override {
    Region& particles = world.addRegion("Particles", 8);
    world.addRegion("Cells", 4);
    particles.addField("cell", FieldType::Idx);
    auto cell = particles.idx("cell");
    for (Index p = 0; p < 8; ++p) cell[p] = p / 2;
    world.defineFieldFn("Particles", "cell", "Cells");

    // One call of each operator; the set operators read bound symbols, so
    // no operand is evaluated twice.
    prog.append("PC", equalOf("Cells"));
    prog.append("PP",
                preimage("Particles", "Particles[.].cell", symbol("PC")));
    prog.append("PI", image(symbol("PP"), "Particles[.].cell", "Cells"));
    prog.append("PU", unionOf(symbol("PC"), symbol("PI")));
    prog.append("PX", intersectOf(symbol("PP"), symbol("PP")));
    prog.append("PS", subtractOf(symbol("PP"), symbol("PP")));
  }

  /// Expects every count family at `times` the figures of one run of prog.
  void expectFigures(const MetricsRegistry& registry, double times) {
    // elements: equal and preimage scan their region; image its argument;
    // the set operators both operands. runs: one per non-empty subregion.
    const struct {
      const char* op;
      double elements;
      double runs;
    } want[] = {{"equal", 4, 2},     {"preimage", 8, 2}, {"image", 8, 2},
                {"union", 8, 2},     {"intersect", 16, 2},
                {"subtract", 16, 0}};
    for (const auto& w : want) {
      EXPECT_EQ(value(registry, "dpl.op.calls", w.op), times) << w.op;
      EXPECT_EQ(value(registry, "dpl.op.elements", w.op), times * w.elements)
          << w.op;
      EXPECT_EQ(value(registry, "dpl.op.runs", w.op), times * w.runs)
          << w.op;
      EXPECT_GE(value(registry, "dpl.op.ms", w.op), 0.0) << w.op;
    }
  }

  World world;
  Program prog;
};

TEST_F(EvaluatorMetrics, AllSixOpsAppearAtZeroOnceInstalled) {
  MetricsRegistry registry;
  Evaluator ev(world, 2);
  EXPECT_TRUE(registry.snapshot().entries.empty());
  ev.setMetrics(&registry);

  const MetricsRegistry::Snapshot snap = registry.snapshot();
  for (const char* family : kFamilies) {
    for (const char* op : kOps) {
      const Entry* e = find(snap, family, op);
      ASSERT_NE(e, nullptr) << family << "{op=" << op << "}";
      EXPECT_EQ(e->kind, Entry::Kind::Gauge);
      EXPECT_EQ(e->value, 0.0);
    }
  }
  // Plus the two dpl.indexset.* gauges, and nothing else.
  EXPECT_EQ(snap.entries.size(), std::size(kOps) * std::size(kFamilies) + 2);
}

TEST_F(EvaluatorMetrics, TalliesMatchHandComputedFigures) {
  MetricsRegistry registry;
  Evaluator ev(world, 2);
  ev.setMetrics(&registry);
  ev.run(prog);
  expectFigures(registry, 1);
  EXPECT_EQ(ev.counters().cacheMisses, 6u);
  EXPECT_EQ(ev.counters().cacheHits, 0u);
}

TEST_F(EvaluatorMetrics, EvaluatorsSharingARegistrySum) {
  MetricsRegistry registry;
  Evaluator serial(world, 2);
  Evaluator pooled(world, 2, /*threads=*/2);
  serial.setMetrics(&registry);
  pooled.setMetrics(&registry);
  serial.run(prog);
  pooled.run(prog);
  expectFigures(registry, 2);
}

TEST_F(EvaluatorMetrics, NullRegistryRecordsNothing) {
  MetricsRegistry registry;
  Evaluator ev(world, 2);
  ev.setMetrics(&registry);
  ev.setMetrics(nullptr);
  ev.run(prog);
  for (const char* op : kOps) {
    EXPECT_EQ(value(registry, "dpl.op.calls", op), 0.0) << op;
  }
  EXPECT_EQ(ev.counters().cacheMisses, 6u);
}

}  // namespace
}  // namespace dpart::dpl
