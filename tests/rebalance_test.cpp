// Tests for the skew-aware adaptive repartitioning layer: the Rebalancer's
// policy machinery (warmup, trigger, hysteresis, cooldown, cap) driven by
// synthetic metrics, the per-index weight estimator, the equal-base
// resolution on real plans, and an end-to-end skewed-SpMV Session run that
// must rebalance, stay legal, and compute bitwise-identical results to the
// serial reference.

#include "runtime/rebalance.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/spmv.hpp"
#include "dpl/expr.hpp"
#include "dpl/program.hpp"
#include "ir/interp.hpp"
#include "parallelize/parallelize.hpp"
#include "region/dpl_ops.hpp"
#include "runtime/session.hpp"
#include "support/metrics.hpp"

namespace dpart::runtime {
namespace {

using region::Index;
using region::IndexSet;
using region::Partition;
using region::World;

// Writes one synthetic launch's per-piece seconds into the registry, the
// way the executor does after a real launch.
void publishLaunch(MetricsRegistry& mx, const std::string& loop,
                   const std::vector<double>& pieceSeconds) {
  for (std::size_t j = 0; j < pieceSeconds.size(); ++j) {
    taskSecondsGauge(mx, loop, j).add(pieceSeconds[j]);
  }
  launchCounter(mx, loop).inc();
}

RebalancePolicy testPolicy() {
  RebalancePolicy p;
  p.enabled = true;
  p.triggerImbalance = 1.5;
  p.hysteresis = 0.2;
  p.warmupLaunches = 2;
  p.cooldownLaunches = 3;
  p.maxRebalances = 2;
  return p;
}

TEST(Rebalancer, WarmupBlocksEarlyTrigger) {
  MetricsRegistry mx;
  Rebalancer rb(testPolicy(), mx);
  rb.observe("l", 2);  // establishes the window baseline (zero so far)
  publishLaunch(mx, "l", {4.0, 1.0});  // imbalance 1.6 >= trigger
  rb.observe("l", 2);
  EXPECT_FALSE(rb.shouldRebalance("l")) << "one launch is inside warmup";
  publishLaunch(mx, "l", {4.0, 1.0});
  rb.observe("l", 2);
  EXPECT_TRUE(rb.shouldRebalance("l"));
  EXPECT_NEAR(rb.imbalance("l"), 1.6, 1e-9);
}

TEST(Rebalancer, BalancedLoopNeverTriggers) {
  MetricsRegistry mx;
  Rebalancer rb(testPolicy(), mx);
  for (int i = 0; i < 10; ++i) {
    publishLaunch(mx, "l", {1.0, 1.05, 0.95, 1.0});
    rb.observe("l", 4);
    EXPECT_FALSE(rb.shouldRebalance("l")) << "launch " << i;
  }
}

// Noise on a shared host makes some piece the slowest in each launch, but
// not the same one: only a piece that is slow every time is skew.
TEST(Rebalancer, RotatingSlowestPieceNeverTriggers) {
  MetricsRegistry mx;
  Rebalancer rb(testPolicy(), mx);
  rb.observe("l", 4);  // establishes the window baseline
  for (int i = 0; i < 10; ++i) {
    // Each launch and the window mean sit at ~1.6x imbalance, past the 1.5
    // trigger, but pieces 0 and 1 take turns being the slowest.
    if (i % 2 == 0) {
      publishLaunch(mx, "l", {4.0, 3.9, 1.0, 1.0});
    } else {
      publishLaunch(mx, "l", {3.9, 4.0, 1.0, 1.0});
    }
    rb.observe("l", 4);
    EXPECT_GE(rb.imbalance("l"), 1.5) << "launch " << i;
    EXPECT_FALSE(rb.shouldRebalance("l")) << "launch " << i;
  }
}

TEST(Rebalancer, ConsistentlySlowPieceTriggers) {
  MetricsRegistry mx;
  Rebalancer rb(testPolicy(), mx);
  rb.observe("l", 4);  // establishes the window baseline
  publishLaunch(mx, "l", {4.0, 3.9, 1.0, 1.0});
  rb.observe("l", 4);
  EXPECT_FALSE(rb.shouldRebalance("l")) << "one launch shows no persistence";
  publishLaunch(mx, "l", {4.0, 3.9, 1.0, 1.0});
  rb.observe("l", 4);
  EXPECT_TRUE(rb.shouldRebalance("l"));
}

TEST(Rebalancer, CooldownAndHysteresisAfterFirstRebalance) {
  MetricsRegistry mx;
  Rebalancer rb(testPolicy(), mx);
  World world;
  world.addRegion("R", 8);
  const Partition iter = region::equalPartition(world, "R", 2);

  rb.observe("l", 2);  // establishes the window baseline
  publishLaunch(mx, "l", {4.0, 1.0});
  publishLaunch(mx, "l", {4.0, 1.0});
  rb.observe("l", 2);
  ASSERT_TRUE(rb.shouldRebalance("l"));
  const Partition weighted = rb.rebuild(world, "R", iter, "l");
  EXPECT_EQ(rb.rebalances(), 1u);
  // The heavy piece 0 shrinks: weights 4/4=1 per index vs 1/4 per index,
  // so the balanced cut lands after ~2 of the 8 indices.
  EXPECT_LT(weighted.sub(0).size(), iter.sub(0).size());

  // rebuild() restarted the window at the current metric values. The same
  // skew must now survive the cooldown (max(warmup, cooldown) = 3 launches)
  // AND beat the widened threshold 1.5 * 1.2 = 1.8.
  publishLaunch(mx, "l", {4.0, 1.0});  // imbalance 1.6 < 1.8
  publishLaunch(mx, "l", {4.0, 1.0});
  publishLaunch(mx, "l", {4.0, 1.0});
  rb.observe("l", 2);
  EXPECT_FALSE(rb.shouldRebalance("l")) << "hysteresis band must hold";

  // A genuinely worse skew beats the widened threshold: window means mix
  // 3x{4,1} with 3x{20,1} -> piece 0 mean 12, imbalance 12/6.5 = 1.846.
  for (int i = 0; i < 3; ++i) publishLaunch(mx, "l", {20.0, 1.0});
  rb.observe("l", 2);
  EXPECT_TRUE(rb.shouldRebalance("l"));
  static_cast<void>(rb.rebuild(world, "R", iter, "l"));
  EXPECT_EQ(rb.rebalances(), 2u);
  // The cap (2) now blocks any further trigger, however bad the skew.
  for (int i = 0; i < 5; ++i) publishLaunch(mx, "l", {20.0, 1.0});
  rb.observe("l", 2);
  EXPECT_FALSE(rb.shouldRebalance("l")) << "maxRebalances cap must hold";
}

TEST(Rebalancer, PieceCountChangeDiscardsWindow) {
  MetricsRegistry mx;
  Rebalancer rb(testPolicy(), mx);
  rb.observe("l", 2);  // establishes the window baseline
  publishLaunch(mx, "l", {4.0, 1.0});
  publishLaunch(mx, "l", {4.0, 1.0});
  rb.observe("l", 2);
  ASSERT_TRUE(rb.shouldRebalance("l"));
  // Elastic shrink to 1 piece: the old times describe a different machine.
  rb.observe("l", 1);
  EXPECT_FALSE(rb.shouldRebalance("l"));
}

TEST(Rebalancer, MinTaskSecondsFiltersNoise) {
  RebalancePolicy p = testPolicy();
  p.minTaskSeconds = 0.5;
  MetricsRegistry mx;
  Rebalancer rb(p, mx);
  rb.observe("l", 2);  // establishes the window baseline
  for (int i = 0; i < 4; ++i) publishLaunch(mx, "l", {0.004, 0.001});
  rb.observe("l", 2);
  EXPECT_FALSE(rb.shouldRebalance("l"))
      << "sub-threshold launches are noise, not signal";
  EXPECT_EQ(rb.imbalance("l"), 0.0);
}

TEST(Rebalancer, EstimateWeightsSpreadsPieceTimeOverIndices) {
  World world;
  world.addRegion("R", 10);
  const Partition iter(
      "R", {IndexSet::interval(0, 5), IndexSet::interval(5, 10)});
  const std::vector<double> weights =
      Rebalancer::estimateWeights(iter, {5.0, 1.0}, 10);
  ASSERT_EQ(weights.size(), 10u);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_NEAR(weights[i], 1.0, 1e-12);
  for (std::size_t i = 5; i < 10; ++i) EXPECT_NEAR(weights[i], 0.2, 1e-12);
}

TEST(Rebalancer, EstimateWeightsFillsUncoveredWithMean) {
  World world;
  world.addRegion("R", 10);
  // Pieces cover only [0, 6); the tail gets the mean covered weight.
  const Partition iter(
      "R", {IndexSet::interval(0, 2), IndexSet::interval(2, 6)});
  const std::vector<double> weights =
      Rebalancer::estimateWeights(iter, {4.0, 4.0}, 10);
  // Covered: 2 indices at 2.0, 4 indices at 1.0 -> mean 8/6.
  for (std::size_t i = 6; i < 10; ++i) {
    EXPECT_NEAR(weights[i], 8.0 / 6.0, 1e-12);
  }
}

TEST(EqualBase, ResolvedOnSpmvPlanAndMissingOnForeignSymbol) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 64;
  p.pieces = 2;
  apps::SpmvApp app(p);
  parallelize::AutoParallelizer ap(app.world());
  const parallelize::ParallelPlan plan = ap.plan(app.program());
  ASSERT_FALSE(plan.loops.empty());

  const std::string base =
      parallelize::equalBaseSymbol(plan, plan.loops[0]);
  ASSERT_FALSE(base.empty());
  bool foundEqualDef = false;
  for (const dpl::Stmt& s : plan.dpl.stmts()) {
    if (s.lhs == base) {
      EXPECT_EQ(s.rhs->kind, dpl::ExprKind::Equal);
      EXPECT_EQ(s.rhs->region, plan.loops[0].loop->iterRegion);
      foundEqualDef = true;
    }
  }
  EXPECT_TRUE(foundEqualDef);

  parallelize::PlannedLoop foreign = plan.loops[0];
  foreign.iterPartition = "no_such_symbol";
  EXPECT_EQ(parallelize::equalBaseSymbol(plan, foreign), "");
}

TEST(ProgramSurgery, WithoutDefinitionsDropsOnlyNamedSymbols) {
  dpl::Program prog;
  prog.append("A", dpl::equalOf("R"));
  prog.append("B", dpl::image(dpl::symbol("A"), "f", "S"));
  prog.append("C", dpl::symbol("B"));
  const dpl::Program cut = prog.withoutDefinitions({"A"});
  ASSERT_EQ(cut.size(), 2u);
  EXPECT_EQ(cut.stmts()[0].lhs, "B");
  EXPECT_EQ(cut.stmts()[1].lhs, "C");
}

// End-to-end: a heavily skewed SpMV must trigger at least one rebalance,
// keep every partition legal (verifyPartitions is on, and rebalances verify
// unconditionally), and keep the computed vector bitwise identical to the
// serial reference — the rebalance only moves work, never changes it.
TEST(AdaptiveSession, SkewedSpmvRebalancesAndStaysCorrect) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 512;
  p.nnzPerRow = 6;
  p.pieces = 4;
  p.skew = 1.0;
  constexpr int kLaunches = 6;

  apps::SpmvApp reference(p);
  for (int i = 0; i < kLaunches; ++i) {
    ir::runSerial(reference.world(), reference.program());
  }

  apps::SpmvApp app(p);
  runtime::ExecOptions opts;
  opts.verifyPartitions = true;
  RebalancePolicy policy;
  policy.warmupLaunches = 2;
  policy.triggerImbalance = 1.3;
  Session session = Session::parallelize(app.program())
                        .pieces(p.pieces)
                        .options(opts)
                        .adaptive(policy)
                        .build(app.world());
  for (int i = 0; i < kLaunches; ++i) session.run();

  EXPECT_GE(session.rebalances(), 1u);
  EXPECT_EQ(session.executor().rebalances(), session.rebalances());
  EXPECT_GE(session.metrics().gauge("executor.rebalances").value(), 1.0);

  auto want = reference.world().region("Y").f64("val");
  auto got = app.world().region("Y").f64("val");
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i], got[i]) << "Y.val diverges at " << i;
  }

  // The rebalanced iteration partition is weighted: the heavy prefix piece
  // must have shrunk below the unweighted share.
  const std::string iterSym = session.plan().loops[0].iterPartition;
  const Partition& iter = session.partition(iterSym);
  EXPECT_LT(static_cast<Index>(iter.sub(0).size()),
            app.rows() / static_cast<Index>(p.pieces));
}

// Uniform workloads must never rebalance (the trigger + hysteresis have to
// reject scheduler noise). Large pieces keep per-task times well above
// timing jitter.
TEST(AdaptiveSession, UniformSpmvNeverRebalances) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 8192;
  p.nnzPerRow = 6;
  p.pieces = 4;
  p.skew = 0;

  apps::SpmvApp app(p);
  RebalancePolicy policy;
  policy.warmupLaunches = 1;
  policy.minTaskSeconds = 1e-5;
  Session session = Session::parallelize(app.program())
                        .pieces(p.pieces)
                        .adaptive(policy)
                        .build(app.world());
  for (int i = 0; i < 6; ++i) session.run();
  EXPECT_EQ(session.rebalances(), 0u);
}

// A direct PlanExecutor with adaptive mode but no metrics registry must
// create its own (the signal has to live somewhere) and still rebalance.
TEST(AdaptiveSession, BareExecutorOwnsItsRegistry) {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 512;
  p.nnzPerRow = 6;
  p.pieces = 4;
  p.skew = 1.0;
  apps::SpmvApp app(p);
  parallelize::AutoParallelizer ap(app.world());
  const parallelize::ParallelPlan plan = ap.plan(app.program());
  ExecOptions opts;
  opts.adaptive.enabled = true;
  opts.adaptive.warmupLaunches = 2;
  PlanExecutor exec(app.world(), plan, p.pieces, opts);
  for (int i = 0; i < 6; ++i) exec.run();
  EXPECT_GE(exec.rebalances(), 1u);
}

}  // namespace
}  // namespace dpart::runtime
