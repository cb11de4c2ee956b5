#include "parallelize/parallelize.hpp"

#include <gtest/gtest.h>

#include "apps/miniaero.hpp"
#include "ir/interp.hpp"
#include "runtime/executor.hpp"
#include "support/rng.hpp"

namespace dpart::parallelize {
namespace {

using region::FieldType;
using region::Index;
using region::IndexSet;
using region::Partition;
using region::World;

constexpr double kTol = 1e-9;

// Compares an f64 field between two worlds (serial reference vs parallel).
void expectFieldNear(const World& a, const World& b, const std::string& r,
                     const std::string& f) {
  auto fa = a.region(r).f64(f);
  auto fb = b.region(r).f64(f);
  ASSERT_EQ(fa.size(), fb.size());
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_NEAR(fa[i], fb[i], kTol) << r << "." << f << "[" << i << "]";
  }
}

// The paper's Figure 1 program: particles/cells with pointer and neighbor
// accesses, two loops.
struct Figure1App {
  static constexpr Index kParticles = 64;
  static constexpr Index kCells = 16;

  static void build(World& world, std::uint64_t seed) {
    auto& p = world.addRegion("Particles", kParticles);
    auto& c = world.addRegion("Cells", kCells);
    p.addField("cell", FieldType::Idx);
    p.addField("pos", FieldType::F64);
    c.addField("vel", FieldType::F64);
    c.addField("acc", FieldType::F64);
    Rng rng(seed);
    auto cell = p.idx("cell");
    auto pos = p.f64("pos");
    for (Index i = 0; i < kParticles; ++i) {
      cell[static_cast<std::size_t>(i)] = rng.range(0, kCells);
      pos[static_cast<std::size_t>(i)] = rng.uniform();
    }
    auto vel = c.f64("vel");
    auto acc = c.f64("acc");
    for (Index i = 0; i < kCells; ++i) {
      vel[static_cast<std::size_t>(i)] = rng.uniform();
      acc[static_cast<std::size_t>(i)] = rng.uniform();
    }
    world.defineFieldFn("Particles", "cell", "Cells");
    world.defineAffineFn("h", "Cells", "Cells",
                         [](Index i) { return (i + 1) % kCells; });
  }

  static ir::Program program() {
    ir::Program prog;
    prog.name = "figure1";
    {
      ir::LoopBuilder b("update_particles", "p", "Particles");
      b.loadIdx("c", "Particles", "cell", "p");
      b.loadF64("v1", "Cells", "vel", "c");
      b.apply("c2", "h", "c");
      b.loadF64("v2", "Cells", "vel", "c2");
      b.compute("d", {"v1", "v2"},
                [](auto a) { return 0.25 * a[0] + 0.125 * a[1]; });
      b.reduce("Particles", "pos", "p", "d");
      prog.loops.push_back(b.build());
    }
    {
      ir::LoopBuilder b("update_cells", "c", "Cells");
      b.loadF64("a1", "Cells", "acc", "c");
      b.apply("c2", "h", "c");
      b.loadF64("a2", "Cells", "acc", "c2");
      b.compute("d", {"a1", "a2"},
                [](auto a) { return 0.5 * a[0] + 0.25 * a[1]; });
      b.reduce("Cells", "vel", "c", "d");
      prog.loops.push_back(b.build());
    }
    return prog;
  }
};

TEST(Parallelize, Figure1PlanShape) {
  World world;
  Figure1App::build(world, 1);
  AutoParallelizer ap(world);
  ParallelPlan plan = ap.plan(Figure1App::program());

  EXPECT_EQ(plan.stats.parallelLoops, 2);
  // Program B of Figure 2: three constructed partitions after unification
  // (equal on Cells, preimage on Particles, image under h).
  EXPECT_EQ(plan.dpl.constructedPartitions(), 3u);
  const std::string prog = plan.dpl.toString();
  EXPECT_NE(prog.find("equal(Cells)"), std::string::npos);
  EXPECT_NE(prog.find("preimage(Particles, Particles[.].cell"),
            std::string::npos);
  EXPECT_NE(prog.find("h, Cells)"), std::string::npos);
  // Both loops share the Cells partition: loop 2's iteration partition is
  // the same symbol as loop 1's uncentered-read partition target.
  EXPECT_EQ(plan.loops.size(), 2u);
}

TEST(Parallelize, Figure1ExecutionMatchesSerial) {
  for (std::size_t pieces : {1u, 2u, 4u, 8u}) {
    World serial, parallel;
    Figure1App::build(serial, 7);
    Figure1App::build(parallel, 7);
    ir::Program prog = Figure1App::program();

    // Run three "time steps" each way.
    for (int step = 0; step < 3; ++step) ir::runSerial(serial, prog);

    AutoParallelizer ap(parallel);
    ParallelPlan plan = ap.plan(prog);
    runtime::ExecOptions opts;
    opts.validateAccesses = true;
    runtime::PlanExecutor exec(parallel, plan, pieces, opts);
    for (int step = 0; step < 3; ++step) exec.run();

    expectFieldNear(serial, parallel, "Particles", "pos");
    expectFieldNear(serial, parallel, "Cells", "vel");
  }
}

TEST(Parallelize, Figure1PartitionsAreLegal) {
  World world;
  Figure1App::build(world, 3);
  AutoParallelizer ap(world);
  ParallelPlan plan = ap.plan(Figure1App::program());
  runtime::PlanExecutor exec(world, plan, 4);
  exec.preparePartitions();
  // Iteration partitions are complete; loop 2's is also disjoint.
  const Partition& cells = exec.partition(plan.loops[1].iterPartition);
  EXPECT_TRUE(cells.isComplete(Figure1App::kCells));
  EXPECT_TRUE(cells.isDisjoint());
  const Partition& particles = exec.partition(plan.loops[0].iterPartition);
  EXPECT_TRUE(particles.isComplete(Figure1App::kParticles));
  EXPECT_TRUE(particles.isDisjoint());
}

// Figure 4 / Example 6: external constraint discharges all constraints
// except the h-image.
TEST(Parallelize, ExternalConstraintReusesUserPartitions) {
  World world;
  Figure1App::build(world, 5);

  // User partitions: pCells = contiguous blocks, pParticles = particles
  // grouped by cell ownership (the invariant of Figure 4's exchange code).
  const std::size_t pieces = 4;
  std::vector<IndexSet> cellSubs, particleSubs;
  auto cell = world.region("Particles").idx("cell");
  for (std::size_t j = 0; j < pieces; ++j) {
    const Index lo = static_cast<Index>(j) * Figure1App::kCells / 4;
    const Index hi = static_cast<Index>(j + 1) * Figure1App::kCells / 4;
    cellSubs.push_back(IndexSet::interval(lo, hi));
    std::vector<Index> mine;
    for (Index p = 0; p < Figure1App::kParticles; ++p) {
      if (cell[static_cast<std::size_t>(p)] >= lo &&
          cell[static_cast<std::size_t>(p)] < hi) {
        mine.push_back(p);
      }
    }
    particleSubs.push_back(IndexSet::fromIndices(std::move(mine)));
  }
  Partition pCells("Cells", std::move(cellSubs));
  Partition pParticles("Particles", std::move(particleSubs));

  constraint::System ext;
  ext.declareSymbol("pParticles", "Particles", /*fixed=*/true);
  ext.declareSymbol("pCells", "Cells", /*fixed=*/true);
  ext.addSubset(dpl::image(dpl::symbol("pParticles"), "Particles[.].cell",
                           "Cells"),
                dpl::symbol("pCells"));
  ext.addComp(dpl::symbol("pParticles"), "Particles");
  ext.addDisj(dpl::symbol("pParticles"));
  ext.addComp(dpl::symbol("pCells"), "Cells");
  ext.addDisj(dpl::symbol("pCells"));

  AutoParallelizer ap(world);
  ap.addExternalConstraint(ext);
  ParallelPlan plan = ap.plan(Figure1App::program());

  // Example 6's outcome: only the h-image partition is constructed.
  EXPECT_EQ(plan.dpl.constructedPartitions(), 1u);
  EXPECT_NE(plan.dpl.toString().find("image(pCells, h, Cells)"),
            std::string::npos);
  EXPECT_EQ(plan.loops[0].iterPartition, "pParticles");

  // And the parallel execution with the user partitions matches serial.
  World serial;
  Figure1App::build(serial, 5);
  ir::Program prog = Figure1App::program();
  ir::runSerial(serial, prog);

  runtime::ExecOptions opts;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(world, plan, pieces, opts);
  exec.bindExternal("pCells", pCells);
  exec.bindExternal("pParticles", pParticles);
  exec.run();
  expectFieldNear(serial, world, "Particles", "pos");
  expectFieldNear(serial, world, "Cells", "vel");
}

TEST(Parallelize, MissingExternalBindingThrows) {
  World world;
  Figure1App::build(world, 5);
  constraint::System ext;
  ext.declareSymbol("pCells", "Cells", /*fixed=*/true);
  ext.addComp(dpl::symbol("pCells"), "Cells");
  ext.addDisj(dpl::symbol("pCells"));
  AutoParallelizer ap(world);
  ap.addExternalConstraint(ext);
  ParallelPlan plan = ap.plan(Figure1App::program());
  runtime::PlanExecutor exec(world, plan, 2);
  EXPECT_THROW(exec.preparePartitions(), Error);
}

// Figure 7: single uncentered reduction — the disjoint-reduction strategy
// eliminates the buffer entirely (Section 5.1, Example 3).
TEST(Parallelize, SingleUncenteredReductionGoesDirect) {
  World world;
  world.addRegion("R", 40).addField("val", FieldType::F64);
  world.addRegion("S", 10).addField("acc", FieldType::F64);
  world.defineAffineFn("quarter", "R", "S", [](Index i) { return i / 4; });
  auto val = world.region("R").f64("val");
  for (Index i = 0; i < 40; ++i) val[static_cast<std::size_t>(i)] = double(i);

  ir::Program prog;
  ir::LoopBuilder b("scatter", "i", "R");
  b.apply("j", "quarter", "i");
  b.loadF64("x", "R", "val", "i");
  // A second loop makes R's iteration partition non-relaxable? No — this
  // single loop is relaxable, so disable relaxation to exercise the
  // disjoint-reduction path specifically.
  b.reduce("S", "acc", "j", "x");
  prog.loops.push_back(b.build());

  Options opts;
  opts.enableRelaxation = false;
  AutoParallelizer ap(world, opts);
  ParallelPlan plan = ap.plan(prog);
  ASSERT_EQ(plan.loops[0].reduces.size(), 1u);
  const auto& rp = plan.loops[0].reduces.begin()->second;
  EXPECT_EQ(rp.strategy, optimize::ReduceStrategy::Direct);
  // Iteration partition is the preimage of the equal reduction partition.
  EXPECT_NE(plan.dpl.toString().find("preimage(R, quarter"),
            std::string::npos);

  World serial;
  serial.addRegion("R", 40).addField("val", FieldType::F64);
  serial.addRegion("S", 10).addField("acc", FieldType::F64);
  serial.defineAffineFn("quarter", "R", "S", [](Index i) { return i / 4; });
  auto sval = serial.region("R").f64("val");
  for (Index i = 0; i < 40; ++i) sval[static_cast<std::size_t>(i)] = double(i);
  ir::runSerial(serial, prog);

  runtime::ExecOptions eopts;
  eopts.validateAccesses = true;
  runtime::PlanExecutor exec(world, plan, 5, eopts);
  exec.run();
  EXPECT_EQ(exec.bufferedElements(), 0u);  // no reduction buffers used
  expectFieldNear(serial, world, "S", "acc");
}

// Figure 11: two uncentered reductions — relaxation kicks in, the loop runs
// with guards, and results match serial execution.
TEST(Parallelize, Figure11RelaxedExecutionMatchesSerial) {
  auto buildWorld = [](World& world) {
    world.addRegion("R", 60).addField("val", FieldType::F64);
    world.addRegion("S", 30).addField("acc", FieldType::F64);
    world.defineAffineFn("f2", "R", "S", [](Index i) { return i / 2; });
    world.defineAffineFn("g2", "R", "S",
                         [](Index i) { return (i / 2 + 7) % 30; });
    auto val = world.region("R").f64("val");
    for (Index i = 0; i < 60; ++i) {
      val[static_cast<std::size_t>(i)] = 0.5 + double(i % 13);
    }
  };
  ir::Program prog;
  ir::LoopBuilder b("fig11", "i", "R");
  b.apply("j1", "f2", "i");
  b.apply("j2", "g2", "i");
  b.loadF64("x", "R", "val", "i");
  b.reduce("S", "acc", "j1", "x");
  b.reduce("S", "acc", "j2", "x");
  prog.loops.push_back(b.build());

  World serial;
  buildWorld(serial);
  ir::runSerial(serial, prog);

  World parallel;
  buildWorld(parallel);
  AutoParallelizer ap(parallel);
  ParallelPlan plan = ap.plan(prog);
  EXPECT_TRUE(plan.loops[0].relaxed);
  for (const auto& [_, rp] : plan.loops[0].reduces) {
    EXPECT_EQ(rp.strategy, optimize::ReduceStrategy::Guarded);
  }

  runtime::ExecOptions opts;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(parallel, plan, 6, opts);
  exec.run();
  EXPECT_EQ(exec.bufferedElements(), 0u);  // guards eliminate all buffers
  expectFieldNear(serial, parallel, "S", "acc");

  // The relaxed iteration partition is aliased but complete.
  const Partition& iter = exec.partition(plan.loops[0].iterPartition);
  EXPECT_TRUE(iter.isComplete(60));
}

// Two uncentered reductions in a loop that is NOT relaxable (it also has a
// centered write): private sub-partitions shrink the buffers (Section 5.2).
TEST(Parallelize, PrivateSubPartitionShrinksBuffers) {
  auto buildWorld = [](World& world) {
    world.addRegion("W", 40).addField("cur", FieldType::F64);
    world.addRegion("N", 20).addField("chg", FieldType::F64);
    // Wire i touches nodes i/2 and (i/2 + 1) % 20: mostly private with a
    // one-node overlap between neighboring pieces.
    world.defineAffineFn("inp", "W", "N", [](Index i) { return i / 2; });
    world.defineAffineFn("outp", "W", "N",
                         [](Index i) { return (i / 2 + 1) % 20; });
    auto cur = world.region("W").f64("cur");
    for (Index i = 0; i < 40; ++i) {
      cur[static_cast<std::size_t>(i)] = double(i % 5) + 0.25;
    }
  };
  ir::Program prog;
  ir::LoopBuilder b("distribute", "i", "W");
  b.loadF64("x", "W", "cur", "i");
  b.apply("n1", "inp", "i");
  b.apply("n2", "outp", "i");
  b.reduce("N", "chg", "n1", "x");
  b.reduce("N", "chg", "n2", "x");
  b.store("W", "cur", "i", "x");  // centered write blocks relaxation
  prog.loops.push_back(b.build());

  World serial;
  buildWorld(serial);
  ir::runSerial(serial, prog);

  World parallel;
  buildWorld(parallel);
  AutoParallelizer ap(parallel);
  ParallelPlan plan = ap.plan(prog);
  EXPECT_FALSE(plan.loops[0].relaxed);
  for (const auto& [_, rp] : plan.loops[0].reduces) {
    EXPECT_EQ(rp.strategy, optimize::ReduceStrategy::PrivateSplit);
    EXPECT_FALSE(rp.privatePart.empty());
    EXPECT_FALSE(rp.sharedPart.empty());
  }

  runtime::ExecOptions opts;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(parallel, plan, 4, opts);
  exec.run();
  expectFieldNear(serial, parallel, "N", "chg");

  // The shared parts are tiny (one boundary node per piece boundary), so
  // buffered traffic must be far below the full partition size.
  EXPECT_GT(exec.bufferedElements(), 0u);
  EXPECT_LE(exec.bufferedElements(), 16u);

  // Without private sub-partitions, everything is buffered.
  World baseline;
  buildWorld(baseline);
  Options noPriv;
  noPriv.enablePrivateSubPartitions = false;
  AutoParallelizer ap2(baseline, noPriv);
  ParallelPlan plan2 = ap2.plan(prog);
  runtime::PlanExecutor exec2(baseline, plan2, 4);
  exec2.run();
  EXPECT_GT(exec2.bufferedElements(), exec.bufferedElements() * 2);
  expectFieldNear(serial, baseline, "N", "chg");
}

// SpMV (Figure 10) end to end, including the generalized IMAGE.
TEST(Parallelize, SpmvEndToEnd) {
  constexpr Index kRows = 32;
  constexpr Index kNnzPerRow = 3;
  auto buildWorld = [](World& world) {
    auto& y = world.addRegion("Y", kRows);
    auto& ranges = world.addRegion("Ranges", kRows);
    auto& mat = world.addRegion("Mat", kRows * kNnzPerRow);
    auto& x = world.addRegion("X", kRows);
    y.addField("val", FieldType::F64);
    ranges.addField("span", FieldType::Range);
    mat.addField("val", FieldType::F64);
    mat.addField("ind", FieldType::Idx);
    x.addField("val", FieldType::F64);
    world.defineRangeFn("Ranges", "span", "Mat");
    world.defineFieldFn("Mat", "ind", "X");
    auto span = ranges.range("span");
    auto mval = mat.f64("val");
    auto mind = mat.idx("ind");
    auto xval = x.f64("val");
    for (Index r = 0; r < kRows; ++r) {
      span[static_cast<std::size_t>(r)] =
          region::Run{r * kNnzPerRow, (r + 1) * kNnzPerRow};
      xval[static_cast<std::size_t>(r)] = 1.0 + double(r % 7);
      for (Index k = 0; k < kNnzPerRow; ++k) {
        const auto idx = static_cast<std::size_t>(r * kNnzPerRow + k);
        mval[idx] = double(k + 1);
        mind[idx] = (r + k) % kRows;  // banded
      }
    }
  };
  ir::Program prog;
  ir::LoopBuilder b("spmv", "i", "Y");
  b.loadRange("rg", "Ranges", "span", "i");
  b.beginInner("k", "rg");
  b.loadF64("a", "Mat", "val", "k");
  b.loadIdx("col", "Mat", "ind", "k");
  b.loadF64("xv", "X", "val", "col");
  b.compute("prod", {"a", "xv"}, [](auto v) { return v[0] * v[1]; });
  b.reduce("Y", "val", "i", "prod");
  b.endInner();
  prog.loops.push_back(b.build());

  World serial;
  buildWorld(serial);
  ir::runSerial(serial, prog);

  World parallel;
  buildWorld(parallel);
  AutoParallelizer ap(parallel);
  ParallelPlan plan = ap.plan(prog);
  // Figure 10b: exactly 4 constructed partitions (Y, Ranges, Mat, X) — the
  // Mat[k].ind access folds onto the Mat[k].val partition via unification.
  EXPECT_EQ(plan.dpl.constructedPartitions(), 4u);

  runtime::ExecOptions opts;
  opts.validateAccesses = true;
  runtime::PlanExecutor exec(parallel, plan, 4, opts);
  exec.run();
  expectFieldNear(serial, parallel, "Y", "val");
}

TEST(Parallelize, NonParallelizableLoopThrows) {
  World world;
  world.addRegion("R", 10).addField("a", FieldType::F64);
  world.addRegion("S", 10).addField("b", FieldType::F64);
  world.defineAffineFn("g", "R", "S", [](Index i) { return i; });
  ir::Program prog;
  ir::LoopBuilder b("bad", "i", "R");
  b.apply("j", "g", "i");
  b.loadF64("x", "R", "a", "i");
  b.store("S", "b", "j", "x");  // uncentered write
  prog.loops.push_back(b.build());
  AutoParallelizer ap(world);
  EXPECT_THROW(ap.plan(prog), Error);
}

TEST(Parallelize, CompileStatsArePopulated) {
  World world;
  Figure1App::build(world, 11);
  AutoParallelizer ap(world);
  ParallelPlan plan = ap.plan(Figure1App::program());
  EXPECT_EQ(plan.stats.parallelLoops, 2);
  EXPECT_GE(plan.stats.inferMs, 0.0);
  EXPECT_GE(plan.stats.unifyMs, 0.0);
  EXPECT_GE(plan.stats.solveMs, 0.0);
  // solveMs includes the relaxation pass, so it dominates pure resolution
  // and stays comparable with the paper's Table 1 "solver" row.
  EXPECT_GE(plan.stats.rewriteMs, 0.0);
}

TEST(Parallelize, SolverCallsAreCountedAndDeterministic) {
  // Unification validates every collapse and every unification by solving,
  // so a many-loop app makes many solver calls; the count depends on the
  // input alone, not on timing.
  apps::MiniAeroApp app({.nx = 4, .ny = 4, .nzPerPiece = 4, .pieces = 4});
  const ParallelPlan first = AutoParallelizer(app.world()).plan(app.program());
  const ParallelPlan second =
      AutoParallelizer(app.world()).plan(app.program());
  EXPECT_GT(first.stats.solverCalls, 1u);
  EXPECT_EQ(first.stats.solverCalls, second.stats.solverCalls);
}

}  // namespace
}  // namespace dpart::parallelize
