#include "runtime/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "runtime/privileges.hpp"
#include "runtime/task_exec.hpp"

namespace dpart::runtime {
namespace {

using region::FieldType;
using region::Index;
using region::IndexSet;
using region::Partition;
using region::World;

TEST(ThreadPool, RunsAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallelFor(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialReuse) {
  ThreadPool pool(3);
  std::atomic<long> sum{0};
  for (int round = 0; round < 10; ++round) {
    pool.parallelFor(50, [&](std::size_t i) {
      sum += static_cast<long>(i);
    });
  }
  EXPECT_EQ(sum.load(), 10 * (49 * 50 / 2));
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallelFor(8,
                                [&](std::size_t i) {
                                  if (i == 5) throw Error("boom");
                                }),
               Error);
  // Pool still usable afterwards.
  std::atomic<int> n{0};
  pool.parallelFor(4, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 4);
}

TEST(ThreadPool, ZeroTasksIsFine) {
  ThreadPool pool(2);
  pool.parallelFor(0, [&](std::size_t) { FAIL(); });
}

TEST(ThreadPool, MoreTasksThanThreads) {
  ThreadPool pool(1);
  std::atomic<int> n{0};
  pool.parallelFor(64, [&](std::size_t) { n++; });
  EXPECT_EQ(n.load(), 64);
}

// ---- Privileges / non-interference ----

class PrivilegeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    world.addRegion("R", 16).addField("a", FieldType::F64);
    world.region("R").addField("b", FieldType::F64);
    world.defineAffineFn("left", "R", "R",
                         [](Index i) { return i > 0 ? i - 1 : 15; });
  }

  World world;
};

TEST_F(PrivilegeTest, RequirementsOfStencilLoop) {
  ir::LoopBuilder b("stencil", "i", "R");
  b.apply("j", "left", "i");
  b.loadF64("x", "R", "a", "j");
  b.loadF64("c", "R", "a", "i");
  b.compute("y", {"x", "c"}, [](auto v) { return v[0] + v[1]; });
  b.store("R", "b", "i", "y");
  ir::Loop loop = b.build();

  parallelize::AutoParallelizer ap(world);
  ir::Program prog;
  prog.loops.push_back(loop);
  parallelize::ParallelPlan plan = ap.plan(prog);

  auto reqs = requirementsOf(plan.loops[0]);
  // Two partitions on R.a (ghost + centered) and one RW on R.b.
  int ro = 0, rw = 0;
  for (const auto& r : reqs) {
    if (r.privilege == Privilege::ReadOnly) ++ro;
    if (r.privilege == Privilege::ReadWrite) ++rw;
  }
  EXPECT_GE(ro, 1);
  EXPECT_EQ(rw, 1);

  // Non-interference holds for every task pair under the synthesized
  // partitions.
  PlanExecutor exec(world, plan, 4);
  exec.preparePartitions();
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_TRUE(nonInterfering(reqs, exec.partitions(), a, c))
          << "tasks " << a << " and " << c << " interfere";
    }
  }
}

TEST_F(PrivilegeTest, InterferenceDetectedOnOverlappingWrites) {
  std::map<std::string, Partition> parts;
  parts.emplace("P", Partition("R", {IndexSet::interval(0, 10),
                                     IndexSet::interval(5, 16)}));
  std::vector<RegionRequirement> reqs{
      RegionRequirement{"P", "R", "a", Privilege::ReadWrite}};
  EXPECT_FALSE(nonInterfering(reqs, parts, 0, 1));
  EXPECT_TRUE(nonInterfering(reqs, parts, 0, 0));
}

TEST_F(PrivilegeTest, ReadsAndReductionsCommute) {
  std::map<std::string, Partition> parts;
  parts.emplace("P", Partition("R", {IndexSet::interval(0, 10),
                                     IndexSet::interval(5, 16)}));
  std::vector<RegionRequirement> ro{
      RegionRequirement{"P", "R", "a", Privilege::ReadOnly}};
  std::vector<RegionRequirement> rd{
      RegionRequirement{"P", "R", "a", Privilege::Reduce}};
  EXPECT_TRUE(nonInterfering(ro, parts, 0, 1));
  EXPECT_TRUE(nonInterfering(rd, parts, 0, 1));
}

// ---- Executor misc ----

TEST(Executor, ValidateAccessesCatchesIllegalPlans) {
  // Hand-build a plan whose access partition is too small: the validator
  // must throw when an access escapes it.
  World world;
  world.addRegion("R", 8).addField("a", FieldType::F64);
  world.region("R").addField("b", FieldType::F64);
  world.defineAffineFn("next", "R", "R", [](Index i) { return (i + 1) % 8; });

  ir::Program prog;
  ir::LoopBuilder b("shift", "i", "R");
  b.apply("j", "next", "i");
  b.loadF64("x", "R", "a", "j");
  b.store("R", "b", "i", "x");
  prog.loops.push_back(b.build());

  parallelize::AutoParallelizer ap(world);
  parallelize::ParallelPlan plan = ap.plan(prog);

  // Sabotage: point the uncentered read at the iteration partition, which
  // does not contain the ghost element.
  for (auto& [stmtId, sym] : plan.loops[0].accessPartition) {
    sym = plan.loops[0].iterPartition;
  }
  ExecOptions opts;
  opts.validateAccesses = true;
  PlanExecutor exec(world, plan, 4, opts);
  EXPECT_THROW(exec.run(), PartitionViolation);
}

TEST(Executor, UnassignedAccessThrowsWhenItExecutes) {
  World world;
  world.addRegion("R", 8).addField("a", FieldType::F64);
  world.region("R").addField("b", FieldType::F64);
  ir::Program prog;
  ir::LoopBuilder b("copy", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.store("R", "b", "i", "x");
  prog.loops.push_back(b.build());
  parallelize::AutoParallelizer ap(world);
  const parallelize::ParallelPlan plan = ap.plan(prog);
  PlanExecutor exec(world, plan, 2);
  exec.preparePartitions();

  parallelize::PlannedLoop loop = plan.loops[0];
  loop.accessPartition.erase(0);  // the load of R[i].a
  // Setup and an empty run pass: the violation belongs to the access.
  TaskKernel kernel(world, loop, 1, exec.partitions(), true, nullptr);
  EXPECT_NO_THROW(kernel.run(IndexSet{}));
  try {
    kernel.run(exec.partition(loop.iterPartition).sub(1));
    ADD_FAILURE() << "unassigned access was not caught";
  } catch (const PartitionViolation& e) {
    EXPECT_EQ(e.context().loop, "copy");
    EXPECT_EQ(e.context().stmtId, 0);
    EXPECT_EQ(e.context().piece, 1);
  }
}

TEST(Executor, RunIsRepeatable) {
  World world;
  world.addRegion("R", 16).addField("a", FieldType::F64);
  world.region("R").addField("b", FieldType::F64);
  auto a = world.region("R").f64("a");
  std::iota(a.begin(), a.end(), 0.0);

  ir::Program prog;
  ir::LoopBuilder b("accum", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.reduce("R", "b", "i", "x");
  prog.loops.push_back(b.build());

  parallelize::AutoParallelizer ap(world);
  parallelize::ParallelPlan plan = ap.plan(prog);
  PlanExecutor exec(world, plan, 4);
  exec.run();
  exec.run();
  EXPECT_EQ(world.region("R").f64("b")[5], 10.0);
}

TEST(Executor, PieceCountOneDegeneratesToSerial) {
  World world;
  world.addRegion("R", 8).addField("a", FieldType::F64);
  world.region("R").addField("b", FieldType::F64);
  auto a = world.region("R").f64("a");
  std::iota(a.begin(), a.end(), 1.0);
  ir::Program prog;
  ir::LoopBuilder b("copy", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.store("R", "b", "i", "x");
  prog.loops.push_back(b.build());
  parallelize::AutoParallelizer ap(world);
  parallelize::ParallelPlan plan = ap.plan(prog);
  PlanExecutor exec(world, plan, 1);
  exec.run();
  EXPECT_EQ(world.region("R").f64("b")[7], 8.0);
}

}  // namespace
}  // namespace dpart::runtime
