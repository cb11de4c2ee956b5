#include "ir/ir.hpp"

#include <gtest/gtest.h>

#include "ir/interp.hpp"
#include "support/check.hpp"

namespace dpart::ir {
namespace {

using region::FieldType;
using region::IndexSet;
using region::World;

TEST(ReduceOps, Semantics) {
  EXPECT_EQ(applyReduce(ReduceOp::Sum, 2.0, 3.0), 5.0);
  EXPECT_EQ(applyReduce(ReduceOp::Min, 2.0, 3.0), 2.0);
  EXPECT_EQ(applyReduce(ReduceOp::Max, 2.0, 3.0), 3.0);
  EXPECT_EQ(reduceIdentity(ReduceOp::Sum), 0.0);
  EXPECT_EQ(applyReduce(ReduceOp::Min, reduceIdentity(ReduceOp::Min), 7.0),
            7.0);
  EXPECT_EQ(applyReduce(ReduceOp::Max, reduceIdentity(ReduceOp::Max), -7.0),
            -7.0);
}

TEST(LoopBuilder, AssignsSequentialIds) {
  LoopBuilder b("l", "i", "R");
  b.loadF64("x", "R", "a", "i").compute("y", {"x"}, [](auto v) {
    return v[0] * 2;
  });
  b.store("R", "b", "i", "y");
  Loop loop = b.build();
  ASSERT_EQ(loop.body.size(), 3u);
  EXPECT_EQ(loop.body[0].id, 0);
  EXPECT_EQ(loop.body[1].id, 1);
  EXPECT_EQ(loop.body[2].id, 2);
  EXPECT_EQ(loop.stmtCount(), 3);
}

TEST(LoopBuilder, InnerLoopNesting) {
  LoopBuilder b("l", "i", "R");
  b.loadRange("rg", "R", "span", "i");
  b.beginInner("k", "rg");
  b.loadF64("v", "S", "val", "k");
  b.endInner();
  Loop loop = b.build();
  ASSERT_EQ(loop.body.size(), 2u);
  EXPECT_EQ(loop.body[1].kind, StmtKind::InnerLoop);
  ASSERT_EQ(loop.body[1].body.size(), 1u);
  EXPECT_EQ(loop.stmtCount(), 3);
}

TEST(LoopBuilder, UnclosedInnerThrows) {
  LoopBuilder b("l", "i", "R");
  b.loadRange("rg", "R", "span", "i");
  b.beginInner("k", "rg");
  EXPECT_THROW(b.build(), Error);
  EXPECT_THROW(b.beginInner("k2", "rg"), Error);
}

TEST(LoopPrinting, ReadableForms) {
  LoopBuilder b("upd", "p", "Particles");
  b.loadIdx("c", "Particles", "cell", "p");
  b.apply("c2", "h", "c");
  b.reduce("Particles", "pos", "p", "v");
  Loop loop = b.build();
  const std::string s = loop.toString();
  EXPECT_NE(s.find("for (p in Particles)"), std::string::npos);
  EXPECT_NE(s.find("c = Particles[p].cell"), std::string::npos);
  EXPECT_NE(s.find("c2 = h(c)"), std::string::npos);
  EXPECT_NE(s.find("Particles[p].pos += v"), std::string::npos);
}

// ---- Interpreter ----

class InterpTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto& r = world.addRegion("R", 8);
    r.addField("a", FieldType::F64);
    r.addField("b", FieldType::F64);
    auto a = r.f64("a");
    for (Index i = 0; i < 8; ++i) a[static_cast<std::size_t>(i)] = double(i);
  }
  World world;
};

TEST_F(InterpTest, CenteredCopyLoop) {
  LoopBuilder b("copy", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.compute("y", {"x"}, [](auto v) { return v[0] + 1.0; });
  b.store("R", "b", "i", "y");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto bcol = world.region("R").f64("b");
  for (Index i = 0; i < 8; ++i) {
    EXPECT_EQ(bcol[static_cast<std::size_t>(i)], double(i) + 1.0);
  }
}

TEST_F(InterpTest, SubsetExecutionOnlyTouchesSubset) {
  LoopBuilder b("copy", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.store("R", "b", "i", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.run(IndexSet{1, 3});
  auto bcol = world.region("R").f64("b");
  EXPECT_EQ(bcol[1], 1.0);
  EXPECT_EQ(bcol[3], 3.0);
  EXPECT_EQ(bcol[0], 0.0);
  EXPECT_EQ(bcol[2], 0.0);
}

TEST_F(InterpTest, UncenteredReadThroughFn) {
  world.defineAffineFn("next", "R", "R",
                       [](Index i) { return (i + 1) % 8; });
  LoopBuilder b("shift", "i", "R");
  b.apply("j", "next", "i");
  b.loadF64("x", "R", "a", "j");
  b.store("R", "b", "i", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto bcol = world.region("R").f64("b");
  EXPECT_EQ(bcol[0], 1.0);
  EXPECT_EQ(bcol[7], 0.0);
}

TEST_F(InterpTest, UncenteredReductionAccumulates) {
  world.addRegion("S", 2).addField("sum", FieldType::F64);
  world.defineAffineFn("half", "R", "S",
                       [](Index i) { return i < 4 ? 0 : 1; });
  LoopBuilder b("acc", "i", "R");
  b.apply("j", "half", "i");
  b.loadF64("x", "R", "a", "i");
  b.reduce("S", "sum", "j", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto sum = world.region("S").f64("sum");
  EXPECT_EQ(sum[0], 0.0 + 1 + 2 + 3);
  EXPECT_EQ(sum[1], 4.0 + 5 + 6 + 7);
}

TEST_F(InterpTest, InnerLoopOverRanges) {
  // Sum a[lo..hi) per element, CSR-style.
  auto& rg = world.addRegion("Rows", 2);
  rg.addField("span", FieldType::Range);
  rg.addField("total", FieldType::F64);
  auto span = rg.range("span");
  span[0] = region::Run{0, 3};
  span[1] = region::Run{3, 8};
  LoopBuilder b("rowsum", "i", "Rows");
  b.loadRange("rg", "Rows", "span", "i");
  b.compute("acc0", {}, [](auto) { return 0.0; });
  b.beginInner("k", "rg");
  b.loadF64("v", "R", "a", "k");
  b.reduce("Rows", "total", "i", "v");
  b.endInner();
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto total = world.region("Rows").f64("total");
  EXPECT_EQ(total[0], 0.0 + 1 + 2);
  EXPECT_EQ(total[1], 3.0 + 4 + 5 + 6 + 7);
}

TEST_F(InterpTest, RulesObserveAndGuard) {
  LoopBuilder b("acc", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.reduce("R", "b", "i", "x");
  Loop loop = b.build();
  // Every reduction is swallowed into the task buffer: nothing applies in
  // place.
  const IndexSet nowhere;
  ReduceBuffer buffer;
  TaskRules rules;
  rules.byStmt.resize(2);
  rules.byStmt[1].applyIf = &nowhere;
  rules.byStmt[1].buffer = &buffer;
  LoopRunner runner(world, loop, rules);
  runner.runAll();
  EXPECT_EQ(buffer.sorted().size(), 8u);
  auto bcol = world.region("R").f64("b");
  EXPECT_EQ(bcol[5], 0.0);  // reductions were swallowed by the rule

  // Every access is checked: a required set missing only the last element
  // passes the first seven elements and rejects the eighth, for the load
  // and the reduce alike.
  const IndexSet first7 = IndexSet::interval(0, 7);
  for (int stmt : {0, 1}) {
    TaskRules check;
    check.piece = 0;
    check.byStmt.resize(2);
    check.byStmt[static_cast<std::size_t>(stmt)].check =
        AccessRule::Check::InSet;
    check.byStmt[static_cast<std::size_t>(stmt)].required = &first7;
    check.byStmt[static_cast<std::size_t>(stmt)].partition = "P";
    LoopRunner checked(world, loop, check);
    try {
      checked.runAll();
      ADD_FAILURE() << "access outside the required set not caught";
    } catch (const PartitionViolation& e) {
      EXPECT_EQ(e.context().stmtId, stmt);
      EXPECT_EQ(e.context().index, 7);
      EXPECT_EQ(e.context().partition, "P");
    }
  }
}

TEST_F(InterpTest, WriteGuardSkipsNonOwned) {
  LoopBuilder b("copy", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.store("R", "b", "i", "x");
  Loop loop = b.build();
  const IndexSet owned{0, 2, 4, 6};
  TaskRules rules;
  rules.byStmt.resize(2);
  rules.byStmt[1].applyIf = &owned;
  LoopRunner runner(world, loop, rules);
  runner.runAll();
  auto bcol = world.region("R").f64("b");
  EXPECT_EQ(bcol[2], 2.0);
  EXPECT_EQ(bcol[3], 0.0);
}

TEST_F(InterpTest, OutOfBoundsAccessThrows) {
  world.defineAffineFn("oob", "R", "R", [](Index i) { return i + 100; });
  LoopBuilder b("bad", "i", "R");
  b.apply("j", "oob", "i");
  b.loadF64("x", "R", "a", "j");
  b.store("R", "b", "i", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  EXPECT_THROW(runner.runAll(), Error);
}

TEST_F(InterpTest, OutOfBoundsFieldFnThrows) {
  world.region("R").addField("ptr", FieldType::Idx);
  const std::string ptr = world.defineFieldFn("R", "ptr", "R").id;
  world.defineAffineFn("oob", "R", "R", [](Index i) { return i + 100; });
  LoopBuilder b("bad", "i", "R");
  b.apply("j", "oob", "i");
  b.apply("k", ptr, "j");
  b.loadF64("x", "R", "a", "k");
  b.store("R", "b", "i", "x");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  EXPECT_THROW(runner.runAll(), Error);
}

// ---- Lowering ----

TEST_F(InterpTest, AliasOfEachSlotType) {
  auto& rows = world.addRegion("Rows", 2);
  rows.addField("span", FieldType::Range);
  rows.addField("total", FieldType::F64);
  rows.range("span")[0] = region::Run{0, 3};
  rows.range("span")[1] = region::Run{3, 8};
  LoopBuilder b("aliases", "i", "Rows");
  b.alias("row", "i");                // index
  b.loadRange("rg", "Rows", "span", "row");
  b.alias("rg2", "rg");               // run
  b.beginInner("k", "rg2");
  b.loadF64("v", "R", "a", "k");
  b.alias("w", "v");                  // f64
  b.reduce("Rows", "total", "row", "w");
  b.endInner();
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto total = world.region("Rows").f64("total");
  EXPECT_EQ(total[0], 0.0 + 1 + 2);
  EXPECT_EQ(total[1], 3.0 + 4 + 5 + 6 + 7);
}

TEST_F(InterpTest, ApplyFnOfEachKind) {
  auto& r = world.region("R");
  r.addField("ptr", FieldType::Idx);
  auto ptr = r.idx("ptr");
  for (Index i = 0; i < 8; ++i) ptr[static_cast<std::size_t>(i)] = 7 - i;
  const std::string field = world.defineFieldFn("R", "ptr", "R").id;
  world.defineAffineFn("next", "R", "R", [](Index i) { return (i + 1) % 8; });
  // b[i] = a[id(i)] + 10 a[ptr(i)] + 100 a[next(i)]
  LoopBuilder b("fns", "i", "R");
  b.apply("p", region::kIdentityFnId, "i");
  b.apply("q", field, "i");
  b.apply("n", "next", "i");
  b.loadF64("x", "R", "a", "p");
  b.loadF64("y", "R", "a", "q");
  b.loadF64("z", "R", "a", "n");
  b.compute("v", {"x", "y", "z"},
            [](auto v) { return v[0] + 10 * v[1] + 100 * v[2]; });
  b.store("R", "b", "i", "v");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto bcol = world.region("R").f64("b");
  for (Index i = 0; i < 8; ++i) {
    EXPECT_EQ(bcol[static_cast<std::size_t>(i)],
              double(i) + 10.0 * double(7 - i) + 100.0 * double((i + 1) % 8));
  }
}

TEST_F(InterpTest, ComputeArity) {
  // 0 arguments, and 10 (more than any small fixed buffer would hold).
  LoopBuilder b("arity", "i", "R");
  b.compute("one", {}, [](auto v) { return double(v.size()) + 1.0; });
  b.loadF64("x", "R", "a", "i");
  std::vector<std::string> args(10, "x");
  args[9] = "one";
  b.compute("sum", args, [](auto v) {
    double s = 0;
    for (double d : v) s += d;
    return s + 100.0 * double(v.size());
  });
  b.store("R", "b", "i", "sum");
  Loop loop = b.build();
  LoopRunner runner(world, loop);
  runner.runAll();
  auto bcol = world.region("R").f64("b");
  for (Index i = 0; i < 8; ++i) {
    EXPECT_EQ(bcol[static_cast<std::size_t>(i)], 9.0 * double(i) + 1001.0);
  }
}

TEST_F(InterpTest, VariableAtTwoTypesRejected) {
  LoopBuilder b("mixed", "i", "R");
  b.loadF64("x", "R", "a", "i");
  b.apply("x", region::kIdentityFnId, "i");
  Loop loop = b.build();
  try {
    LoopRunner runner(world, loop);
    ADD_FAILURE() << "variable defined at two types was accepted";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("'mixed'"), std::string::npos) << what;
    EXPECT_NE(what.find("'x'"), std::string::npos) << what;
  }
}

TEST_F(InterpTest, RunSerialExecutesAllLoops) {
  Program prog;
  prog.name = "two-phase";
  {
    LoopBuilder b("phase1", "i", "R");
    b.loadF64("x", "R", "a", "i");
    b.store("R", "b", "i", "x");
    prog.loops.push_back(b.build());
  }
  {
    LoopBuilder b("phase2", "i", "R");
    b.loadF64("x", "R", "b", "i");
    b.compute("y", {"x"}, [](auto v) { return v[0] * 10; });
    b.store("R", "b", "i", "y");
    prog.loops.push_back(b.build());
  }
  runSerial(world, prog);
  EXPECT_EQ(world.region("R").f64("b")[4], 40.0);
}

}  // namespace
}  // namespace dpart::ir
