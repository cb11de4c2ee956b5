// FaultInjector semantics (determinism, arrival triggers, fire bounds,
// prefix matching), the error taxonomy's context rendering, the thread
// pool's fail-fast behavior, and fault sites in the DPL evaluator and the
// executor — task faults on both execution backends.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "dpl/evaluator.hpp"
#include "ir/ir.hpp"
#include "parallelize/parallelize.hpp"
#include "region/world.hpp"
#include "runtime/executor.hpp"
#include "support/fault.hpp"
#include "support/metrics.hpp"
#include "support/thread_pool.hpp"

// TSan cannot follow a fork() that then starts threads, so the
// multi-process backend's cases skip under it (as in
// distributed_exec_test.cpp).
#if defined(__SANITIZE_THREAD__)
#define DPART_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define DPART_TSAN 1
#endif
#endif
#if defined(DPART_TSAN)
#define DPART_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based backend unsupported under TSan"
#else
#define DPART_SKIP_UNDER_TSAN() (void)0
#endif

namespace dpart {
namespace {

using region::FieldType;
using region::Index;
using region::World;

FaultSpec crashSpec(double probability) {
  FaultSpec spec;
  spec.kind = FaultKind::Crash;
  spec.probability = probability;
  return spec;
}

TEST(FaultInjector, SameSeedSamePattern) {
  FaultInjector a(7), b(7), c(8);
  for (FaultInjector* inj : {&a, &b, &c}) {
    inj->arm("task:", crashSpec(0.4));
  }
  std::vector<bool> pa, pb, pc;
  for (int i = 0; i < 64; ++i) {
    pa.push_back(a.fire("task:flux:3").has_value());
    pb.push_back(b.fire("task:flux:3").has_value());
    pc.push_back(c.fire("task:flux:3").has_value());
  }
  EXPECT_EQ(pa, pb);  // decisions are pure in (seed, site, arrival)
  EXPECT_NE(pa, pc);  // and actually depend on the seed
  EXPECT_EQ(a.totalFires(), b.totalFires());
  EXPECT_GT(a.totalFires(), 0u);   // p=0.4 over 64 arrivals
  EXPECT_LT(a.totalFires(), 64u);
}

TEST(FaultInjector, AfterArrivalsFiresOnExactlyTheNthArrival) {
  FaultInjector inj(1);
  FaultSpec spec;
  spec.afterArrivals = 3;
  inj.arm("task:", spec);
  for (std::uint64_t n = 1; n <= 10; ++n) {
    EXPECT_EQ(inj.fire("task:a:0").has_value(), n == 3) << "arrival " << n;
  }
  EXPECT_EQ(inj.arrivals("task:a:0"), 10u);
  EXPECT_EQ(inj.totalFires(), 1u);
}

TEST(FaultInjector, MaxFiresBoundsEachConcreteSite) {
  FaultInjector inj(1);
  FaultSpec spec = crashSpec(1.0);
  spec.maxFires = 2;
  inj.arm("task:", spec);
  for (int n = 0; n < 5; ++n) inj.fire("task:a:0");
  for (int n = 0; n < 5; ++n) inj.fire("task:a:1");
  // The bound is per concrete site, not per armed prefix: with maxFires=2 a
  // retrying executor needs at most 2 replays of any one task.
  EXPECT_EQ(inj.firesAt("task:a:0"), 2u);
  EXPECT_EQ(inj.firesAt("task:a:1"), 2u);
  EXPECT_EQ(inj.firesAt("task:"), 4u);
  EXPECT_EQ(inj.totalFires(), 4u);
}

TEST(FaultInjector, LongestArmedPrefixWins) {
  FaultInjector inj(1);
  inj.arm("task:", crashSpec(0.0));      // blanket: never fire
  inj.arm("task:flux:1", crashSpec(1.0));  // pin one task: always fire
  EXPECT_FALSE(inj.fire("task:flux:0").has_value());
  EXPECT_TRUE(inj.fire("task:flux:1").has_value());
  EXPECT_FALSE(inj.fire("loop:flux").has_value());  // unarmed family
  inj.disarm("task:flux:1");
  EXPECT_FALSE(inj.fire("task:flux:1").has_value());
}

TEST(FaultInjector, EmptyPrefixMatchesEverySite) {
  FaultInjector inj(1);
  inj.arm("", crashSpec(1.0));
  EXPECT_TRUE(inj.fire("dpl:image").has_value());
  EXPECT_TRUE(inj.fire("anything").has_value());
}

TEST(FaultInjector, StragglerCarriesStallAndMagnitude) {
  FaultInjector inj(1);
  FaultSpec spec;
  spec.kind = FaultKind::Straggler;
  spec.stragglerMicros = 123;
  inj.arm("task:", spec);
  auto fault = inj.fire("task:a:0");
  ASSERT_TRUE(fault.has_value());
  EXPECT_EQ(fault->kind, FaultKind::Straggler);
  EXPECT_EQ(fault->stragglerMicros, 123u);
  EXPECT_GE(fault->magnitude, 0.0);
  EXPECT_LT(fault->magnitude, 1.0);
}

TEST(ErrorTaxonomy, ContextRendersOnlySetFields) {
  ErrorContext ctx;
  ctx.site = "task:flux:3";
  ctx.loop = "flux";
  ctx.piece = 3;
  ctx.attempt = 1;
  TaskFailure failure("boom", ctx);
  const std::string what = failure.what();
  EXPECT_NE(what.find("boom"), std::string::npos);
  EXPECT_NE(what.find("site=task:flux:3"), std::string::npos);
  EXPECT_NE(what.find("loop=flux"), std::string::npos);
  EXPECT_NE(what.find("piece=3"), std::string::npos);
  EXPECT_NE(what.find("attempt=1"), std::string::npos);
  EXPECT_EQ(what.find("field="), std::string::npos);  // unset: omitted
  EXPECT_EQ(failure.context().piece, 3);

  EXPECT_STREQ(TaskFailure("bare").what(), "bare");  // empty context: no brackets

  // Every taxonomy member is catchable as dpart::Error, so pre-existing
  // EXPECT_THROW(..., Error) call sites keep passing.
  static_assert(std::is_base_of_v<Error, TaskFailure>);
  static_assert(std::is_base_of_v<Error, PartitionViolation>);
  static_assert(std::is_base_of_v<Error, EvalFailure>);
}

TEST(ThreadPoolFailFast, RemainingIndicesAreNotClaimedAfterAnError) {
  ThreadPool pool(4);
  std::atomic<std::size_t> executed{0};
  EXPECT_THROW(pool.parallelFor(100000,
                                [&](std::size_t) {
                                  executed.fetch_add(1);
                                  throw Error("boom");
                                }),
               Error);
  // Each participant (workers + the caller) can claim at most one index
  // before the first failure publishes next_ = jobSize_.
  EXPECT_LE(executed.load(), pool.threadCount() + 1);
}

TEST(ThreadPoolFailFast, PoolIsReusableAfterAFailedJob) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallelFor(8, [](std::size_t) { throw Error("boom"); }), Error);
  std::atomic<std::size_t> executed{0};
  pool.parallelFor(16, [&](std::size_t) { executed.fetch_add(1); });
  EXPECT_EQ(executed.load(), 16u);
}

TEST(EvaluatorFaults, CrashAtOperatorSiteThrowsEvalFailureWithSite) {
  World w;
  w.addRegion("R", 12);
  w.defineAffineFn("f", "R", "R", [](Index i) { return i; });
  FaultInjector inj(3);
  FaultSpec spec;
  spec.afterArrivals = 1;
  inj.arm("dpl:image", spec);

  dpl::Program prog;
  prog.append("P", dpl::equalOf("R"));
  prog.append("Q", dpl::image(dpl::symbol("P"), "f", "R"));
  dpl::Evaluator eval(w, 3);
  eval.setFaultInjector(&inj);
  try {
    eval.run(prog);
    FAIL() << "expected EvalFailure";
  } catch (const EvalFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("site=dpl:image"), std::string::npos);
    EXPECT_NE(what.find("injected fault"), std::string::npos);
  }
  // equal() evaluated before the crash site and was untouched.
  EXPECT_TRUE(eval.has("P"));
}

TEST(EvaluatorFaults, StatementFailuresNameTheStatement) {
  World w;
  w.addRegion("R", 8);
  dpl::Program prog;
  prog.append("Y", dpl::unionOf(dpl::symbol("X"), dpl::symbol("X")));
  dpl::Evaluator eval(w, 2);
  try {
    eval.run(prog);
    FAIL() << "expected EvalFailure";
  } catch (const EvalFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("evaluating DPL statement 'Y"), std::string::npos);
    EXPECT_NE(what.find("unbound partition symbol 'X'"), std::string::npos);
  }
}

// A tiny centered pipeline: one loop copying R.val into R.tmp. Its plan has
// a disjoint+complete iteration partition, which the poisoned evaluator
// result must violate.
struct CenteredCase {
  World world;
  parallelize::ParallelPlan plan;

  CenteredCase() {
    region::Region& r = world.addRegion("R", 24);
    r.addField("val", FieldType::F64);
    r.addField("tmp", FieldType::F64);
    auto val = world.region("R").f64("val");
    for (std::size_t i = 0; i < val.size(); ++i) val[i] = double(i);
    ir::Program prog;
    prog.name = "centered";
    ir::LoopBuilder b("copy", "i", "R");
    b.loadF64("x", "R", "val", "i");
    b.store("R", "tmp", "i", "x");
    prog.loops.push_back(b.build());
    parallelize::AutoParallelizer ap(world);
    plan = ap.plan(prog);
  }
};

TEST(EvaluatorFaults, PoisonedPartitionIsCaughtByTheVerifier) {
  CenteredCase c;
  FaultInjector inj(11);
  FaultSpec spec;
  spec.kind = FaultKind::Poison;
  spec.afterArrivals = 1;
  inj.arm("dpl:", spec);

  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  opts.verifyPartitions = true;
  runtime::PlanExecutor exec(c.world, c.plan, 4, opts);
  EXPECT_THROW(exec.preparePartitions(), PartitionViolation);
  EXPECT_GT(inj.totalFires(), 0u);
}

// The task attempt policy is shared by both execution backends, so the same
// faults must give the same replays, error counts and messages on each. The
// checks below run once per backend: the in-process backend under the
// ExecutorFaults suite, the fork-based one under MultiProcessExecutorFaults.
struct BackendFaultRun {
  explicit BackendFaultRun(runtime::ExecBackend backend, std::uint64_t seed)
      : inj(seed) {
    opts.distributed.backend = backend;
    opts.resilience.faultInjector = &inj;
    opts.observability.metrics = &metrics;
  }
  std::uint64_t taskFailures() {
    return metrics.counter("errorsTotal", {{"kind", "TaskFailure"}}).value();
  }
  FaultInjector inj;
  MetricsRegistry metrics;
  runtime::ExecOptions opts;
};

void expectCrashWithoutResilienceAbortsTheRun(runtime::ExecBackend backend) {
  CenteredCase c;
  BackendFaultRun r(backend, 5);
  FaultSpec spec = crashSpec(1.0);
  spec.maxFires = 1;
  r.inj.arm("task:copy:2", spec);
  runtime::PlanExecutor exec(c.world, c.plan, 4, r.opts);
  try {
    exec.run();
    FAIL() << "expected TaskFailure";
  } catch (const TaskFailure& e) {
    EXPECT_STREQ(e.what(),
                 "injected fault: task crashed mid-run [site=task:copy:2, "
                 "loop=copy, piece=2, attempt=0]");
  }
  EXPECT_EQ(exec.taskReplays(), 0u);
  EXPECT_EQ(r.taskFailures(), 1u);
}

void expectRetryExhaustionWrapsTheLastFailure(runtime::ExecBackend backend) {
  CenteredCase c;
  BackendFaultRun r(backend, 5);
  r.inj.arm("task:copy:0", crashSpec(1.0));  // unbounded fires on one task
  r.opts.resilience.taskReplay = true;
  r.opts.resilience.maxTaskRetries = 2;
  runtime::PlanExecutor exec(c.world, c.plan, 4, r.opts);
  try {
    exec.run();
    FAIL() << "expected TaskFailure";
  } catch (const TaskFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("task failed after 3 attempt(s)"), std::string::npos);
    EXPECT_NE(what.find("task:copy:0"), std::string::npos);
    EXPECT_EQ(what,
              "task failed after 3 attempt(s): injected fault: task crashed "
              "mid-run [site=task:copy:0, loop=copy, piece=0, attempt=2] "
              "[site=task:copy:0, loop=copy, piece=0, attempt=2]");
  }
  EXPECT_EQ(exec.taskReplays(), 2u);
  EXPECT_EQ(r.taskFailures(), 3u);
}

TEST(ExecutorFaults, CrashWithoutResilienceAbortsTheRun) {
  expectCrashWithoutResilienceAbortsTheRun(runtime::ExecBackend::InProcess);
}

TEST(ExecutorFaults, RetryExhaustionWrapsTheLastFailure) {
  expectRetryExhaustionWrapsTheLastFailure(runtime::ExecBackend::InProcess);
}

TEST(MultiProcessExecutorFaults, CrashWithoutResilienceAbortsTheRun) {
  DPART_SKIP_UNDER_TSAN();
  expectCrashWithoutResilienceAbortsTheRun(runtime::ExecBackend::MultiProcess);
}

TEST(MultiProcessExecutorFaults, RetryExhaustionWrapsTheLastFailure) {
  DPART_SKIP_UNDER_TSAN();
  expectRetryExhaustionWrapsTheLastFailure(runtime::ExecBackend::MultiProcess);
}

TEST(ExecutorFaults, LoopSiteCrashFailsBeforeAnyMutation) {
  CenteredCase c;
  FaultInjector inj(5);
  FaultSpec spec = crashSpec(1.0);
  inj.arm("loop:copy", spec);
  runtime::ExecOptions opts;
  opts.resilience.faultInjector = &inj;
  runtime::PlanExecutor exec(c.world, c.plan, 4, opts);
  EXPECT_THROW(exec.run(), TaskFailure);
  auto tmp = c.world.region("R").f64("tmp");
  for (std::size_t i = 0; i < tmp.size(); ++i) {
    EXPECT_EQ(tmp[i], 0.0) << "loop-site faults fire before launch";
  }
}

}  // namespace
}  // namespace dpart
