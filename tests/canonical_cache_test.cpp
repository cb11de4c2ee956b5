// The canonical plan-cache key (constraint/canonical + parallelize/solve_cache):
//
//  - isomorphic programs — renamed regions / fields / fns / partitions,
//    reordered statements and loops — produce the same canonical hash and
//    rendering, and the second compile is served from the cache;
//  - structurally distinct programs produce different keys;
//  - a cache-served plan is bitwise-identical to a fresh solve, on a
//    hand-built program and on all five Fig. 14 apps;
//  - the inferred systems of the five apps, and a program of twelve
//    identical loops, canonicalize identically under any joint renaming and
//    loop order, and concurrent calls agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "analysis/infer.hpp"
#include "analysis/parallelizable.hpp"
#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "constraint/canonical.hpp"
#include "parallelize/parallelize.hpp"
#include "parallelize/solve_cache.hpp"

namespace dpart {
namespace {

using constraint::CanonicalForm;
using constraint::CanonicalLoop;
using constraint::NameMaps;
using constraint::System;
using parallelize::AutoParallelizer;
using parallelize::ParallelPlan;
using parallelize::SolveCache;

// Everything observable about a compiled plan except timings: the loop
// plans, the DPL program, the resolved system and the external symbols.
std::string fingerprint(const ParallelPlan& plan) {
  std::ostringstream os;
  os << plan.toString();
  os << "=== dpl ===\n" << plan.dpl.toString();
  os << "=== system ===\n" << plan.system.toString();
  os << "=== externals ===\n";
  for (const std::string& s : plan.externalSymbols) os << s << '\n';
  return os.str();
}

// ---------------------------------------------------------------------------
// canonicalize() unit behavior
// ---------------------------------------------------------------------------

TEST(Canonicalize, RenamedSystemsShareHashAndRendering) {
  System a;
  a.declareSymbol("P1", "Particles");
  a.declareSymbol("P2", "Cells");
  a.addDisj(dpl::symbol("P1"));
  a.addComp(dpl::symbol("P1"), "Particles");
  a.addSubset(dpl::image(dpl::symbol("P1"), "cell", "Cells"),
              dpl::symbol("P2"));

  System b;  // same shape, every name different, conjuncts reordered
  b.declareSymbol("Qc", "Boxes");
  b.declareSymbol("Qa", "Atoms");
  b.addSubset(dpl::image(dpl::symbol("Qa"), "box", "Boxes"),
              dpl::symbol("Qc"));
  b.addComp(dpl::symbol("Qa"), "Atoms");
  b.addDisj(dpl::symbol("Qa"));

  CanonicalForm fa = constraint::canonicalize(
      {CanonicalLoop{&a, false, {}}}, {}, {}, 0);
  CanonicalForm fb = constraint::canonicalize(
      {CanonicalLoop{&b, false, {}}}, {}, {}, 0);
  EXPECT_EQ(fa.hash, fb.hash);
  EXPECT_EQ(fa.rendering, fb.rendering);
  // The two labelings map corresponding symbols to the same canonical name.
  EXPECT_EQ(fa.toCanonical.symbol("P1"), fb.toCanonical.symbol("Qa"));
  EXPECT_EQ(fa.toCanonical.symbol("P2"), fb.toCanonical.symbol("Qc"));
  EXPECT_EQ(fa.toCanonical.region("Particles"), fb.toCanonical.region("Atoms"));
  EXPECT_EQ(fa.toCanonical.fn("cell"), fb.toCanonical.fn("box"));
}

TEST(Canonicalize, StructurallyDistinctSystemsDiffer) {
  System a;
  a.declareSymbol("P1", "R");
  a.addDisj(dpl::symbol("P1"));

  System b;
  b.declareSymbol("P1", "R");
  b.addComp(dpl::symbol("P1"), "R");  // COMP instead of DISJ

  CanonicalForm fa =
      constraint::canonicalize({CanonicalLoop{&a, false, {}}}, {}, {}, 0);
  CanonicalForm fb =
      constraint::canonicalize({CanonicalLoop{&b, false, {}}}, {}, {}, 0);
  EXPECT_NE(fa.rendering, fb.rendering);
  EXPECT_NE(fa.hash, fb.hash);
}

TEST(Canonicalize, LoopAttributesArePartOfTheKey) {
  System a;
  a.declareSymbol("P1", "R");
  CanonicalForm plain =
      constraint::canonicalize({CanonicalLoop{&a, false, {}}}, {}, {}, 0);
  CanonicalForm relaxed =
      constraint::canonicalize({CanonicalLoop{&a, true, {}}}, {}, {}, 0);
  CanonicalForm reducing =
      constraint::canonicalize({CanonicalLoop{&a, false, {"P1"}}}, {}, {}, 0);
  CanonicalForm options =
      constraint::canonicalize({CanonicalLoop{&a, false, {}}}, {}, {}, 7);
  EXPECT_NE(plain.hash, relaxed.hash);
  EXPECT_NE(plain.hash, reducing.hash);
  EXPECT_NE(plain.hash, options.hash);
}

TEST(Canonicalize, SymmetricSymbolsGetDistinctCanonicalNames) {
  // Two fully interchangeable symbols: refinement alone cannot split them,
  // so individualization must — and both orderings canonicalize identically.
  System a;
  a.declareSymbol("P1", "R");
  a.declareSymbol("P2", "R");
  a.addDisj(dpl::symbol("P1"));
  a.addDisj(dpl::symbol("P2"));

  System b;
  b.declareSymbol("Q9", "S");
  b.declareSymbol("Q0", "S");
  b.addDisj(dpl::symbol("Q0"));
  b.addDisj(dpl::symbol("Q9"));

  CanonicalForm fa =
      constraint::canonicalize({CanonicalLoop{&a, false, {}}}, {}, {}, 0);
  CanonicalForm fb =
      constraint::canonicalize({CanonicalLoop{&b, false, {}}}, {}, {}, 0);
  EXPECT_EQ(fa.hash, fb.hash);
  EXPECT_EQ(fa.rendering, fb.rendering);
  EXPECT_NE(fa.toCanonical.symbol("P1"), fa.toCanonical.symbol("P2"));
}

// ---------------------------------------------------------------------------
// Invariance on real systems and on heavy ties
// ---------------------------------------------------------------------------

// One program's canonicalization input: per-loop systems plus range fns.
struct Systems {
  std::vector<System> loops;
  std::set<std::string> rangeFns;
};

CanonicalForm canonicalForm(const Systems& in) {
  std::vector<CanonicalLoop> loops;
  for (const System& s : in.loops) loops.push_back(CanonicalLoop{&s, false, {}});
  return constraint::canonicalize(loops, {}, in.rangeFns, 0);
}

// Each loop's Algorithm 1 system, one symbol generator for the program.
Systems inferredSystems(region::World& world, const ir::Program& program) {
  Systems out;
  constraint::SymbolGen gen;
  for (const ir::Loop& loop : program.loops) {
    EXPECT_TRUE(analysis::checkParallelizable(world, loop).ok) << loop.name;
    out.loops.push_back(analysis::inferConstraints(world, loop, gen).system);
  }
  for (const std::string& id : world.fnIds()) {
    if (world.fn(id).isRangeValued()) out.rangeFns.insert(id);
  }
  return out;
}

// Renames every symbol, region and fn the systems mention (f_ID excepted)
// to fresh names in seeded random order, and shuffles the loops.
Systems renamedAndShuffled(const Systems& in, unsigned seed) {
  const NameMaps names = canonicalForm(in).toCanonical;
  std::mt19937 rng(seed);
  auto rename = [&](const std::map<std::string, std::string>& from,
                    std::map<std::string, std::string>& into) {
    std::vector<int> perm(from.size());
    std::iota(perm.begin(), perm.end(), 0);
    std::shuffle(perm.begin(), perm.end(), rng);
    std::size_t i = 0;
    for (const auto& entry : from) {
      char buf[16];
      std::snprintf(buf, sizeof buf, "n%04d", perm[i++]);
      into[entry.first] = buf;
    }
  };
  NameMaps m;
  rename(names.symbols, m.symbols);
  rename(names.regions, m.regions);
  rename(names.fns, m.fns);
  Systems out;
  for (const System& s : in.loops) out.loops.push_back(constraint::mapSystem(s, m));
  std::shuffle(out.loops.begin(), out.loops.end(), rng);
  for (const std::string& f : in.rangeFns) out.rangeFns.insert(m.fn(f));
  return out;
}

bool injective(const std::map<std::string, std::string>& m) {
  std::set<std::string> values;
  for (const auto& entry : m) values.insert(entry.second);
  return values.size() == m.size();
}

void expectInvariant(const Systems& systems) {
  const CanonicalForm base = canonicalForm(systems);
  for (unsigned seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const CanonicalForm renamed =
        canonicalForm(renamedAndShuffled(systems, seed));
    EXPECT_EQ(renamed.hash, base.hash);
    EXPECT_EQ(renamed.rendering, base.rendering);
    for (const CanonicalForm* f : {&base, &renamed}) {
      EXPECT_TRUE(injective(f->toCanonical.symbols));
      EXPECT_TRUE(injective(f->toCanonical.regions));
      EXPECT_TRUE(injective(f->toCanonical.fns));
    }
  }
}

std::vector<Systems> fig14Systems() {
  std::vector<Systems> out;
  apps::SpmvApp spmv({.rowsPerPiece = 64, .nnzPerRow = 3, .pieces = 4});
  out.push_back(inferredSystems(spmv.world(), spmv.program()));
  apps::StencilApp stencil({.rowsPerPiece = 8, .cols = 8, .pieces = 4});
  out.push_back(inferredSystems(stencil.world(), stencil.program()));
  apps::CircuitApp circuit({.pieces = 4, .nodesPerCluster = 32,
                            .wiresPerCluster = 64});
  out.push_back(inferredSystems(circuit.world(), circuit.program()));
  apps::MiniAeroApp miniaero({.nx = 4, .ny = 4, .nzPerPiece = 4, .pieces = 4});
  out.push_back(inferredSystems(miniaero.world(), miniaero.program()));
  apps::PennantApp pennant({.zx = 4, .zyPerPiece = 4, .pieces = 4});
  out.push_back(inferredSystems(pennant.world(), pennant.program()));
  return out;
}

// Twelve loops of one shape: every loop, and the two symbols inside each,
// is interchangeable with its peers, so only individualization splits them.
Systems identicalLoops() {
  Systems out;
  for (int i = 0; i < 12; ++i) {
    const std::string a = "A" + std::to_string(i), b = "B" + std::to_string(i),
                      c = "C" + std::to_string(i);
    System s;
    s.declareSymbol(a, "Particles");
    s.declareSymbol(b, "Particles");
    s.declareSymbol(c, "Cells");
    s.addDisj(dpl::symbol(a));
    s.addDisj(dpl::symbol(b));
    s.addSubset(dpl::image(dpl::symbol(a), "cell", "Cells"), dpl::symbol(c));
    s.addSubset(dpl::image(dpl::symbol(b), "cell", "Cells"), dpl::symbol(c));
    out.loops.push_back(std::move(s));
  }
  return out;
}

TEST(Canonicalize, Fig14SystemsAreRenameAndLoopOrderInvariant) {
  const char* const names[] = {"spmv", "stencil", "circuit", "miniaero",
                               "pennant"};
  const std::vector<Systems> apps = fig14Systems();
  for (std::size_t i = 0; i < apps.size(); ++i) {
    SCOPED_TRACE(names[i]);
    expectInvariant(apps[i]);
  }
}

TEST(Canonicalize, IdenticalLoopsGetOneFormWithDistinctNames) {
  const Systems systems = identicalLoops();
  expectInvariant(systems);
  EXPECT_EQ(canonicalForm(systems).toCanonical.symbols.size(), 36u);
}

TEST(Canonicalize, ConcurrentCallsAgree) {
  std::vector<Systems> inputs = fig14Systems();
  inputs.push_back(identicalLoops());
  std::vector<CanonicalForm> expected;
  for (const Systems& s : inputs) expected.push_back(canonicalForm(s));
  std::vector<std::vector<CanonicalForm>> results(4);
  std::vector<std::thread> threads;
  for (std::vector<CanonicalForm>& out : results) {
    threads.emplace_back([&inputs, &out] {
      for (int round = 0; round < 3; ++round) {
        for (const Systems& s : inputs) out.push_back(canonicalForm(s));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::vector<CanonicalForm>& out : results) {
    ASSERT_EQ(out.size(), 3 * expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
      const CanonicalForm& want = expected[i % expected.size()];
      EXPECT_EQ(out[i].hash, want.hash);
      EXPECT_EQ(out[i].rendering, want.rendering);
      EXPECT_EQ(out[i].toCanonical.symbols, want.toCanonical.symbols);
      EXPECT_EQ(out[i].toCanonical.regions, want.toCanonical.regions);
      EXPECT_EQ(out[i].toCanonical.fns, want.toCanonical.fns);
    }
  }
}

TEST(NameMapsTest, MapExprAndInvertRoundTrip) {
  NameMaps m;
  m.symbols = {{"P1", "s0"}};
  m.regions = {{"R", "r0"}, {"S", "r1"}};
  m.fns = {{"f", "f0"}};
  dpl::ExprPtr e = dpl::unionOf(
      dpl::image(dpl::symbol("P1"), "f", "S"),
      dpl::preimage("R", "f", dpl::equalOf("S")));
  dpl::ExprPtr mapped = constraint::mapExpr(e, m);
  EXPECT_EQ(mapped->toString(),
            "(image(s0, f0, r1) u preimage(r0, f0, equal(r1)))");
  dpl::ExprPtr back = constraint::mapExpr(mapped, m.inverted());
  EXPECT_TRUE(dpl::exprEq(e, back));
  // f_ID passes through unrenamed.
  dpl::ExprPtr id = dpl::image(dpl::symbol("P1"), "f_ID", "R");
  EXPECT_EQ(constraint::mapExpr(id, m)->toString(), "image(s0, f_ID, r0)");
}

// ---------------------------------------------------------------------------
// End-to-end: isomorphic programs share one solve
// ---------------------------------------------------------------------------

// The quickstart particles/cells world under arbitrary names, with the
// independent statements of the first loop optionally reordered.
struct Names {
  std::string particles, cells, cellField, pos, vel, acc, h;
};

void buildWorld(region::World& world, const Names& n) {
  constexpr region::Index kParticles = 100;
  constexpr region::Index kCells = 10;
  auto& particles = world.addRegion(n.particles, kParticles);
  auto& cells = world.addRegion(n.cells, kCells);
  particles.addField(n.cellField, region::FieldType::Idx);
  particles.addField(n.pos, region::FieldType::F64);
  cells.addField(n.vel, region::FieldType::F64);
  cells.addField(n.acc, region::FieldType::F64);
  auto cell = particles.idx(n.cellField);
  for (region::Index p = 0; p < kParticles; ++p) {
    cell[static_cast<std::size_t>(p)] = p % kCells;
  }
  world.defineFieldFn(n.particles, n.cellField, n.cells);
  world.defineAffineFn(n.h, n.cells, n.cells,
                       [](region::Index c) { return (c + 1) % 10; });
}

// With `reordered`, the two field loads through `c` swap (fields do not
// appear in constraint systems, and both loads chain through the same
// rebound variable, so the inferred systems are isomorphic) and the two
// loops swap program order. Note that NOT every statement reorder preserves
// the key: Algorithm 1's access rebinding is order-sensitive, so moving an
// access before the one it chains through changes the constraint structure
// itself — such programs genuinely need their own solve.
ir::Program figureProgram(const Names& n, bool reordered) {
  ir::Program prog;
  prog.name = "figure1";
  ir::Loop particlesLoop, cellsLoop;
  {
    ir::LoopBuilder b("update_particles", "p", n.particles);
    b.loadIdx("c", n.particles, n.cellField, "p");
    if (reordered) {
      b.loadF64("v2", n.cells, n.acc, "c");
      b.loadF64("v1", n.cells, n.vel, "c");
    } else {
      b.loadF64("v1", n.cells, n.vel, "c");
      b.loadF64("v2", n.cells, n.acc, "c");
    }
    b.compute("dp", {"v1", "v2"},
              [](auto v) { return 0.5 * v[0] + 0.25 * v[1]; });
    b.reduce(n.particles, n.pos, "p", "dp");
    particlesLoop = b.build();
  }
  {
    ir::LoopBuilder b("update_cells", "c", n.cells);
    b.loadF64("a1", n.cells, n.acc, "c");
    b.apply("c2", n.h, "c");
    b.loadF64("a2", n.cells, n.acc, "c2");
    b.compute("dv", {"a1", "a2"},
              [](auto v) { return v[0] + 0.5 * v[1]; });
    b.reduce(n.cells, n.vel, "c", "dv");
    cellsLoop = b.build();
  }
  if (reordered) {
    prog.loops.push_back(std::move(cellsLoop));
    prog.loops.push_back(std::move(particlesLoop));
  } else {
    prog.loops.push_back(std::move(particlesLoop));
    prog.loops.push_back(std::move(cellsLoop));
  }
  return prog;
}

const Names kNamesA{"Particles", "Cells", "cell", "pos", "vel", "acc", "h"};
const Names kNamesB{"Atoms", "Boxes", "box", "q", "w", "a", "nbr"};

TEST(SolveCacheTest, IsomorphicProgramsCollideAndShareOneSolve) {
  SolveCache cache;
  parallelize::Options opts;
  opts.solveCache = &cache;

  region::World worldA;
  buildWorld(worldA, kNamesA);
  AutoParallelizer apA(worldA, opts);
  ParallelPlan planA = apA.plan(figureProgram(kNamesA, false));
  EXPECT_FALSE(planA.stats.cacheHit);

  // Renamed everything + reordered statements: same canonical key, served
  // from the cache.
  region::World worldB;
  buildWorld(worldB, kNamesB);
  AutoParallelizer apB(worldB, opts);
  ParallelPlan planB = apB.plan(figureProgram(kNamesB, true));
  EXPECT_EQ(planA.stats.cacheKey, planB.stats.cacheKey);
  EXPECT_TRUE(planB.stats.cacheHit);

  // The cache-served plan matches a fresh solve of the renamed program up
  // to DPL statement order: the cached entry replays the first program's
  // assignment order, the fresh solve assigns in this program's loop order.
  // (Exact bitwise identity holds when the *same* program is resubmitted —
  // see the Fig. 14 cases below.)
  AutoParallelizer apFresh(worldB);
  ParallelPlan planFresh = apFresh.plan(figureProgram(kNamesB, true));
  EXPECT_FALSE(planFresh.stats.cacheHit);
  auto sortedLines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream is(text);
    for (std::string line; std::getline(is, line);) lines.push_back(line);
    std::sort(lines.begin(), lines.end());
    return lines;
  };
  EXPECT_EQ(sortedLines(fingerprint(planB)), sortedLines(fingerprint(planFresh)));

  SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.renderingConflicts, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SolveCacheTest, StructurallyDistinctProgramsDoNotCollide) {
  SolveCache cache;
  parallelize::Options opts;
  opts.solveCache = &cache;

  region::World worldA;
  buildWorld(worldA, kNamesA);
  AutoParallelizer apA(worldA, opts);
  ParallelPlan planA = apA.plan(figureProgram(kNamesA, false));

  // Same world, structurally different program: the second loop reads vel
  // through the neighbor map instead of reducing into it.
  region::World worldC;
  buildWorld(worldC, kNamesA);
  ir::Program prog = figureProgram(kNamesA, false);
  {
    ir::LoopBuilder b("smooth", "c", "Cells");
    b.loadF64("a1", "Cells", "acc", "c");
    b.compute("dv", {"a1"}, [](auto v) { return v[0]; });
    b.reduce("Cells", "vel", "c", "dv");
    prog.loops[1] = b.build();
  }
  AutoParallelizer apC(worldC, opts);
  ParallelPlan planC = apC.plan(prog);
  EXPECT_NE(planA.stats.cacheKey, planC.stats.cacheKey);
  EXPECT_FALSE(planC.stats.cacheHit);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST(SolveCacheTest, OptionsArePartOfTheKey) {
  SolveCache cache;
  parallelize::Options opts;
  opts.solveCache = &cache;

  region::World world;
  buildWorld(world, kNamesA);
  AutoParallelizer ap(world, opts);
  ParallelPlan p1 = ap.plan(figureProgram(kNamesA, false));

  parallelize::Options noUnify = opts;
  noUnify.enableUnification = false;
  AutoParallelizer ap2(world, noUnify);
  ParallelPlan p2 = ap2.plan(figureProgram(kNamesA, false));
  EXPECT_NE(p1.stats.cacheKey, p2.stats.cacheKey);
  EXPECT_FALSE(p2.stats.cacheHit);
}

TEST(SolveCacheTest, LruEvictionBoundsEntries) {
  SolveCache cache(1);
  parallelize::Options opts;
  opts.solveCache = &cache;

  region::World world;
  buildWorld(world, kNamesA);
  AutoParallelizer ap(world, opts);
  (void)ap.plan(figureProgram(kNamesA, false));

  parallelize::Options noRelax = opts;
  noRelax.enableRelaxation = false;
  AutoParallelizer ap2(world, noRelax);
  (void)ap2.plan(figureProgram(kNamesA, false));
  EXPECT_EQ(cache.stats().entries, 1u);

  // First entry was evicted: compiling the original again misses.
  ParallelPlan p3 = ap.plan(figureProgram(kNamesA, false));
  EXPECT_FALSE(p3.stats.cacheHit);
}

// ---------------------------------------------------------------------------
// All five Fig. 14 apps: cache-served == fresh, bit for bit
// ---------------------------------------------------------------------------

void expectCachedPlanIdentical(region::World& world,
                               const ir::Program& program) {
  SolveCache cache;
  parallelize::Options opts;
  opts.solveCache = &cache;

  AutoParallelizer cold(world, opts);
  ParallelPlan fresh = cold.plan(program);
  EXPECT_FALSE(fresh.stats.cacheHit);

  AutoParallelizer warm(world, opts);
  ParallelPlan served = warm.plan(program);
  ASSERT_TRUE(served.stats.cacheHit);
  EXPECT_GT(fresh.stats.solverCalls, 0u);
  EXPECT_EQ(served.stats.solverCalls, 0u);  // a hit solves nothing
  EXPECT_EQ(served.stats.cacheKey, fresh.stats.cacheKey);
  EXPECT_EQ(fingerprint(served), fingerprint(fresh));
}

TEST(SolveCacheFig14, Spmv) {
  apps::SpmvApp app({.rowsPerPiece = 64, .nnzPerRow = 3, .pieces = 4});
  expectCachedPlanIdentical(app.world(), app.program());
}

TEST(SolveCacheFig14, Stencil) {
  apps::StencilApp app({.rowsPerPiece = 8, .cols = 8, .pieces = 4});
  expectCachedPlanIdentical(app.world(), app.program());
}

TEST(SolveCacheFig14, MiniAero) {
  apps::MiniAeroApp app({.nx = 4, .ny = 4, .nzPerPiece = 4, .pieces = 4});
  expectCachedPlanIdentical(app.world(), app.program());
}

TEST(SolveCacheFig14, Circuit) {
  apps::CircuitApp app({.pieces = 4, .nodesPerCluster = 32,
                        .wiresPerCluster = 64});
  expectCachedPlanIdentical(app.world(), app.program());
}

TEST(SolveCacheFig14, Pennant) {
  apps::PennantApp app({.zx = 4, .zyPerPiece = 4, .pieces = 4});
  expectCachedPlanIdentical(app.world(), app.program());
}

}  // namespace
}  // namespace dpart
