// Plan golden oracle: compiles the five Fig. 14 apps (auto and hint
// variants), the ablation_solver option variants and one
// vocabulary-constrained, proof-emitting compile, and compares the plan,
// resolved system and proof-certificate bytes against committed text files
// under tests/golden/. Unlike the engine-vs-engine and cached-vs-fresh
// differential tests, both sides of this comparison do not run through the
// same compiler, so a regression in a phase shared by every compile fails
// here.
//
// On a mismatch (or a missing golden file) the actual text is written next
// to the test's temp dir as <case>.actual; after an intended plan change,
// review the diff and copy it over tests/golden/<case>.txt.

#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "apps/circuit.hpp"
#include "apps/miniaero.hpp"
#include "apps/pennant.hpp"
#include "apps/spmv.hpp"
#include "apps/stencil.hpp"
#include "parallelize/solve_cache.hpp"
#include "runtime/session.hpp"

namespace dpart {
namespace {

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) return {};
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// plan.toString() embeds dpl.toString() as its first section.
std::string render(const parallelize::ParallelPlan& plan) {
  std::ostringstream os;
  os << plan.toString() << "=== resolved system ===\n"
     << plan.system.toString() << "=== external symbols ===\n";
  for (const std::string& sym : plan.externalSymbols) os << sym << '\n';
  return os.str();
}

void expectGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(DPART_GOLDEN_DIR) + "/" + name;
  const std::string expected = readFile(path);
  if (expected == actual) return;
  const std::string dump = ::testing::TempDir() + name + ".actual";
  std::ofstream(dump, std::ios::binary | std::ios::trunc) << actual;
  ADD_FAILURE() << (expected.empty() ? "missing golden file " : "mismatch: ")
                << path << " (actual written to " << dump << ")";
}

apps::SpmvApp::Params spmvParams() {
  apps::SpmvApp::Params p;
  p.rowsPerPiece = 16;
  p.pieces = 4;
  return p;
}

apps::StencilApp::Params stencilParams() {
  apps::StencilApp::Params p;
  p.rowsPerPiece = 8;
  p.cols = 8;
  p.pieces = 4;
  return p;
}

apps::CircuitApp::Params circuitParams() {
  apps::CircuitApp::Params p;
  p.pieces = 4;
  p.nodesPerCluster = 64;
  p.wiresPerCluster = 256;
  return p;
}

apps::MiniAeroApp::Params miniaeroParams() {
  apps::MiniAeroApp::Params p;
  p.nx = 4;
  p.ny = 4;
  p.nzPerPiece = 4;
  p.pieces = 4;
  return p;
}

apps::PennantApp::Params pennantParams() {
  apps::PennantApp::Params p;
  p.zx = 6;
  p.zyPerPiece = 6;
  p.pieces = 4;
  return p;
}

TEST(PlanGolden, SpmvAuto) {
  apps::SpmvApp app(spmvParams());
  expectGolden("spmv_auto.txt", render(app.autoSetup().plan));
}

TEST(PlanGolden, StencilAuto) {
  apps::StencilApp app(stencilParams());
  expectGolden("stencil_auto.txt", render(app.autoSetup().plan));
}

TEST(PlanGolden, CircuitAutoAndHint) {
  apps::CircuitApp app(circuitParams());
  expectGolden("circuit_auto.txt", render(app.autoSetup().plan));
  expectGolden("circuit_hint.txt", render(app.hintSetup().plan));
}

TEST(PlanGolden, MiniAeroAuto) {
  apps::MiniAeroApp app(miniaeroParams());
  expectGolden("miniaero_auto.txt", render(app.autoSetup().plan));
}

TEST(PlanGolden, PennantAutoAndHints) {
  apps::PennantApp app(pennantParams());
  expectGolden("pennant_auto.txt", render(app.autoSetup().plan));
  expectGolden("pennant_hint1.txt", render(app.hint1Setup().plan));
  expectGolden("pennant_hint2.txt", render(app.hint2Setup().plan));
}

// bench/ablation_solver's option variants.
TEST(PlanGolden, AblationVariants) {
  auto compile = [](region::World& world, const ir::Program& program,
                    const std::function<void(parallelize::Options&)>& set) {
    parallelize::Options opts;
    set(opts);
    return render(parallelize::AutoParallelizer(world, opts).plan(program));
  };
  auto noUnify = [](parallelize::Options& o) { o.enableUnification = false; };
  {
    apps::CircuitApp app(circuitParams());
    expectGolden("circuit_nounify.txt",
                 compile(app.world(), app.program(), noUnify));
    expectGolden("circuit_nopriv.txt",
                 compile(app.world(), app.program(), [](auto& o) {
                   o.enablePrivateSubPartitions = false;
                 }));
  }
  {
    apps::MiniAeroApp app(miniaeroParams());
    expectGolden("miniaero_nounify.txt",
                 compile(app.world(), app.program(), noUnify));
    expectGolden("miniaero_norelax.txt",
                 compile(app.world(), app.program(), [](auto& o) {
                   o.enableRelaxation = false;
                 }));
  }
  {
    apps::PennantApp app(pennantParams());
    expectGolden("pennant_nounify.txt",
                 compile(app.world(), app.program(), noUnify));
  }
}

// A cache hit rebinds a stored solve into the requester's names; the
// rebound plan must match the golden fresh plan byte for byte.
TEST(PlanGolden, CacheHitsMatchFreshPlans) {
  auto check = [](const std::string& name, region::World& world,
                  const ir::Program& program) {
    parallelize::SolveCache cache;
    parallelize::Options opts;
    opts.solveCache = &cache;
    const parallelize::ParallelPlan cold =
        parallelize::AutoParallelizer(world, opts).plan(program);
    const parallelize::ParallelPlan warm =
        parallelize::AutoParallelizer(world, opts).plan(program);
    EXPECT_FALSE(cold.stats.cacheHit) << name;
    EXPECT_TRUE(warm.stats.cacheHit) << name;
    expectGolden(name, render(warm));
  };
  {
    apps::SpmvApp app(spmvParams());
    check("spmv_auto.txt", app.world(), app.program());
  }
  {
    apps::CircuitApp app(circuitParams());
    check("circuit_auto.txt", app.world(), app.program());
  }
  {
    apps::PennantApp app(pennantParams());
    check("pennant_auto.txt", app.world(), app.program());
  }
}

TEST(PlanGolden, VocabularyProofCertificate) {
  apps::SpmvApp app(spmvParams());
  const std::string path = ::testing::TempDir() + "golden_vocab.dprf";
  const Plan plan = Session::parallelize(app.program())
                        .pieces(4)
                        .capacity("Y", 16)
                        .replication("Y", 0.0, 4.0)
                        .colocate("Mat.val", "Mat.ind")
                        .proof(path)
                        .compile(app.world());
  expectGolden("spmv_vocab.txt", render(plan.parallelPlan()));
  expectGolden("spmv_vocab.dprf", readFile(path));
}

}  // namespace
}  // namespace dpart
