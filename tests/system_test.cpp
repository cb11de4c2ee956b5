#include "constraint/system.hpp"

#include <gtest/gtest.h>

#include "constraint/graphviz.hpp"
#include "support/check.hpp"

namespace dpart::constraint {
namespace {

using dpl::equalOf;
using dpl::image;
using dpl::preimage;
using dpl::symbol;

TEST(System, DeclareAndQuerySymbols) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("pX", "S", /*fixed=*/true);
  EXPECT_TRUE(sys.hasSymbol("P1"));
  EXPECT_FALSE(sys.hasSymbol("P2"));
  EXPECT_EQ(sys.regionOf("P1"), "R");
  EXPECT_FALSE(sys.isFixed("P1"));
  EXPECT_TRUE(sys.isFixed("pX"));
  EXPECT_EQ(sys.symbols(), (std::set<std::string>{"P1", "pX"}));
  EXPECT_EQ(sys.openSymbols(), (std::set<std::string>{"P1"}));
  EXPECT_THROW((void)sys.regionOf("nope"), Error);
}

TEST(System, RedeclareSameRegionIsIdempotent) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P1", "R");
  EXPECT_EQ(sys.preds().size(), 1u);  // one PART pred, not two
  EXPECT_THROW(sys.declareSymbol("P1", "S"), Error);
}

TEST(System, RedeclareCanPromoteToFixed) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P1", "R", /*fixed=*/true);
  EXPECT_TRUE(sys.isFixed("P1"));
}

TEST(System, RequiresDisjCompAreSymbolSpecific) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "R");
  sys.addDisj(symbol("P1"));
  sys.addComp(symbol("P2"), "R");
  // DISJ on a non-symbol expression does not mark the symbols inside it.
  sys.addDisj(dpl::unionOf(symbol("P1"), symbol("P2")));
  EXPECT_TRUE(sys.requiresDisj("P1"));
  EXPECT_FALSE(sys.requiresDisj("P2"));
  EXPECT_TRUE(sys.requiresComp("P2"));
  EXPECT_FALSE(sys.requiresComp("P1"));
}

TEST(System, MergeMarksAssumed) {
  System ext;
  ext.declareSymbol("pX", "R");
  ext.addComp(symbol("pX"), "R");
  ext.addSubset(symbol("pX"), symbol("pX"));

  System sys;
  sys.declareSymbol("P1", "R");
  sys.merge(ext, /*assumed=*/true);
  EXPECT_TRUE(sys.isFixed("pX"));  // assumed merge fixes the symbols
  bool sawAssumedComp = false;
  for (const Pred& p : sys.preds()) {
    if (p.kind == Pred::Kind::Comp) sawAssumedComp = p.assumed;
  }
  EXPECT_TRUE(sawAssumedComp);
  ASSERT_EQ(sys.subsets().size(), 1u);
  EXPECT_TRUE(sys.subsets()[0].assumed);
}

TEST(System, SubstitutedGroundsAndDropsTautologies) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "S");
  sys.addComp(symbol("P1"), "R");
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addSubset(symbol("P1"), symbol("P1"));  // tautology

  System g = sys.substituted({{"P1", equalOf("R")}});
  EXPECT_FALSE(g.hasSymbol("P1"));
  EXPECT_TRUE(g.hasSymbol("P2"));
  // The tautology vanished; the image subset got grounded.
  ASSERT_EQ(g.subsets().size(), 1u);
  EXPECT_EQ(g.subsets()[0].toString(), "image(equal(R), f, S) <= P2");
  // COMP obligation survives, grounded.
  bool sawComp = false;
  for (const Pred& p : g.preds()) {
    if (p.kind == Pred::Kind::Comp) {
      sawComp = true;
      EXPECT_EQ(p.expr->toString(), "equal(R)");
    }
  }
  EXPECT_TRUE(sawComp);
}

TEST(System, SubstitutedDeduplicates) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "R");
  sys.addSubset(symbol("P1"), symbol("P2"));
  sys.addSubset(symbol("P1"), symbol("P2"));
  System g = sys.substituted({});
  EXPECT_EQ(g.subsets().size(), 1u);
}

TEST(System, SubstitutedDedupIsStructural) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "S");
  // Built twice from distinct ExprPtrs: one copy survives.
  sys.addDisj(image(symbol("P1"), "f", "S"));
  sys.addDisj(image(symbol("P1"), "f", "S"));
  // Assumed and non-assumed copies of one conjunct stay apart.
  sys.addDisj(symbol("P2"), /*assumed=*/true);
  sys.addDisj(symbol("P2"));
  sys.addDisj(symbol("P2"), /*assumed=*/true);
  // PART and COMP of one expression stay apart.
  sys.addPart(image(symbol("P1"), "f", "S"), "S");
  sys.addComp(image(symbol("P1"), "f", "S"), "S");
  sys.addComp(image(symbol("P1"), "f", "S"), "S");
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"),
                /*assumed=*/true);
  const System g = sys.substituted({});
  std::vector<std::string> preds;
  for (const Pred& p : g.preds()) {
    preds.push_back(p.toString() + (p.assumed ? " assumed" : ""));
  }
  // Declarations first, then first occurrences in input order.
  EXPECT_EQ(preds, (std::vector<std::string>{
                       "PART(P1, R)", "PART(P2, S)", "DISJ(image(P1, f, S))",
                       "DISJ(P2) assumed", "DISJ(P2)",
                       "PART(image(P1, f, S), S)", "COMP(image(P1, f, S), S)"}));
  ASSERT_EQ(g.subsets().size(), 2u);
  EXPECT_FALSE(g.subsets()[0].assumed);
  EXPECT_TRUE(g.subsets()[1].assumed);
}

TEST(System, SubstitutedMergesConjunctsThatBecomeIdentical) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "R");
  sys.declareSymbol("P3", "R");
  sys.addDisj(symbol("P3"));
  sys.addDisj(symbol("P1"));
  sys.addDisj(symbol("P2"));
  sys.addSubset(symbol("P3"), symbol("P1"));
  sys.addSubset(symbol("P3"), symbol("P2"));
  const System g = sys.substituted({{"P2", symbol("P1")}});
  std::vector<std::string> printed;
  for (const Pred& p : g.preds()) printed.push_back(p.toString());
  for (const Subset& sc : g.subsets()) printed.push_back(sc.toString());
  // PART(P2, R) becomes a second PART(P1, R): substituted conjuncts are
  // deduplicated among themselves, not against the re-declared symbols.
  EXPECT_EQ(printed, (std::vector<std::string>{
                         "PART(P1, R)", "PART(P3, R)", "PART(P1, R)",
                         "DISJ(P3)", "DISJ(P1)", "P3 <= P1"}));
}

TEST(System, RenameSymbolMergesDeclarations) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "R");
  sys.addComp(symbol("P2"), "R");
  sys.addSubset(image(symbol("P2"), "f", "R"), symbol("P1"));
  sys.renameSymbol("P2", "P1");
  EXPECT_FALSE(sys.hasSymbol("P2"));
  EXPECT_TRUE(sys.requiresComp("P1"));
  ASSERT_EQ(sys.subsets().size(), 1u);
  EXPECT_EQ(sys.subsets()[0].toString(), "image(P1, f, R) <= P1");
}

TEST(System, RenameAcrossRegionsThrows) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "S");
  EXPECT_THROW(sys.renameSymbol("P2", "P1"), Error);
}

TEST(System, DepthFollowsSubsetChains) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("P2", "S");
  sys.declareSymbol("P3", "T");
  sys.addSubset(image(symbol("P1"), "f", "S"), symbol("P2"));
  sys.addSubset(image(symbol("P2"), "g", "T"), symbol("P3"));
  EXPECT_EQ(sys.depth("P1"), 0);
  EXPECT_EQ(sys.depth("P2"), 1);
  EXPECT_EQ(sys.depth("P3"), 2);
}

TEST(System, DepthTerminatesOnRecursiveConstraints) {
  // PENNANT Hint2's recursive external constraint must not hang depth().
  System sys;
  sys.declareSymbol("rs_p", "rs", /*fixed=*/true);
  sys.addSubset(image(symbol("rs_p"), "mapss3", "rs"), symbol("rs_p"));
  EXPECT_GE(sys.depth("rs_p"), 0);  // just has to return
}

TEST(System, ToStringListsEverything) {
  System sys;
  sys.declareSymbol("P1", "R");
  sys.declareSymbol("pX", "R", /*fixed=*/true);
  sys.addComp(symbol("P1"), "R");
  sys.addSubset(symbol("pX"), symbol("P1"));
  const std::string s = sys.toString();
  EXPECT_NE(s.find("P1 : partition of R"), std::string::npos);
  EXPECT_NE(s.find("fixed pX"), std::string::npos);
  EXPECT_NE(s.find("COMP(P1, R)"), std::string::npos);
  EXPECT_NE(s.find("pX <= P1"), std::string::npos);
}

TEST(SymbolGen, FreshNamesAreSequentialAndPrefixed) {
  SymbolGen gen;
  EXPECT_EQ(gen.fresh(), "P1");
  EXPECT_EQ(gen.fresh(), "P2");
  SymbolGen custom("Q");
  EXPECT_EQ(custom.fresh(), "Q1");
}

// ---- Graphviz export ----

TEST(Graphviz, RendersFigure1cStyleGraph) {
  System sys;
  sys.declareSymbol("P1", "Particles");
  sys.addComp(symbol("P1"), "Particles");
  sys.declareSymbol("P2", "Cells");
  sys.addSubset(image(symbol("P1"), "cell", "Cells"), symbol("P2"));
  sys.declareSymbol("P3", "Cells");
  sys.addSubset(image(symbol("P2"), "h", "Cells"), symbol("P3"));
  sys.declareSymbol("pExt", "Cells", /*fixed=*/true);
  sys.addDisj(symbol("pExt"));
  sys.addSubset(preimage("Particles", "cell", symbol("pExt")), symbol("P1"));

  const std::string dot = toGraphviz(sys, "fig1c");
  EXPECT_NE(dot.find("digraph \"fig1c\""), std::string::npos);
  // Complete iteration partition is shaded.
  EXPECT_NE(dot.find("\"P1\" [label=\"P1\\nParticles\", style=filled"),
            std::string::npos);
  // Fixed partitions are boxes; DISJ gets double peripheries.
  EXPECT_NE(dot.find("\"pExt\" [label=\"pExt\\nCells\", shape=box, "
                     "peripheries=2]"),
            std::string::npos);
  // Labeled image edges.
  EXPECT_NE(dot.find("\"P1\" -> \"P2\" [label=\"cell\"];"),
            std::string::npos);
  EXPECT_NE(dot.find("\"P2\" -> \"P3\" [label=\"h\"];"), std::string::npos);
  // The preimage subset appears as an annotation.
  EXPECT_NE(dot.find("shape=note"), std::string::npos);
  EXPECT_NE(dot.find("preimage(Particles, cell, pExt) <= P1"),
            std::string::npos);
}

TEST(Graphviz, EscapesQuotes) {
  System sys;
  sys.declareSymbol("P\"1", "R");
  const std::string dot = toGraphviz(sys);
  EXPECT_NE(dot.find("P\\\"1"), std::string::npos);
}

}  // namespace
}  // namespace dpart::constraint
