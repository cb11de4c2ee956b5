#include "dpl/expr.hpp"

#include <gtest/gtest.h>

#include "dpl/program.hpp"

namespace dpart::dpl {
namespace {

TEST(Expr, PrintsPaperSyntax) {
  ExprPtr e = image(symbol("P1"), "h", "Cells");
  EXPECT_EQ(e->toString(), "image(P1, h, Cells)");
  EXPECT_EQ(preimage("R", "g", equalOf("S"))->toString(),
            "preimage(R, g, equal(S))");
  EXPECT_EQ(unionOf(symbol("A"), symbol("B"))->toString(), "(A u B)");
  EXPECT_EQ(subtractOf(symbol("A"), intersectOf(symbol("B"), symbol("C")))
                ->toString(),
            "(A - (B n C))");
}

TEST(Expr, ToStringGoldenForEveryKind) {
  EXPECT_EQ(symbol("P1")->toString(), "P1");
  EXPECT_EQ(unionOf(symbol("A"), equalOf("R"))->toString(), "(A u equal(R))");
  EXPECT_EQ(intersectOf(symbol("A"), symbol("B"))->toString(), "(A n B)");
  EXPECT_EQ(subtractOf(symbol("A"), symbol("B"))->toString(), "(A - B)");
  EXPECT_EQ(image(symbol("P"), "f", "S")->toString(), "image(P, f, S)");
  EXPECT_EQ(preimage("R", "f", symbol("Q"))->toString(),
            "preimage(R, f, Q)");
  EXPECT_EQ(equalOf("Cells")->toString(), "equal(Cells)");
  // Nested image/preimage chains print inside out.
  ExprPtr chain =
      image(preimage("Faces", "g", image(equalOf("Cells"), "h", "Nodes")),
            "g", "Cells");
  EXPECT_EQ(chain->toString(),
            "image(preimage(Faces, g, image(equal(Cells), h, Nodes)), g, "
            "Cells)");
  EXPECT_EQ(subtractOf(unionOf(chain, symbol("P")),
                       intersectOf(preimage("Cells", "g", symbol("Q")),
                                   equalOf("Cells")))
                ->toString(),
            "((image(preimage(Faces, g, image(equal(Cells), h, Nodes)), g, "
            "Cells) u P) - (preimage(Cells, g, Q) n equal(Cells)))");
}

TEST(Expr, StructuralHashAgreesWithEquality) {
  ExprPtr a = preimage("R", "f", unionOf(symbol("P"), equalOf("S")));
  ExprPtr b = preimage("R", "f", unionOf(symbol("P"), equalOf("S")));
  EXPECT_NE(a, b);
  EXPECT_EQ(a->hash, b->hash);
  EXPECT_TRUE(exprEq(a, b));
  // Operand order, operator and kind all matter.
  EXPECT_FALSE(exprEq(unionOf(symbol("P"), symbol("Q")),
                      unionOf(symbol("Q"), symbol("P"))));
  EXPECT_FALSE(exprEq(unionOf(symbol("P"), symbol("Q")),
                      intersectOf(symbol("P"), symbol("Q"))));
  EXPECT_FALSE(exprEq(image(symbol("P"), "f", "R"),
                      preimage("R", "f", symbol("P"))));
  // Rebuilt nodes hash like freshly built ones.
  EXPECT_TRUE(exprEq(substitute(image(symbol("P"), "f", "R"),
                                {{"P", equalOf("S")}}),
                     image(equalOf("S"), "f", "R")));
  ExprSet set{a};
  EXPECT_FALSE(set.insert(b).second);
  EXPECT_TRUE(set.insert(preimage("R", "f", symbol("P"))).second);
}

TEST(Expr, StructuralEquality) {
  ExprPtr a = image(symbol("P"), "f", "R");
  ExprPtr b = image(symbol("P"), "f", "R");
  ExprPtr c = image(symbol("P"), "g", "R");
  EXPECT_TRUE(exprEq(a, b));
  EXPECT_FALSE(exprEq(a, c));
  EXPECT_FALSE(exprEq(a, symbol("P")));
  EXPECT_TRUE(exprEq(nullptr, nullptr));
  EXPECT_FALSE(exprEq(a, nullptr));
}

TEST(Expr, CollectSymbols) {
  ExprPtr e = unionOf(image(symbol("P1"), "f", "R"),
                      subtractOf(symbol("P2"), equalOf("R")));
  std::set<std::string> syms;
  e->collectSymbols(syms);
  EXPECT_EQ(syms, (std::set<std::string>{"P1", "P2"}));
}

TEST(Expr, ClosedUnder) {
  ExprPtr e = image(symbol("P1"), "f", "R");
  EXPECT_FALSE(e->closedUnder({"P1"}));
  EXPECT_TRUE(e->closedUnder({"P2"}));
  EXPECT_TRUE(equalOf("R")->closedUnder({"P1", "P2"}));
}

TEST(Expr, Substitute) {
  ExprPtr e = unionOf(symbol("P1"), image(symbol("P2"), "f", "R"));
  ExprPtr s = substitute(e, {{"P2", equalOf("R")}});
  EXPECT_EQ(s->toString(), "(P1 u image(equal(R), f, R))");
  // Identity substitution returns the same node (sharing preserved).
  EXPECT_EQ(substitute(e, {{"P9", equalOf("R")}}), e);
}

TEST(Expr, Depth) {
  EXPECT_EQ(symbol("P")->depth(), 0);
  EXPECT_EQ(equalOf("R")->depth(), 0);
  EXPECT_EQ(image(symbol("P"), "f", "R")->depth(), 1);
  EXPECT_EQ(subtractOf(image(symbol("P"), "f", "R"),
                       image(preimage("R", "f", symbol("Q")), "f", "R"))
                ->depth(),
            3);
}

TEST(Expr, UnionOfVector) {
  ExprPtr u = unionOf({symbol("A"), symbol("B"), symbol("C")});
  EXPECT_EQ(u->toString(), "((A u B) u C)");
  EXPECT_EQ(unionOf({symbol("X")})->toString(), "X");
}

TEST(Program, AppendAndPrint) {
  Program prog;
  prog.append("P1", equalOf("R"));
  prog.append("P2", image(symbol("P1"), "f", "S"));
  EXPECT_EQ(prog.toString(), "P1 = equal(R)\nP2 = image(P1, f, S)\n");
  EXPECT_EQ(prog.size(), 2u);
  EXPECT_EQ(prog.constructedPartitions(), 2u);
}

TEST(Program, CseAliasesRepeatedRhs) {
  // Paper Fig. 2b ends with P3 = P5 = image(P2, h, Cells): CSE turns the
  // second construction into an alias.
  Program prog;
  prog.append("P2", equalOf("Cells"));
  prog.append("P3", image(symbol("P2"), "h", "Cells"));
  prog.append("P5", image(symbol("P2"), "h", "Cells"));
  Program cse = prog.withCse();
  EXPECT_EQ(cse.stmts()[2].rhs->toString(), "P3");
  EXPECT_EQ(cse.constructedPartitions(), 2u);
}

TEST(Program, CseSeesThroughAliases) {
  Program prog;
  prog.append("P1", equalOf("R"));
  prog.append("P2", symbol("P1"));
  prog.append("P3", image(symbol("P2"), "f", "S"));
  prog.append("P4", image(symbol("P1"), "f", "S"));
  Program cse = prog.withCse();
  // P3's rhs normalizes to image(P1,...) so P4 aliases P3.
  EXPECT_EQ(cse.stmts()[3].rhs->toString(), "P3");
}

}  // namespace
}  // namespace dpart::dpl
