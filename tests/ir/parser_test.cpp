#include "ir/parser.h"

#include <gtest/gtest.h>

#include "ir/interp.h"
#include "support/error.h"
#include "support/io.h"

namespace aviv {
namespace {

TEST(BlockParser, ParsesSimpleBlock) {
  const BlockDag dag = parseBlock(R"(
    block ex {
      input a, b;
      output y;
      y = a + b * 2;
    }
  )");
  EXPECT_EQ(dag.name(), "ex");
  // a, b, 2, mul, add
  EXPECT_EQ(dag.size(), 5u);
  const auto out = evalDagOutputs(dag, {{"a", 1}, {"b", 3}});
  EXPECT_EQ(out.at("y"), 7);
}

TEST(BlockParser, PrecedenceMulOverAdd) {
  const BlockDag dag = parseBlock(
      "block t { input a, b, c; output y; y = a + b * c; }");
  EXPECT_EQ(evalDagOutputs(dag, {{"a", 1}, {"b", 2}, {"c", 3}}).at("y"), 7);
}

TEST(BlockParser, PrecedenceShiftBelowAdd) {
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = a << 1 + 1; }");
  // 1+1 binds tighter: a << 2
  EXPECT_EQ(evalDagOutputs(dag, {{"a", 1}}).at("y"), 4);
}

TEST(BlockParser, ParenthesesOverridePrecedence) {
  const BlockDag dag = parseBlock(
      "block t { input a, b, c; output y; y = (a + b) * c; }");
  EXPECT_EQ(evalDagOutputs(dag, {{"a", 1}, {"b", 2}, {"c", 3}}).at("y"), 9);
}

TEST(BlockParser, UnaryOperators) {
  const BlockDag dag = parseBlock(
      "block t { input a; output y, z; y = -a; z = ~a; }");
  const auto out = evalDagOutputs(dag, {{"a", 5}});
  EXPECT_EQ(out.at("y"), -5);
  EXPECT_EQ(out.at("z"), ~int64_t{5});
}

TEST(BlockParser, Intrinsics) {
  const BlockDag dag = parseBlock(R"(
    block t {
      input a, b, c;
      output y, z, w;
      y = min(a, b);
      z = abs(c);
      w = mac(a, b, c);
    }
  )");
  const auto out = evalDagOutputs(dag, {{"a", 4}, {"b", -2}, {"c", -9}});
  EXPECT_EQ(out.at("y"), -2);
  EXPECT_EQ(out.at("z"), 9);
  EXPECT_EQ(out.at("w"), 4 * -2 + -9);
}

TEST(BlockParser, ComparisonsAndBitwise) {
  const BlockDag dag = parseBlock(R"(
    block t {
      input a, b;
      output c, d;
      c = a < b;
      d = (a & b) | (a ^ b);
    }
  )");
  const auto out = evalDagOutputs(dag, {{"a", 6}, {"b", 3}});
  EXPECT_EQ(out.at("c"), 0);
  EXPECT_EQ(out.at("d"), 7);
}

TEST(BlockParser, TempsAndRebinding) {
  const BlockDag dag = parseBlock(R"(
    block t {
      input a;
      output y;
      t = a + 1;
      t = t * 2;   # rebind
      y = t;
    }
  )");
  EXPECT_EQ(evalDagOutputs(dag, {{"a", 3}}).at("y"), 8);
}

TEST(BlockParser, RepeatExpandsWithIndexSubstitution) {
  const BlockDag dag = parseBlock(R"(
    block t {
      input a0, a1, k;
      output y0, y1;
      repeat 2 { y$i = a$i * k + $i; }
    }
  )");
  const auto out = evalDagOutputs(dag, {{"a0", 2}, {"a1", 3}, {"k", 10}});
  EXPECT_EQ(out.at("y0"), 20);
  EXPECT_EQ(out.at("y1"), 31);
}

TEST(BlockParser, HexLiterals) {
  const BlockDag dag = parseBlock("block t { output y; y = 0x10 + 1; }");
  EXPECT_EQ(evalDagOutputs(dag, {}).at("y"), 17);
}

TEST(BlockParser, ErrorOnUndefinedValue) {
  EXPECT_THROW(parseBlock("block t { output y; y = oops; }"), Error);
}

TEST(BlockParser, ErrorOnUnassignedOutput) {
  EXPECT_THROW(parseBlock("block t { input a; output y; }"), Error);
}

TEST(BlockParser, ErrorOnBadIntrinsicArity) {
  EXPECT_THROW(
      parseBlock("block t { input a; output y; y = min(a); }"), Error);
}

TEST(BlockParser, ErrorOnNestedRepeat) {
  EXPECT_THROW(parseBlock(R"(
    block t { input a; output y;
      repeat 2 { repeat 2 { y = a; } }
    }
  )"),
               Error);
}

TEST(BlockParser, ErrorCarriesLineNumber) {
  try {
    (void)parseBlock("block t {\n  input a;\n  output y;\n  y = @;\n}");
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.loc().line, 4u) << e.what();
  }
}

TEST(ProgramParser, MultiBlockWithTerminators) {
  const Program program = parseProgram(R"(
    block entry {
      input n;
      output cond, x;
      x = n * 2;
      cond = x > 10;
      if cond goto big else small;
    }
    block big {
      input x;
      output r;
      r = x - 10;
      return;
    }
    block small {
      input x;
      output r;
      r = x + 100;
      return;
    }
  )",
                                       "branchy");
  EXPECT_EQ(program.numBlocks(), 3u);
  EXPECT_EQ(evalProgram(program, {{"n", 20}}).at("r"), 30);
  EXPECT_EQ(evalProgram(program, {{"n", 1}}).at("r"), 102);
}

TEST(ProgramParser, ImplicitFallthroughIsJumpToNextBlock) {
  const Program program = parseProgram(R"(
    block first { input a; output t; t = a + 1; }
    block second { input t; output y; y = t * 2; return; }
  )",
                                       "fall");
  EXPECT_EQ(program.terminator(0).kind, TermKind::kJump);
  EXPECT_EQ(program.terminator(0).target, "second");
  EXPECT_EQ(evalProgram(program, {{"a", 4}}).at("y"), 10);
}

TEST(ProgramParser, LoopProgramTerminates) {
  const Program program = parseProgram(R"(
    block loop {
      input i, acc;
      output i, acc, cond;
      acc = acc + i;
      i = i - 1;
      cond = i > 0;
      if cond goto loop else done;
    }
    block done {
      input acc;
      output acc;
      return;
    }
  )",
                                       "looper");
  EXPECT_EQ(evalProgram(program, {{"i", 4}, {"acc", 0}}).at("acc"), 10);
}

// PR 4 input hardening: the parser must survive the first syntax error,
// resynchronise, and report every error in the source with its location.
TEST(BlockParser, PanicModeReportsMultipleDiagnostics) {
  try {
    (void)parseProgram(R"(
      block bad {
        input a, b;
        output y, z;
        y = a + ;
        z = * b;
        return;
      }
    )",
                       "multi-error");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.sourceName(), "multi-error");
    ASSERT_GE(e.diagnostics().size(), 2u);
    for (const Diagnostic& d : e.diagnostics()) {
      EXPECT_TRUE(d.loc.valid()) << d.message;
      EXPECT_FALSE(d.message.empty());
    }
    // Both bad statements reported, in source order.
    EXPECT_LT(e.diagnostics()[0].loc.line, e.diagnostics()[1].loc.line);
    // what() carries the source name and every location.
    const std::string what = e.what();
    EXPECT_NE(what.find("multi-error"), std::string::npos);
  }
}

TEST(BlockParser, RecoveryReachesErrorsInLaterBlocks) {
  try {
    (void)parseProgram(R"(
      block first {
        input a;
        output y;
        y = a + ;
        goto second;
      }
      block second {
        input y;
        output z;
        z = y * ;
        return;
      }
    )",
                       "two-blocks");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    ASSERT_GE(e.diagnostics().size(), 2u)
        << "recovery must continue past the first block: " << e.what();
  }
}

TEST(ShippedBlocks, ParseWithExpectedPaperNodeCounts) {
  // Original-DAG node counts from Table I of the paper.
  const std::vector<std::pair<std::string, size_t>> expected = {
      {"ex1", 8}, {"ex2", 13}, {"ex3", 11}, {"ex4", 15}, {"ex5", 16}};
  for (const auto& [name, nodes] : expected) {
    const BlockDag dag = loadBlock(name);
    EXPECT_EQ(dag.size(), nodes) << name;
  }
}

}  // namespace
}  // namespace aviv
