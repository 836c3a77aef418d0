#include "ir/passes.h"

#include <gtest/gtest.h>

#include "ir/interp.h"
#include "ir/parser.h"
#include "support/rng.h"

namespace aviv {
namespace {

TEST(Passes, FoldsConstantExpressions) {
  const BlockDag dag =
      parseBlock("block t { output y; y = (2 + 3) * 4; }");
  const BlockDag folded = foldConstants(dag);
  ASSERT_EQ(folded.outputs().size(), 1u);
  const DagNode& out = folded.node(folded.outputs()[0].second);
  EXPECT_EQ(out.op, Op::kConst);
  EXPECT_EQ(out.value, 20);
}

TEST(Passes, AppliesAlgebraicIdentities) {
  const BlockDag dag = parseBlock(R"(
    block t {
      input a;
      output y1, y2, y3, y4, y5;
      y1 = a + 0;
      y2 = a * 1;
      y3 = a * 0;
      y4 = a - a;
      y5 = a ^ a;
    }
  )");
  const BlockDag folded = foldConstants(dag);
  auto outNode = [&](const std::string& name) -> const DagNode& {
    for (const auto& [n, id] : folded.outputs())
      if (n == name) return folded.node(id);
    ADD_FAILURE() << "no output " << name;
    return folded.node(0);
  };
  EXPECT_EQ(outNode("y1").op, Op::kInput);
  EXPECT_EQ(outNode("y2").op, Op::kInput);
  EXPECT_EQ(outNode("y3").op, Op::kConst);
  EXPECT_EQ(outNode("y3").value, 0);
  EXPECT_EQ(outNode("y4").op, Op::kConst);
  EXPECT_EQ(outNode("y5").op, Op::kConst);
}

TEST(Passes, DceRemovesUnreachableOps) {
  BlockDag dag("t", /*cse=*/false);
  const NodeId a = dag.addInput("a");
  const NodeId used = dag.addOp(Op::kAdd, {a, a});
  dag.addOp(Op::kMul, {a, a});  // dead
  dag.markOutput("y", used);

  const BlockDag cleaned = eliminateDeadCode(dag);
  EXPECT_EQ(cleaned.numOpNodes(), 1u);
  // Inputs survive even if dead.
  EXPECT_NE(cleaned.findInput("a"), kNoNode);
}

TEST(Passes, DceKeepsDeadInputsForStableSignature) {
  BlockDag dag("t");
  dag.addInput("unused");
  dag.markOutput("y", dag.addConst(1));
  const BlockDag cleaned = eliminateDeadCode(dag);
  EXPECT_NE(cleaned.findInput("unused"), kNoNode);
}

TEST(Passes, OptimizeReachesFixpoint) {
  const BlockDag dag = parseBlock(R"(
    block t {
      input a;
      output y;
      t1 = a * 0;      # -> 0
      t2 = t1 + a;     # -> a
      y = t2 * 1;      # -> a
    }
  )");
  const BlockDag opt = optimize(dag);
  const DagNode& out = opt.node(opt.outputs()[0].second);
  EXPECT_EQ(out.op, Op::kInput);
  EXPECT_EQ(out.name, "a");
}

// Property: passes preserve semantics on random inputs for every shipped
// benchmark block.
TEST(Passes, PreserveSemanticsOnShippedBlocks) {
  Rng rng(99);
  for (const std::string name : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
    const BlockDag dag = loadBlock(name);
    const BlockDag opt = optimize(dag);
    for (int trial = 0; trial < 20; ++trial) {
      std::map<std::string, int64_t> inputs;
      for (const std::string& in : dag.inputNames())
        inputs[in] = rng.intIn(-100, 100);
      EXPECT_EQ(evalDagOutputs(dag, inputs), evalDagOutputs(opt, inputs))
          << name;
    }
  }
}

TEST(Passes, FoldingNeverGrowsTheDag) {
  for (const std::string name : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
    const BlockDag dag = loadBlock(name);
    EXPECT_LE(foldConstants(dag).size(), dag.size()) << name;
    EXPECT_LE(optimize(dag).size(), dag.size()) << name;
  }
}

TEST(StrengthReduce, MulByPowerOfTwoBecomesShift) {
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = a * 8; }");
  const BlockDag reduced =
      strengthReduce(dag, [](Op op) { return op == Op::kShl; });
  const DagNode& out = reduced.node(reduced.outputs()[0].second);
  ASSERT_EQ(out.op, Op::kShl);
  EXPECT_EQ(reduced.node(out.operands[1]).value, 3);
  // Semantics preserved.
  for (int64_t a : {-7, 0, 13}) {
    EXPECT_EQ(evalDagOutputs(reduced, {{"a", a}}).at("y"),
              evalDagOutputs(dag, {{"a", a}}).at("y"));
  }
}

TEST(StrengthReduce, ConstantOnEitherSide) {
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = 16 * a; }");
  const BlockDag reduced =
      strengthReduce(dag, [](Op op) { return op == Op::kShl; });
  EXPECT_EQ(reduced.node(reduced.outputs()[0].second).op, Op::kShl);
}

TEST(StrengthReduce, MulByTwoBecomesAddWithoutShifter) {
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = a * 2; }");
  const BlockDag reduced =
      strengthReduce(dag, [](Op op) { return op == Op::kAdd; });
  const DagNode& out = reduced.node(reduced.outputs()[0].second);
  ASSERT_EQ(out.op, Op::kAdd);
  EXPECT_EQ(out.operands[0], out.operands[1]);
  EXPECT_EQ(evalDagOutputs(reduced, {{"a", 21}}).at("y"), 42);
}

TEST(StrengthReduce, NonPowerAndDivLeftAlone) {
  const BlockDag dag = parseBlock(
      "block t { input a; output y, z; y = a * 6; z = a / 4; }");
  const BlockDag reduced = strengthReduce(dag, [](Op) { return true; });
  for (const auto& [name, id] : reduced.outputs()) {
    const Op op = reduced.node(id).op;
    if (name == "y") {
      EXPECT_EQ(op, Op::kMul);
    }
    if (name == "z") {
      EXPECT_EQ(op, Op::kDiv);  // shr != trunc div for < 0
    }
  }
}

TEST(StrengthReduce, NoShifterNoAddMeansNoChange) {
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = a * 4; }");
  const BlockDag reduced = strengthReduce(dag, [](Op) { return false; });
  EXPECT_EQ(reduced.node(reduced.outputs()[0].second).op, Op::kMul);
}

TEST(StrengthReduce, PreservesSemanticsOnRandomInputs) {
  const BlockDag dag = parseBlock(R"(
    block t {
      input a, b;
      output y;
      y = (a * 32 + b * 2) * (a * 5);
    }
  )");
  const BlockDag reduced = strengthReduce(dag, [](Op) { return true; });
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const std::map<std::string, int64_t> inputs = {
        {"a", rng.intIn(-1000, 1000)}, {"b", rng.intIn(-1000, 1000)}};
    EXPECT_EQ(evalDagOutputs(reduced, inputs), evalDagOutputs(dag, inputs));
  }
}

}  // namespace
}  // namespace aviv
