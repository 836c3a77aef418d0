#include "core/splitnode.h"

#include <gtest/gtest.h>

#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/error.h"

namespace aviv {
namespace {

struct Env {
  Machine machine;
  MachineDatabases dbs;
  explicit Env(const std::string& machineName)
      : machine(loadMachine(machineName)), dbs(machine) {}
};

BlockDag fig2Block() {
  // The paper's Fig 2 sample DAG: y = (a + b) - c * d.
  return parseBlock(R"(
    block fig2 {
      input a, b, c, d;
      output y;
      y = (a + b) - c * d;
    }
  )");
}

TEST(SplitNodeDag, AlternativesMatchUnitCapabilities) {
  Env env("arch1");
  const BlockDag dag = fig2Block();
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, env.machine, env.dbs, CodegenOptions{});

  // From Section IV-A: ADD has 3 alternatives, MUL 2, SUB 2 -> 2*2*3 = 12
  // possible assignments.
  size_t product = 1;
  for (NodeId id = 0; id < dag.size(); ++id) {
    if (isLeafOp(dag.node(id).op)) {
      EXPECT_NE(snd.leafOf(id), kNoSnd);
      EXPECT_EQ(snd.splitOf(id), kNoSnd);
      continue;
    }
    EXPECT_NE(snd.splitOf(id), kNoSnd);
    product *= snd.altsOf(id).size();
    for (SndId alt : snd.altsOf(id)) {
      const SndNode& a = snd.node(alt);
      EXPECT_TRUE(
          env.machine.unit(a.unit).findOp(a.machineOp).has_value());
    }
  }
  EXPECT_EQ(product, 12u);
}

TEST(SplitNodeDag, NodeKindCountsAreConsistent) {
  Env env("arch1");
  const BlockDag dag = fig2Block();
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, env.machine, env.dbs, CodegenOptions{});
  EXPECT_EQ(snd.numLeafNodes(), 4u);
  EXPECT_EQ(snd.numSplitNodes(), 3u);
  EXPECT_EQ(snd.numAltNodes(), 7u);  // 3 + 2 + 2
  EXPECT_EQ(snd.size(), snd.numLeafNodes() + snd.numSplitNodes() +
                            snd.numAltNodes() + snd.numTransferNodes());
  EXPECT_GT(snd.numTransferNodes(), 0u);
}

TEST(SplitNodeDag, TransferChainsOnlyBetweenDifferentStorages) {
  Env env("arch1");
  const BlockDag dag = fig2Block();
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, env.machine, env.dbs, CodegenOptions{});
  // Same-unit producer/consumer pairs have no chain; cross-unit pairs have
  // exactly one single-hop chain on arch1.
  NodeId add = kNoNode;
  for (NodeId id = 0; id < dag.size(); ++id)
    if (dag.node(id).op == Op::kAdd) add = id;
  ASSERT_NE(add, kNoNode);
  const NodeId sub = dag.outputs()[0].second;
  for (SndId producerAlt : snd.altsOf(add)) {
    for (SndId consumerAlt : snd.altsOf(sub)) {
      const bool sameUnit =
          snd.node(producerAlt).unit == snd.node(consumerAlt).unit;
      const auto& chains = snd.chains(producerAlt, consumerAlt);
      if (sameUnit) {
        EXPECT_TRUE(chains.empty());
      } else {
        ASSERT_EQ(chains.size(), 1u);
        EXPECT_EQ(chains[0].hops.size(), 1u);
      }
    }
  }
}

TEST(SplitNodeDag, LeafLoadsHaveChainsFromDataMemory) {
  Env env("arch1");
  const BlockDag dag = fig2Block();
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, env.machine, env.dbs, CodegenOptions{});
  const NodeId a = dag.findInput("a");
  const SndId leaf = snd.leafOf(a);
  EXPECT_EQ(snd.producerLoc(leaf), env.machine.dataMemoryLoc());
  NodeId add = kNoNode;
  for (NodeId id = 0; id < dag.size(); ++id)
    if (dag.node(id).op == Op::kAdd) add = id;
  ASSERT_NE(add, kNoNode);
  for (SndId alt : snd.altsOf(add)) {
    const auto& chains = snd.chains(leaf, alt);
    ASSERT_FALSE(chains.empty());
    EXPECT_EQ(chains[0].hops.size(), 1u);
  }
}

TEST(SplitNodeDag, ConstantsNeedNoTransfers) {
  Env env("arch1");
  const BlockDag dag = parseBlock(
      "block t { input a; output y; y = a + 7; }");
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, env.machine, env.dbs, CodegenOptions{});
  NodeId constNode = kNoNode;
  for (NodeId id = 0; id < dag.size(); ++id)
    if (dag.node(id).op == Op::kConst) constNode = id;
  ASSERT_NE(constNode, kNoNode);
  // Constants are immediates: no transfer node ever moves their value.
  for (SndId id = 0; id < snd.size(); ++id) {
    if (snd.node(id).kind == SndKind::kTransfer) {
      EXPECT_NE(snd.node(id).ir, constNode);
    }
  }
}

TEST(SplitNodeDag, MultiHopChainsOnArch3) {
  Env env("arch3");
  // Force a value produced on U1 (RF1) to be consumed on U3 (RF3): only
  // SUB runs on U1 exclusively... use sub feeding mul (mul on U2/U3).
  const BlockDag dag = parseBlock(R"(
    block t { input a, b, c; output y; y = (a - b) * c; }
  )");
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, env.machine, env.dbs, CodegenOptions{});
  NodeId sub = kNoNode;
  for (NodeId id = 0; id < dag.size(); ++id)
    if (dag.node(id).op == Op::kSub) sub = id;
  ASSERT_NE(sub, kNoNode);
  const NodeId mul = dag.outputs()[0].second;
  SndId subU1 = kNoSnd;
  for (SndId alt : snd.altsOf(sub))
    if (env.machine.unit(snd.node(alt).unit).name == "U1") subU1 = alt;
  SndId mulU3 = kNoSnd;
  for (SndId alt : snd.altsOf(mul))
    if (env.machine.unit(snd.node(alt).unit).name == "U3") mulU3 = alt;
  ASSERT_NE(subU1, kNoSnd);
  ASSERT_NE(mulU3, kNoSnd);
  const auto& chains = snd.chains(subU1, mulU3);
  ASSERT_GE(chains.size(), 2u);  // via RF2 (two buses) and via DM
  for (const TransferChain& chain : chains) EXPECT_EQ(chain.hops.size(), 2u);
}

TEST(SplitNodeDag, ThrowsWhenOpUnimplementable) {
  Env env("arch1");  // no DIV anywhere
  const BlockDag dag =
      parseBlock("block t { input a, b; output y; y = a / b; }");
  EXPECT_THROW(
      SplitNodeDag::build(dag, env.machine, env.dbs, CodegenOptions{}),
      Error);
}

TEST(SplitNodeDag, DotContainsSplitAndTransferNodes) {
  Env env("arch1");
  // Bound to a local: SplitNodeDag keeps a pointer to the BlockDag, so a
  // temporary argument would dangle by the time dot() walks it.
  const BlockDag dag = fig2Block();
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, env.machine, env.dbs, CodegenOptions{});
  const std::string dot = snd.dot();
  EXPECT_NE(dot.find("diamond"), std::string::npos);  // split nodes
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);  // transfers
}

// --- complex pattern matching (Section III-B) -------------------------

TEST(PatternMatch, FindsMacWhenMachineHasIt) {
  Env env("arch4");
  const BlockDag dag = parseBlock(
      "block t { input a, b, c; output y; y = a * b + c; }");
  const auto matches = matchComplexPatterns(dag, env.dbs.ops);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].machineOp, Op::kMac);
  EXPECT_EQ(matches[0].covers.size(), 2u);
  EXPECT_EQ(matches[0].operands.size(), 3u);
}

TEST(PatternMatch, NoMacWithoutMachineSupport) {
  Env env("arch1");
  const BlockDag dag = parseBlock(
      "block t { input a, b, c; output y; y = a * b + c; }");
  EXPECT_TRUE(matchComplexPatterns(dag, env.dbs.ops).empty());
}

TEST(PatternMatch, MultiUseMultiplyNotFused) {
  Env env("arch4");
  const BlockDag dag = parseBlock(R"(
    block t {
      input a, b, c;
      output y, z;
      m = a * b;
      y = m + c;
      z = m - c;   # m has two users
    }
  )");
  EXPECT_TRUE(matchComplexPatterns(dag, env.dbs.ops).empty());
}

TEST(PatternMatch, OutputMultiplyNotFused) {
  Env env("arch4");
  const BlockDag dag = parseBlock(R"(
    block t {
      input a, b, c;
      output m, y;
      m = a * b;
      y = m + c;
    }
  )");
  EXPECT_TRUE(matchComplexPatterns(dag, env.dbs.ops).empty());
}

TEST(PatternMatch, MsuOnlyMatchesSubtrahendMultiply) {
  Env env("arch4");
  // arch4 has no MSU; build a machine with one.
  const Machine machine = parseMachine(R"(
    machine M {
      regfile A size 4;
      memory DM size 64 data;
      bus X;
      unit U regfile A { op SUB; op MUL; op MSU; op ADD; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases dbs(machine);
  const BlockDag good =
      parseBlock("block t { input a, b, c; output y; y = c - a * b; }");
  const auto matches = matchComplexPatterns(good, dbs.ops);
  ASSERT_EQ(matches.size(), 1u);
  EXPECT_EQ(matches[0].machineOp, Op::kMsu);

  const BlockDag bad =
      parseBlock("block t { input a, b, c; output y; y = a * b - c; }");
  EXPECT_TRUE(matchComplexPatterns(bad, dbs.ops).empty());
}

TEST(PatternMatch, DoubledMultiplyOperandNotFused) {
  // y = m + m (and y = m - m) where m = a * b: users[m] is deduplicated,
  // so m looks single-consumer and fusable — but the non-multiply operand
  // IS the covered multiply, which stops existing as a value once fused.
  // Found by generative fuzzing: matching here aborted materialization
  // with "operand has no producer".
  Env env("arch4");
  const BlockDag add = parseBlock(
      "block t { input a, b; output y; m = a * b; y = m + m; }");
  EXPECT_TRUE(matchComplexPatterns(add, env.dbs.ops).empty());

  const Machine msuMachine = parseMachine(R"(
    machine M {
      regfile A size 4;
      memory DM size 64 data;
      bus X;
      unit U regfile A { op SUB; op MUL; op MSU; op ADD; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases msuDbs(msuMachine);
  const BlockDag sub = parseBlock(
      "block t { input a, b; output y; m = a * b; y = m - m; }");
  EXPECT_TRUE(matchComplexPatterns(sub, msuDbs.ops).empty());
}

TEST(PatternMatch, MacAlternativeAppearsInSplitNodeDag) {
  Env env("arch4");
  const BlockDag dag = parseBlock(
      "block t { input a, b, c; output y; y = a * b + c; }");
  CodegenOptions options;
  const SplitNodeDag snd =
      SplitNodeDag::build(dag, env.machine, env.dbs, options);
  const NodeId add = dag.outputs()[0].second;
  bool hasMac = false;
  for (SndId alt : snd.altsOf(add))
    hasMac |= snd.node(alt).machineOp == Op::kMac;
  EXPECT_TRUE(hasMac);

  CodegenOptions noPatterns;
  noPatterns.enableComplexPatterns = false;
  const SplitNodeDag snd2 =
      SplitNodeDag::build(dag, env.machine, env.dbs, noPatterns);
  for (SndId alt : snd2.altsOf(add))
    EXPECT_NE(snd2.node(alt).machineOp, Op::kMac);
}

}  // namespace
}  // namespace aviv
