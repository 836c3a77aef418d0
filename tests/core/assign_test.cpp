#include "core/assign_explore.h"

#include <gtest/gtest.h>

#include "ir/parser.h"
#include "isdl/parser.h"

namespace aviv {
namespace {

struct Env {
  Machine machine;
  MachineDatabases dbs;
  explicit Env(const std::string& name)
      : machine(loadMachine(name)), dbs(machine) {}
};

SplitNodeDag buildSnd(const Env& env, const BlockDag& dag,
                      const CodegenOptions& options) {
  return SplitNodeDag::build(dag, env.machine, env.dbs, options);
}

TEST(AssignExplore, ExhaustiveEnumeratesAllCombinations) {
  Env env("arch1");
  const BlockDag dag = parseBlock(
      "block t { input a, b, c, d; output y; y = (a + b) - c * d; }");
  CodegenOptions options = CodegenOptions::heuristicsOff();
  const SplitNodeDag snd = buildSnd(env, dag, options);
  AssignmentExplorer explorer(snd, options);
  ExploreStats stats;
  const auto assignments = explorer.explore(&stats);
  // 3 (ADD) * 2 (MUL) * 2 (SUB) = 12, Section IV-A.
  EXPECT_EQ(assignments.size(), 12u);
  EXPECT_EQ(stats.completeAssignments, 12u);
  EXPECT_FALSE(stats.capped);
}

TEST(AssignExplore, EveryAssignmentCoversEveryOpNode) {
  Env env("arch1");
  const BlockDag dag = loadBlock("ex2");
  CodegenOptions options = CodegenOptions::heuristicsOff();
  const SplitNodeDag snd = buildSnd(env, dag, options);
  const auto assignments = AssignmentExplorer(snd, options).explore();
  for (const Assignment& a : assignments) {
    std::vector<bool> covered(dag.size(), false);
    for (NodeId id = 0; id < dag.size(); ++id) {
      if (a.chosenAlt[id] == kNoSnd) continue;
      for (NodeId c : snd.node(a.chosenAlt[id]).covers) covered[c] = true;
    }
    for (NodeId id = 0; id < dag.size(); ++id) {
      if (isMachineOp(dag.node(id).op)) {
        EXPECT_TRUE(covered[id]) << dag.describe(id);
      }
    }
  }
}

TEST(AssignExplore, PruningKeepsOnlyMinIncrementalBranches) {
  Env env("arch1");
  const BlockDag dag = parseBlock(
      "block t { input a, b, c, d; output y; y = (a + b) - c * d; }");
  CodegenOptions pruned;
  pruned.assignKeepBest = 1 << 20;
  const SplitNodeDag snd = buildSnd(env, dag, pruned);
  ExploreStats prunedStats;
  const auto prunedResult =
      AssignmentExplorer(snd, pruned).explore(&prunedStats);
  CodegenOptions off = CodegenOptions::heuristicsOff();
  ExploreStats offStats;
  const auto offResult = AssignmentExplorer(snd, off).explore(&offStats);
  EXPECT_LT(prunedResult.size(), offResult.size());
  // Pruning is greedy: its best can never beat the exhaustive best.
  EXPECT_GE(prunedResult.front().cost, offResult.front().cost - 1e-9);
}

TEST(AssignExplore, ResultsSortedByCost) {
  Env env("arch1");
  const BlockDag dag = loadBlock("ex3");
  CodegenOptions options = CodegenOptions::heuristicsOff();
  const SplitNodeDag snd = buildSnd(env, dag, options);
  const auto assignments = AssignmentExplorer(snd, options).explore();
  for (size_t i = 1; i < assignments.size(); ++i)
    EXPECT_LE(assignments[i - 1].cost, assignments[i].cost);
}

TEST(AssignExplore, KeepBestLimitsResults) {
  Env env("arch1");
  const BlockDag dag = loadBlock("ex2");
  CodegenOptions options = CodegenOptions::heuristicsOff();
  options.assignKeepBest = 3;
  const SplitNodeDag snd = buildSnd(env, dag, options);
  EXPECT_EQ(AssignmentExplorer(snd, options).explore().size(), 3u);
}

// Reproduces the Fig 6 scenario: with a COMPL sink executable only on U1,
// the SUB alternative on U2 is pruned (incremental cost 1 vs 0 on U1).
TEST(AssignExplore, Fig6PruningTrace) {
  Env env("arch1");
  const BlockDag dag = parseBlock(R"(
    block fig6 {
      input a, b, c, d;
      output y;
      y = ~((a + b) - c * d);
    }
  )");
  CodegenOptions options;
  options.assignKeepBest = 1 << 20;
  options.assignBeamWidth = 0;
  const SplitNodeDag snd = buildSnd(env, dag, options);
  std::vector<ExploreTraceEntry> trace;
  const auto assignments =
      AssignmentExplorer(snd, options).explore(nullptr, &trace);

  // Find the SUB node's trace entries (first state: only COMPL assigned).
  NodeId subNode = kNoNode;
  for (NodeId id = 0; id < dag.size(); ++id)
    if (dag.node(id).op == Op::kSub) subNode = id;
  ASSERT_NE(subNode, kNoNode);

  double costU1 = -1;
  double costU2 = -1;
  bool keptU1 = false;
  bool keptU2 = false;
  for (const ExploreTraceEntry& entry : trace) {
    if (entry.ir != subNode || entry.stateIdx != 0) continue;
    const std::string unit =
        env.machine.unit(snd.node(entry.alt).unit).name;
    if (unit == "U1") {
      costU1 = entry.incrementalCost;
      keptU1 = entry.kept;
    }
    if (unit == "U2") {
      costU2 = entry.incrementalCost;
      keptU2 = entry.kept;
    }
  }
  // Paper: SUB on U1 costs 0 (no transfer to COMPL on U1); SUB on U2 costs
  // 1 (one transfer); the U2 branch is pruned.
  EXPECT_DOUBLE_EQ(costU1, 0.0);
  EXPECT_DOUBLE_EQ(costU2, 1.0);
  EXPECT_TRUE(keptU1);
  EXPECT_FALSE(keptU2);
  // All surviving assignments put SUB on U1.
  for (const Assignment& a : assignments) {
    EXPECT_EQ(env.machine.unit(snd.node(a.chosenAlt[subNode]).unit).name,
              "U1");
  }
}

TEST(AssignExplore, ComplexAlternativeCoversInteriorNode) {
  Env env("arch4");
  const BlockDag dag = parseBlock(
      "block t { input a, b, c; output y; y = a * b + c; }");
  CodegenOptions options = CodegenOptions::heuristicsOff();
  const SplitNodeDag snd = buildSnd(env, dag, options);
  const auto assignments = AssignmentExplorer(snd, options).explore();
  bool sawMac = false;
  for (const Assignment& a : assignments) {
    const NodeId add = dag.outputs()[0].second;
    const SndId alt = a.chosenAlt[add];
    if (snd.node(alt).machineOp == Op::kMac) {
      sawMac = true;
      // The fused multiply has no own alternative.
      NodeId mul = kNoNode;
      for (NodeId id = 0; id < dag.size(); ++id)
        if (dag.node(id).op == Op::kMul) mul = id;
      EXPECT_EQ(a.chosenAlt[mul], kNoSnd);
      EXPECT_EQ(a.producerAltOf(mul, snd), alt);
    }
  }
  EXPECT_TRUE(sawMac);
}

TEST(AssignExplore, RegisterAwareCostIncreasesClusteredAssignments) {
  Env env("arch1");
  const BlockDag dag = loadBlock("ex4");
  CodegenOptions plain = CodegenOptions::heuristicsOff();
  CodegenOptions aware = plain;
  aware.registerAwareAssignment = true;
  const SplitNodeDag snd = buildSnd(env, dag, plain);
  const auto plainBest = AssignmentExplorer(snd, plain).explore().front();
  const SplitNodeDag snd2 = buildSnd(env, dag, aware);
  const auto awareBest = AssignmentExplorer(snd2, aware).explore().front();
  // The register-aware cost can only add penalties.
  EXPECT_GE(awareBest.cost, plainBest.cost - 1e-9);
}

}  // namespace
}  // namespace aviv
