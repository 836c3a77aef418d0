#include "ir/random_dag.h"

#include <gtest/gtest.h>

#include "ir/interp.h"
#include "support/rng.h"

namespace aviv {
namespace {

TEST(RandomDag, DeterministicInSeed) {
  RandomDagSpec spec;
  spec.seed = 77;
  const BlockDag a = makeRandomDag(spec);
  const BlockDag b = makeRandomDag(spec);
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id)
    EXPECT_EQ(a.describe(id), b.describe(id));
}

TEST(RandomDag, DifferentSeedsDiffer) {
  RandomDagSpec specA;
  specA.seed = 1;
  RandomDagSpec specB;
  specB.seed = 2;
  const BlockDag a = makeRandomDag(specA);
  const BlockDag b = makeRandomDag(specB);
  bool anyDifference = a.size() != b.size();
  for (NodeId id = 0; !anyDifference && id < a.size(); ++id)
    anyDifference = a.describe(id) != b.describe(id);
  EXPECT_TRUE(anyDifference);
}

TEST(RandomDag, MatchesSpecCounts) {
  RandomDagSpec spec;
  spec.numInputs = 5;
  spec.numOps = 12;
  spec.seed = 9;
  const BlockDag dag = makeRandomDag(spec);
  EXPECT_EQ(dag.numLeafNodes(), 5u);
  EXPECT_EQ(dag.numOpNodes(), 12u);
}

TEST(RandomDag, NoDeadOperations) {
  // Every op must be reachable from an output (the back end's contract).
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RandomDagSpec spec;
    spec.seed = seed;
    spec.numOps = 10;
    const BlockDag dag = makeRandomDag(spec);
    std::vector<bool> live(dag.size(), false);
    for (const auto& [name, id] : dag.outputs()) live[id] = true;
    for (NodeId id = dag.size(); id-- > 0;) {
      if (!live[id]) continue;
      for (NodeId operand : dag.node(id).operands) live[operand] = true;
    }
    for (NodeId id = 0; id < dag.size(); ++id) {
      if (isMachineOp(dag.node(id).op)) {
        EXPECT_TRUE(live[id]) << seed;
      }
    }
  }
}

TEST(RandomDag, ReuseBiasControlsDepth) {
  RandomDagSpec shallow;
  shallow.reuseBias = 0.0;
  shallow.numOps = 30;
  shallow.seed = 5;
  RandomDagSpec deep = shallow;
  deep.reuseBias = 0.95;
  const auto depthOf = [](const BlockDag& dag) {
    int depth = 0;
    for (int level : dag.levelsFromBottom()) depth = std::max(depth, level);
    return depth;
  };
  EXPECT_LT(depthOf(makeRandomDag(shallow)), depthOf(makeRandomDag(deep)));
}

TEST(RandomDag, EvaluatesWithoutSurprises) {
  RandomDagSpec spec;
  spec.seed = 123;
  const BlockDag dag = makeRandomDag(spec);
  Rng rng(6);
  std::map<std::string, int64_t> inputs;
  for (const std::string& name : dag.inputNames())
    inputs[name] = rng.intIn(-5, 5);
  const auto out = evalDagOutputs(dag, inputs);
  EXPECT_FALSE(out.empty());
}

}  // namespace
}  // namespace aviv
