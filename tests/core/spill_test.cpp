#include "core/spill.h"

#include <gtest/gtest.h>

#include "core/assign_explore.h"
#include <algorithm>

#include "ir/parser.h"
#include "support/error.h"
#include "isdl/parser.h"

namespace aviv {
namespace {

// One spill through the covering engine's entry point, then the full graph
// check (acyclicity included) these tests rely on.
AgId spillAndVerify(AssignedGraph& graph, const TransferDatabase& xferDb,
                    const DynBitset& covered, SpillState& state) {
  DynBitset liveOut;
  graph.liveOutInto(liveOut);
  const AgId victim = performSpill(graph, xferDb, covered, state,
                                   bankPressure(graph, covered), liveOut);
  graph.verify();
  return victim;
}

// Stages the paper's Figure 9 scenario on the Figure 2 block: the ADD runs
// on U3 and its value is pending a transfer to the SUB on U2. Spilling the
// ADD must (a) append a store chain, (b) delete the pending transfer, and
// (c) rewire the SUB onto a reload.
struct Fig9Stage {
  BlockDag dag = loadBlock("fig2");
  Machine machine = loadMachine("arch1");
  MachineDatabases dbs{machine};
  CodegenOptions options;
  SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  AssignedGraph graph;
  AgId add = kNoAg;
  AgId sub = kNoAg;
  AgId xfer = kNoAg;  // RF3 -> RF2 move of the ADD's value
  DynBitset covered;

  Fig9Stage() : graph(makeGraph()) {
    for (AgId id = 0; id < graph.size(); ++id) {
      const AgNode& n = graph.node(id);
      if (n.kind == AgKind::kOp && n.machineOp == Op::kAdd) add = id;
      if (n.kind == AgKind::kOp && n.machineOp == Op::kSub) sub = id;
      if (n.isTransferish()) {
        const TransferPath& p =
            machine.transfers()[static_cast<size_t>(n.pathId)];
        if (p.from == Loc::regFile(*machine.findRegFile("RF3")) &&
            p.to == Loc::regFile(*machine.findRegFile("RF2")))
          xfer = id;
      }
    }
    // Cover the ADD and everything it depends on (its operand loads).
    covered = DynBitset(graph.size());
    covered.set(add);
    for (AgId pred : graph.node(add).preds) covered.set(pred);
  }

  AssignedGraph makeGraph() {
    Assignment assignment;
    assignment.chosenAlt.assign(dag.size(), kNoSnd);
    auto pick = [&](Op op, const char* unitName) {
      for (NodeId id = 0; id < dag.size(); ++id) {
        if (dag.node(id).op != op) continue;
        for (SndId alt : snd.altsOf(id))
          if (machine.unit(snd.node(alt).unit).name == unitName)
            assignment.chosenAlt[id] = alt;
      }
    };
    pick(Op::kAdd, "U3");
    pick(Op::kMul, "U2");
    pick(Op::kSub, "U2");
    return AssignedGraph::materialize(snd, assignment, options);
  }
};

TEST(Spill, Fig9DeletesPendingTransferAndRewiresConsumer) {
  Fig9Stage stage;
  ASSERT_NE(stage.add, kNoAg);
  ASSERT_NE(stage.sub, kNoAg);
  ASSERT_NE(stage.xfer, kNoAg);
  // Before: the SUB reads the ADD's value through the transfer.
  {
    const auto& defs = stage.graph.node(stage.sub).operandDefs;
    EXPECT_NE(std::find(defs.begin(), defs.end(), stage.xfer), defs.end());
  }

  SpillState state;
  const AgId victim = spillAndVerify(stage.graph, stage.dbs.transfers,
                                     stage.covered, state);
  EXPECT_EQ(victim, stage.add);
  EXPECT_TRUE(state.spilled.count(stage.add));

  // (a) a spill store chain reading the ADD exists.
  AgId store = kNoAg;
  for (AgId id = 0; id < stage.graph.size(); ++id)
    if (stage.graph.node(id).kind == AgKind::kSpillStore) store = id;
  ASSERT_NE(store, kNoAg);
  EXPECT_EQ(stage.graph.node(store).valueSrc, stage.add);

  // (b) the pending transfer is gone (the paper's removed '+ to -' move).
  EXPECT_TRUE(stage.graph.node(stage.xfer).deleted());

  // (c) the SUB now reads a reload that depends on the store.
  AgId reload = kNoAg;
  for (AgId def : stage.graph.node(stage.sub).operandDefs) {
    if (def != kNoAg && stage.graph.node(def).kind == AgKind::kSpillLoad)
      reload = def;
  }
  ASSERT_NE(reload, kNoAg);
  const auto& preds = stage.graph.node(reload).preds;
  EXPECT_NE(std::find(preds.begin(), preds.end(), store), preds.end());
  stage.graph.verify();
}

TEST(Spill, BankPressureCountsLiveValuesOnly) {
  Fig9Stage stage;
  const auto pressure = bankPressure(stage.graph, stage.covered);
  // Only the ADD's value is live (its operand loads died feeding it).
  const RegFileId rf3 = *stage.machine.findRegFile("RF3");
  EXPECT_EQ(pressure[rf3], 1);
  const RegFileId rf2 = *stage.machine.findRegFile("RF2");
  EXPECT_EQ(pressure[rf2], 0);
}

TEST(Spill, PressureWithinLimitsChecksEveryBank) {
  Fig9Stage stage;
  std::vector<int> pressure(stage.machine.regFiles().size(), 0);
  EXPECT_TRUE(pressureWithinLimits(stage.graph, pressure));
  pressure[0] = stage.machine.regFile(0).numRegs + 1;
  EXPECT_FALSE(pressureWithinLimits(stage.graph, pressure));
}

TEST(Spill, ThrowsWhenNothingSpillableRemains) {
  Fig9Stage stage;
  SpillState state;
  (void)spillAndVerify(stage.graph, stage.dbs.transfers, stage.covered,
                       state);
  // After the spill, cover the store chain too: the spilled value is dead
  // and no other covered value is live, so a further spill has no victim.
  stage.covered.resize(stage.graph.size(), false);
  for (AgId id = 0; id < stage.graph.size(); ++id) {
    const AgNode& n = stage.graph.node(id);
    if (n.deleted() || n.kind == AgKind::kSpillStore) stage.covered.set(id);
  }
  EXPECT_THROW((void)spillAndVerify(stage.graph, stage.dbs.transfers,
                                    stage.covered, state),
               Error);
}

}  // namespace
}  // namespace aviv
