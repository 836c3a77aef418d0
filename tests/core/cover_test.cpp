#include "core/cover.h"

#include <gtest/gtest.h>

#include "core/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"

namespace aviv {
namespace {

struct Built {
  BlockDag dag;
  Machine machine;
  MachineDatabases dbs;
  CodegenOptions options;
  CoreResult result;
};

Built buildAndCover(const std::string& block, const std::string& machineName,
                    int regs, CodegenOptions options = {}) {
  BlockDag dag = loadBlock(block);
  Machine machine = loadMachine(machineName).withRegisterCount(regs);
  MachineDatabases dbs(machine);
  CoreResult result = coverBlock(dag, machine, dbs, options);
  return {std::move(dag), std::move(machine), std::move(dbs), options,
          std::move(result)};
}

TEST(Covering, ScheduleIsValidOnAllShippedBlocks) {
  for (const char* block : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
    const BlockDag dag = loadBlock(block);
    const Machine machine = loadMachine("arch1");
    const MachineDatabases dbs(machine);
    const CoreResult result = coverBlock(dag, machine, dbs, CodegenOptions{});
    // verifySchedule is run inside; assert basic shape here.
    EXPECT_GT(result.schedule.numInstructions(), 0) << block;
    EXPECT_EQ(result.stats.cover.spillsInserted, 0) << block;
  }
}

TEST(Covering, EveryActiveNodeScheduledExactlyOnce) {
  const Built built = buildAndCover("ex2", "arch1", 4);
  std::vector<int> count(built.result.graph.size(), 0);
  for (const auto& instr : built.result.schedule.instrs)
    for (AgId id : instr) count[id] += 1;
  for (AgId id = 0; id < built.result.graph.size(); ++id)
    EXPECT_EQ(count[id], built.result.graph.node(id).deleted() ? 0 : 1);
}

TEST(Covering, TwoRegisterConfigurationsInsertSpills) {
  // The paper's Ex6/Ex7 scenario: Ex4/Ex5 rerun with 2 registers per file
  // lead to spills (the 4-register runs needed none).
  const Built ex6 = buildAndCover("ex4", "arch1", 2);
  const Built ex7 = buildAndCover("ex5", "arch1", 2);
  EXPECT_GT(ex6.result.stats.cover.spillsInserted, 0);
  EXPECT_GT(ex7.result.stats.cover.spillsInserted, 0);
  // And the code is correspondingly longer than with 4 registers.
  const Built ex4 = buildAndCover("ex4", "arch1", 4);
  const Built ex5 = buildAndCover("ex5", "arch1", 4);
  EXPECT_GT(ex6.result.schedule.numInstructions(),
            ex4.result.schedule.numInstructions());
  EXPECT_GT(ex7.result.schedule.numInstructions(),
            ex5.result.schedule.numInstructions());
}

TEST(Covering, SpillInsertsStoreAndReloads) {
  const Built built = buildAndCover("ex4", "arch1", 2);
  int stores = 0;
  int reloads = 0;
  for (AgId id = 0; id < built.result.graph.size(); ++id) {
    const AgNode& n = built.result.graph.node(id);
    stores += n.kind == AgKind::kSpillStore ? 1 : 0;
    reloads += n.kind == AgKind::kSpillLoad ? 1 : 0;
  }
  // Every spill stores its victim, except one that evicts a reload: that
  // value is already in its slot, so no store is added.
  const CoverStats& cover = built.result.stats.cover;
  EXPECT_EQ(stores + cover.reloadsEvicted, cover.spillsInserted);
  EXPECT_GE(reloads, stores);  // at least one reload per spilled value
}

TEST(Covering, HeuristicsOffNeverWorseThanHeuristics) {
  for (const char* block : {"ex1", "ex2", "ex3"}) {
    const Built on = buildAndCover(block, "arch1", 4);
    const Built off = buildAndCover(block, "arch1", 4,
                                    CodegenOptions::heuristicsOff());
    EXPECT_LE(off.result.schedule.numInstructions(),
              on.result.schedule.numInstructions())
        << block;
  }
}

TEST(Covering, CodeSizeLowerBoundFromUnitWork) {
  // #instructions >= ops that must run on the only MUL-capable units, etc.
  const Built built = buildAndCover("ex2", "arch1", 4);
  size_t transfers = 0;
  for (AgId id = 0; id < built.result.graph.size(); ++id)
    if (!built.result.graph.node(id).deleted() &&
        built.result.graph.node(id).isTransferish())
      ++transfers;
  // Single bus, capacity 1: every transfer needs its own cycle slot.
  EXPECT_GE(
      static_cast<size_t>(built.result.schedule.numInstructions()),
      transfers);
}

TEST(Covering, SameNameAliasCompilesToNothing) {
  // An output aliased to the identically-named input needs no code when
  // outputs live in memory.
  const BlockDag dag = parseBlock("block t { input a; output a; a = a; }");
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  CodegenOptions options;
  options.outputsToMemory = true;
  const CoreResult result = coverBlock(dag, machine, dbs, options);
  EXPECT_EQ(result.schedule.numInstructions(), 0);
}

TEST(Covering, RenamedPassThroughCopiesThroughRegister) {
  // y = a with outputs in memory: load a, store into y's cell.
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = a; }");
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  CodegenOptions options;
  options.outputsToMemory = true;
  const CoreResult result = coverBlock(dag, machine, dbs, options);
  EXPECT_EQ(result.schedule.numInstructions(), 2);
}

TEST(Covering, PassThroughOutputInRegistersEmitsLoad) {
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = a; }");
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const CoreResult result = coverBlock(dag, machine, dbs, CodegenOptions{});
  EXPECT_EQ(result.schedule.numInstructions(), 1);  // one variable load
}

TEST(Covering, ConstantOutputRoutedThroughPoolCell) {
  const BlockDag dag = parseBlock("block t { output y; y = 42; }");
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const CoreResult result = coverBlock(dag, machine, dbs, CodegenOptions{});
  // One pool load into a register binds the output.
  EXPECT_EQ(result.schedule.numInstructions(), 1);
  ASSERT_EQ(result.graph.constPool().size(), 1u);
  EXPECT_EQ(result.graph.constPool().begin()->second, 42);
}

TEST(Covering, SingleRegisterBankRejectedUpfront) {
  const BlockDag dag = loadBlock("ex1");
  const Machine machine = loadMachine("arch1").withRegisterCount(1);
  const MachineDatabases dbs(machine);
  EXPECT_THROW(coverBlock(dag, machine, dbs, CodegenOptions{}), Error);
}

TEST(Covering, ConstraintNeverViolatedOnArch4) {
  // arch4 forbids U2.MUL and U3.MUL in one instruction; ex5 is MUL-heavy.
  const Built built = buildAndCover("ex5", "arch4", 4);
  const UnitId u2 = *built.machine.findUnit("U2");
  const UnitId u3 = *built.machine.findUnit("U3");
  for (const auto& instr : built.result.schedule.instrs) {
    bool mulU2 = false;
    bool mulU3 = false;
    for (AgId id : instr) {
      const AgNode& n = built.result.graph.node(id);
      if (n.kind != AgKind::kOp || n.machineOp != Op::kMul) continue;
      mulU2 |= n.unit == u2;
      mulU3 |= n.unit == u3;
    }
    EXPECT_FALSE(mulU2 && mulU3);
  }
}

TEST(Covering, MacReducesOrMatchesCodeSize) {
  const BlockDag dag = parseBlock(R"(
    block t {
      input a, b, c, d, e, f;
      output y, z;
      y = a * b + c;
      z = d * e + f;
    }
  )");
  const Machine machine = loadMachine("arch4");
  const MachineDatabases dbs(machine);
  CodegenOptions with;
  CodegenOptions without;
  without.enableComplexPatterns = false;
  const CoreResult rWith = coverBlock(dag, machine, dbs, with);
  const CoreResult rWithout = coverBlock(dag, machine, dbs, without);
  EXPECT_LE(rWith.schedule.numInstructions(),
            rWithout.schedule.numInstructions());
}

TEST(Covering, StatsAreFilled) {
  const Built built = buildAndCover("ex3", "arch1", 4);
  EXPECT_EQ(built.result.stats.irNodes, 11u);
  EXPECT_GT(built.result.stats.sndNodes, built.result.stats.irNodes);
  EXPECT_GT(built.result.stats.explore.statesExpanded, 0u);
  EXPECT_GT(built.result.stats.assignmentsCovered, 0u);
  EXPECT_GT(built.result.stats.cover.cliquesGenerated, 0u);
  EXPECT_GE(built.result.stats.seconds, 0.0);
}

}  // namespace
}  // namespace aviv
