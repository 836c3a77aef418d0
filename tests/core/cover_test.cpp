#include "core/cover.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <tuple>

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

// The explorer and the covering engine copy their options: built from
// temporaries that are gone before they run (a kept reference would dangle,
// which the sanitizer build reports), they reach the same result as when
// built from named options. ex4 on two registers spills, so the engine
// reads its options across regeneration rounds too.
TEST(Covering, EnginesBuiltFromTemporaryOptions) {
  const BlockDag dag = loadBlock("ex4");
  const Machine machine = loadMachine("arch1").withRegisterCount(2);
  const MachineDatabases dbs(machine);
  const CodegenOptions named = CodegenOptions::heuristicsOff();
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, named);

  const AssignmentExplorer fromTemporary(snd,
                                         CodegenOptions::heuristicsOff());
  const std::vector<Assignment> assignments = fromTemporary.explore();
  const std::vector<Assignment> expected =
      AssignmentExplorer(snd, named).explore();
  ASSERT_EQ(assignments.size(), expected.size());
  ASSERT_FALSE(assignments.empty());

  bool spilled = false;
  for (size_t i = 0; i < std::min<size_t>(assignments.size(), 8); ++i) {
    EXPECT_EQ(assignments[i].chosenAlt, expected[i].chosenAlt);
    AssignedGraph graph =
        AssignedGraph::materialize(snd, assignments[i], named);
    AssignedGraph reference = graph.clone();
    std::optional<Schedule> schedule;
    CoverStats stats;
    try {
      CoveringEngine engine(graph, dbs.transfers, dbs.constraints,
                            CodegenOptions::heuristicsOff());
      schedule = engine.run(&stats);
    } catch (const Error&) {
    }
    std::optional<Schedule> want;
    try {
      CoveringEngine engine(reference, dbs.transfers, dbs.constraints,
                            named);
      want = engine.run();
    } catch (const Error&) {
    }
    ASSERT_EQ(schedule.has_value(), want.has_value()) << i;
    if (!schedule.has_value()) continue;
    EXPECT_EQ(schedule->instrs, want->instrs) << i;
    spilled |= stats.spillsInserted > 0;
  }
  EXPECT_TRUE(spilled);
}

// --- verifySchedule against the per-cycle rescan it replaced ------------

// The checks verifySchedule made when it recounted every register value
// at every cycle: the message of the first failed check, or "" when the
// schedule is valid.
std::string referenceScheduleFault(const AssignedGraph& graph,
                                   const Schedule& schedule,
                                   const ConstraintDatabase& constraints) {
  const Machine& machine = graph.machine();
  const std::vector<int> cycle = schedule.cycles(graph.size());
  std::ostringstream os;
  std::vector<int> seen(graph.size(), 0);
  for (const auto& instr : schedule.instrs)
    for (AgId id : instr) seen[id] += 1;
  for (AgId id = 0; id < graph.size(); ++id) {
    if (seen[id] == (graph.node(id).deleted() ? 0 : 1)) continue;
    os << graph.describe(id) << " scheduled " << seen[id] << " times";
    return os.str();
  }
  for (size_t c = 0; c < schedule.instrs.size(); ++c) {
    const auto& instr = schedule.instrs[c];
    for (AgId id : instr)
      for (AgId pred : graph.node(id).preds)
        if (cycle[pred] < 0 || cycle[pred] >= static_cast<int>(c)) {
          os << graph.describe(id) << " scheduled before its operand "
             << graph.describe(pred);
          return os.str();
        }
    std::set<UnitId> units;
    std::map<BusId, int> busLoad;
    std::vector<OpSel> sels;
    for (AgId id : instr) {
      const AgNode& n = graph.node(id);
      if (n.kind == AgKind::kOp) {
        if (!units.insert(n.unit).second) {
          os << "two ops on unit " << machine.unit(n.unit).name
             << " in instruction " << c;
          return os.str();
        }
        sels.push_back({n.unit, n.machineOp});
      } else if (n.isTransferish()) {
        busLoad[graph.busOf(id)] += 1;
      }
    }
    for (const auto& [bus, load] : busLoad)
      if (load > machine.bus(bus).capacity) {
        os << "bus " << machine.bus(bus).name << " oversubscribed in " << c;
        return os.str();
      }
    if (!constraints.allows(sels)) {
      os << "ISDL constraint violated in instruction " << c;
      return os.str();
    }
  }
  DynBitset liveOut(graph.size());
  for (const auto& [name, def] : graph.outputDefs())
    if (def != kNoAg) liveOut.set(def);
  std::vector<int> lastUse(graph.size(), -1);
  for (AgId id = 0; id < graph.size(); ++id)
    for (AgId pred : graph.node(id).preds)
      lastUse[pred] = std::max(lastUse[pred], cycle[id]);
  for (size_t c = 0; c < schedule.instrs.size(); ++c) {
    std::vector<int> pressure(machine.regFiles().size(), 0);
    for (AgId id = 0; id < graph.size(); ++id) {
      const AgNode& n = graph.node(id);
      if (!n.definesRegister() || cycle[id] < 0) continue;
      const int at = static_cast<int>(c);
      const bool aliveLater = liveOut.test(id) || lastUse[id] > at;
      const bool deadDefHere =
          cycle[id] == at && lastUse[id] < 0 && !liveOut.test(id);
      if ((cycle[id] <= at && aliveLater) || deadDefHere)
        pressure[n.defLoc.index] += 1;
    }
    for (size_t bank = 0; bank < pressure.size(); ++bank) {
      const RegFile& rf = machine.regFile(static_cast<RegFileId>(bank));
      if (pressure[bank] <= rf.numRegs) continue;
      os << "bank " << rf.name << " exceeds its registers after instruction "
         << c;
      return os.str();
    }
  }
  return "";
}

// verifySchedule's verdict in the reference's terms: "" when it accepts,
// else the message it appends to the failed invariant.
std::string scheduleFault(const AssignedGraph& graph, const Schedule& schedule,
                          const ConstraintDatabase& constraints) {
  try {
    verifySchedule(graph, schedule, constraints);
    return "";
  } catch (const InternalError& e) {
    const std::string what = e.what();
    const size_t open = what.rfind(" (");
    return open == std::string::npos
               ? what
               : what.substr(open + 2, what.size() - open - 3);
  }
}

// One random edit of a valid schedule: move a node to another
// instruction (anywhere, or where its operands and consumers still allow
// it), duplicate it there, swap two instructions, merge an instruction
// into the next, or split one member off into its own instruction. Empty
// instructions are dropped.
Schedule mutate(const AssignedGraph& graph, Schedule schedule,
                std::mt19937& rng) {
  auto& instrs = schedule.instrs;
  auto pick = [&](size_t n) { return static_cast<size_t>(rng() % n); };
  const size_t i = pick(instrs.size());
  size_t j = pick(instrs.size());
  switch (rng() % 6) {
    case 5: {
      const size_t k = pick(instrs[i].size());
      const AgId id = instrs[i][k];
      const std::vector<int> cycle = schedule.cycles(graph.size());
      int lo = 0;
      int hi = static_cast<int>(instrs.size()) - 1;
      for (AgId pred : graph.node(id).preds) lo = std::max(lo, cycle[pred] + 1);
      for (AgId succ : graph.node(id).succs)
        if (cycle[succ] >= 0) hi = std::min(hi, cycle[succ] - 1);
      if (lo > hi) break;
      j = static_cast<size_t>(lo) + pick(static_cast<size_t>(hi - lo) + 1);
      instrs[i].erase(instrs[i].begin() + static_cast<std::ptrdiff_t>(k));
      instrs[j].push_back(id);
      std::sort(instrs[j].begin(), instrs[j].end());
      break;
    }
    case 0:
    case 1: {
      const size_t k = pick(instrs[i].size());
      const AgId id = instrs[i][k];
      if (rng() % 2 == 0) instrs[i].erase(instrs[i].begin() + k);
      instrs[j].push_back(id);
      std::sort(instrs[j].begin(), instrs[j].end());
      break;
    }
    case 2:
      std::swap(instrs[i], instrs[j]);
      break;
    case 3:
      if (i + 1 < instrs.size()) {
        instrs[i + 1].insert(instrs[i + 1].end(), instrs[i].begin(),
                             instrs[i].end());
        std::sort(instrs[i + 1].begin(), instrs[i + 1].end());
        instrs[i].clear();
      }
      break;
    default:
      if (instrs[i].size() > 1) {
        const AgId first = instrs[i].front();
        instrs[i].erase(instrs[i].begin());
        instrs.insert(instrs.begin() + static_cast<std::ptrdiff_t>(i),
                      std::vector<AgId>{first});
      }
      break;
  }
  std::erase_if(instrs, [](const std::vector<AgId>& in) { return in.empty(); });
  return schedule;
}

// verifySchedule counts register intervals with one prefix sum per bank
// instead of rescanning every value at every cycle. On covered graphs
// (spilling ones included; ex5/zoo/tiny and dct4/dsp16 on two registers
// evict reloads, leaving dead defs) and thousands of random edits of their
// schedules, it must give the reference's verdict and message, and every
// kind of fault must come up.
TEST(Covering, VerifyScheduleMatchesPerCycleReference) {
  std::mt19937 rng(20261018);
  std::map<std::string, size_t> faults;
  auto kind = [](const std::string& message) -> std::string {
    for (const char* k : {"times", "before its operand", "two ops on unit",
                          "oversubscribed", "ISDL constraint",
                          "exceeds its registers"})
      if (message.find(k) != std::string::npos) return k;
    return message.empty() ? "valid" : message;
  };
  for (const auto& [block, machineName, regs] :
       {std::tuple{"ex4", "arch1", 2}, std::tuple{"ex5", "arch1", 2},
        std::tuple{"dct4", "arch1", 4}, std::tuple{"biquad", "zoo/wide", 0},
        std::tuple{"dct4", "arch4", 0}, std::tuple{"dct4", "zoo/buffered", 0},
        std::tuple{"ex5", "zoo/tiny", 0}, std::tuple{"dct4", "dsp16", 2}}) {
    const BlockDag dag = loadBlock(block);
    const Machine base = loadMachine(machineName);
    const Machine machine = regs > 0 ? base.withRegisterCount(regs) : base;
    const MachineDatabases dbs(machine);
    const CoreResult result = coverBlock(dag, machine, dbs, CodegenOptions{});
    const std::string what = std::string(block) + "/" + machineName;
    ASSERT_EQ(scheduleFault(result.graph, result.schedule, dbs.constraints),
              "")
        << what;
    Schedule schedule = result.schedule;
    for (int edit = 0; edit < 400; ++edit) {
      // Restart from the valid schedule now and then, so edits stay near it.
      if (edit % 4 == 0) schedule = result.schedule;
      schedule = mutate(result.graph, std::move(schedule), rng);
      const std::string expected =
          referenceScheduleFault(result.graph, schedule, dbs.constraints);
      EXPECT_EQ(scheduleFault(result.graph, schedule, dbs.constraints),
                expected)
          << what << " edit " << edit;
      faults[kind(expected)] += 1;
    }
  }
  for (const char* k : {"valid", "times", "before its operand",
                        "two ops on unit", "oversubscribed",
                        "exceeds its registers"})
    EXPECT_GT(faults[k], 0u) << k;
}

}  // namespace
}  // namespace aviv
