#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "asmgen/encode.h"
#include "baseline/optimal.h"
#include "baseline/sequential.h"
#include "core/codegen.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "regalloc/regalloc.h"
#include "sim/simulator.h"
#include "support/hash.h"
#include "support/rng.h"

namespace aviv {
namespace {

TEST(SequentialBaseline, ProducesValidSchedules) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  for (const char* block : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
    const BlockDag dag = loadBlock(block);
    const BaselineResult result =
        sequentialCodegen(dag, machine, dbs, CodegenOptions{});
    // verifySchedule runs inside; shape checks:
    EXPECT_GT(result.schedule.numInstructions(), 0) << block;
  }
}

TEST(SequentialBaseline, GeneratedCodeIsCorrect) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  Rng rng(4242);
  for (const char* block : {"ex1", "ex3", "ex5"}) {
    const BlockDag dag = loadBlock(block);
    const BaselineResult result =
        sequentialCodegen(dag, machine, dbs, CodegenOptions{});
    const RegAssignment regs =
        allocateRegisters(result.graph, result.schedule);
    SymbolTable symbols;
    const CodeImage image =
        encodeBlock(result.graph, result.schedule, regs, symbols);
    const Simulator sim(machine);
    for (int trial = 0; trial < 5; ++trial) {
      std::map<std::string, int64_t> inputs;
      for (const std::string& name : dag.inputNames())
        inputs[name] = rng.intIn(-100, 100);
      EXPECT_EQ(sim.runBlockFresh(image, symbols, inputs),
                evalDagOutputs(dag, inputs))
          << block;
    }
  }
}

TEST(SequentialBaseline, ComplexFusionLeavesNoDuplicateOps) {
  // Regression: the local selector used to keep a standalone MUL *and* a
  // MAC that fused it, leaving a dead duplicate op that broke liveness.
  const Machine machine = loadMachine("arch4");
  const MachineDatabases dbs(machine);
  for (const char* block : {"ex2", "ex5", "biquad"}) {
    const BlockDag dag = loadBlock(block);
    const BaselineResult result =
        sequentialCodegen(dag, machine, dbs, CodegenOptions{});
    // Every op value must be consumed or be an output.
    DynBitset liveOut(result.graph.size());
    for (const auto& [name, def] : result.graph.outputDefs())
      if (def != kNoAg) liveOut.set(def);
    for (AgId id = 0; id < result.graph.size(); ++id) {
      const AgNode& n = result.graph.node(id);
      if (n.kind != AgKind::kOp) continue;
      EXPECT_TRUE(!n.succs.empty() || liveOut.test(id))
          << block << ": dead op " << result.graph.describe(id);
    }
  }
}

TEST(SequentialBaseline, AvivNeverWorse) {
  // The paper's core claim: concurrent decisions beat phase-ordered ones.
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  for (const char* block : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
    const BlockDag dag = loadBlock(block);
    const CoreResult aviv = coverBlock(dag, machine, dbs, CodegenOptions{});
    const BaselineResult seq =
        sequentialCodegen(dag, machine, dbs, CodegenOptions{});
    EXPECT_LE(aviv.schedule.numInstructions(),
              seq.schedule.numInstructions())
        << block;
  }
}

TEST(OptimalSearch, ProvenOptimalOnTinyBlock) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag =
      parseBlock("block t { input a, b; output y; y = a + b; }");
  OptimalOptions options;
  const OptimalResult result = optimalCodeSize(dag, machine, dbs, options);
  EXPECT_TRUE(result.proven);
  // Two loads (single bus) then the add: 3 cycles.
  EXPECT_EQ(result.instructions, 3);
}

TEST(OptimalSearch, NeverWorseThanAviv) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  for (const char* block : {"ex1", "ex2", "ex3"}) {
    const BlockDag dag = loadBlock(block);
    const CoreResult aviv = coverBlock(dag, machine, dbs, CodegenOptions{});
    OptimalOptions options;
    options.incumbent = aviv.schedule.numInstructions();
    options.timeLimitSeconds = 60;
    const OptimalResult result = optimalCodeSize(dag, machine, dbs, options);
    ASSERT_TRUE(result.proven) << block;
    EXPECT_LE(result.instructions, aviv.schedule.numInstructions()) << block;
  }
}

TEST(OptimalSearch, IncumbentPrimingPreserved) {
  // With an unbeatable incumbent the search reports it back unchanged.
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag =
      parseBlock("block t { input a, b; output y; y = a + b; }");
  OptimalOptions options;
  options.incumbent = 3;  // the true optimum
  const OptimalResult result = optimalCodeSize(dag, machine, dbs, options);
  EXPECT_EQ(result.instructions, 3);
  EXPECT_TRUE(result.proven);
}

TEST(OptimalSearch, HeuristicsOffMatchesOptimalOnPaperBlocks) {
  // Our strongest quality claim (mirrors the paper's parenthesized column):
  // exhaustive-assignment AVIV achieves the proven optimum on ex1-ex3.
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  for (const char* block : {"ex1", "ex2", "ex3"}) {
    const BlockDag dag = loadBlock(block);
    CodegenOptions off = CodegenOptions::heuristicsOff();
    const CoreResult aviv = coverBlock(dag, machine, dbs, off);
    OptimalOptions options;
    options.incumbent = aviv.schedule.numInstructions();
    options.timeLimitSeconds = 60;
    const OptimalResult result = optimalCodeSize(dag, machine, dbs, options);
    ASSERT_TRUE(result.proven) << block;
    EXPECT_EQ(result.instructions, aviv.schedule.numInstructions()) << block;
  }
}

// One pin line per baseline run: the sequential generator's instruction
// count, spills and a digest of every instruction's member ids (or its
// error), and the exact search's result and work counters.
std::string sequentialPin(const std::string& block,
                          const std::string& machineName) {
  const Machine machine = loadMachine(machineName);
  const MachineDatabases dbs(machine);
  std::ostringstream line;
  line << "sequential " << block << ' ' << machineName;
  try {
    const BaselineResult result =
        sequentialCodegen(loadBlock(block), machine, dbs, CodegenOptions{});
    Hasher h;
    for (const std::vector<AgId>& instr : result.schedule.instrs) {
      h.u32(static_cast<uint32_t>(instr.size()));
      for (AgId id : instr) h.u32(id);
    }
    line << " instructions=" << result.schedule.numInstructions()
         << " spills=" << result.spillsInserted
         << " schedule=" << h.digest().hex();
  } catch (const Error& e) {
    line << " ERROR: " << e.what();
  }
  return line.str();
}

std::string optimalPin(const std::string& block) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock(block);
  const CoreResult aviv = coverBlock(dag, machine, dbs, CodegenOptions{});
  OptimalOptions options;
  options.incumbent = aviv.schedule.numInstructions();
  options.timeLimitSeconds = 60;
  const OptimalResult result = optimalCodeSize(dag, machine, dbs, options);
  std::ostringstream line;
  line << "optimal " << block << " arch1 incumbent=" << options.incumbent
       << " instructions=" << result.instructions
       << " proven=" << result.proven
       << " assignmentsSearched=" << result.assignmentsSearched
       << " statesVisited=" << result.statesVisited;
  return line.str();
}

// Both baselines' results, exactly: the sequential generator on every
// shipped block x machine and the exact search on the rows of
// OptimalSearch.NeverWorseThanAviv, against tests/golden/baselines.txt.
// On a mismatch the lines this build produces are written to
// baselines.actual.txt in the working directory.
TEST(SequentialBaseline, MatchesGoldenPins) {
  std::string actual = "# sequentialCodegen rows, then optimalCodeSize rows\n";
  for (const char* block : {"biquad", "dct4", "ex1", "ex2", "ex3", "ex4",
                            "ex5", "fig2", "fig6", "matvec2"})
    for (const char* machine :
         {"arch1", "arch2", "arch3", "arch4", "dsp16", "zoo/asym",
          "zoo/buffered", "zoo/constrained", "zoo/minimal", "zoo/tiny",
          "zoo/wide"})
      actual += sequentialPin(block, machine) + "\n";
  for (const char* block : {"ex1", "ex2", "ex3"})
    actual += optimalPin(block) + "\n";

  namespace fs = std::filesystem;
  const fs::path path = fs::path(AVIV_GOLDEN_DIR) / "baselines.txt";
  std::ifstream in(path);
  std::ostringstream expected;
  expected << in.rdbuf();
  if (actual == expected.str()) return;
  const fs::path out = fs::current_path() / "baselines.actual.txt";
  std::ofstream(out) << actual;
  ADD_FAILURE() << "baseline results differ from " << path
                << "; this build's lines are in " << out;
  std::istringstream a(actual);
  std::istringstream e(expected.str());
  std::string lineA;
  std::string lineE;
  while (std::getline(a, lineA)) {
    if (!std::getline(e, lineE)) lineE.clear();
    EXPECT_EQ(lineA, lineE);
  }
}

}  // namespace
}  // namespace aviv
