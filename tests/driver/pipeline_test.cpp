// End-to-end pipeline tests: for every shipped block × machine × register
// configuration, the code AVIV emits must simulate to exactly the values the
// reference DAG interpreter computes — the strongest correctness property in
// DESIGN.md.
#include <gtest/gtest.h>

#include "driver/codegen.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace aviv {
namespace {

std::map<std::string, int64_t> randomInputs(const BlockDag& dag, Rng& rng) {
  std::map<std::string, int64_t> inputs;
  for (const std::string& name : dag.inputNames())
    inputs[name] = rng.intIn(-1000, 1000);
  return inputs;
}

void expectBlockCorrect(const BlockDag& dag, const Machine& machine,
                        const DriverOptions& options, int trials = 10) {
  CodeGenerator generator(machine, options);
  SymbolTable symbols;
  const CompiledBlock block = generator.compileBlock(dag, symbols);
  const Simulator sim(machine);
  Rng rng(0xC0FFEE ^ dag.size());
  for (int t = 0; t < trials; ++t) {
    const auto inputs = randomInputs(dag, rng);
    const auto expected = evalDagOutputs(dag, inputs);
    const auto actual = sim.runBlockFresh(block.image, symbols, inputs);
    ASSERT_EQ(actual, expected)
        << dag.name() << " on " << machine.name() << "\n"
        << block.image.asmText(machine);
  }
}

struct PipelineCase {
  std::string block;
  std::string machine;
  int regs;
};

class PipelineCorrectness : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(PipelineCorrectness, SimulationMatchesReference) {
  const PipelineCase& param = GetParam();
  const BlockDag dag = loadBlock(param.block);
  const Machine machine =
      loadMachine(param.machine).withRegisterCount(param.regs);
  DriverOptions options;
  expectBlockCorrect(dag, machine, options);
}

std::vector<PipelineCase> allCases() {
  std::vector<PipelineCase> cases;
  for (const char* machine : {"arch1", "arch2", "arch3", "arch4"}) {
    for (const char* block : {"ex1", "ex2", "ex3", "ex4", "ex5"}) {
      for (int regs : {2, 4}) cases.push_back({block, machine, regs});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBlocksMachinesRegs, PipelineCorrectness,
                         ::testing::ValuesIn(allCases()),
                         [](const auto& info) {
                           return info.param.block + "_" + info.param.machine +
                                  "_r" + std::to_string(info.param.regs);
                         });

TEST(Pipeline, DeterministicOutput) {
  // The whole flow is deterministic: compiling twice yields bit-identical
  // listings (EXPERIMENTS.md relies on this).
  const BlockDag dag = loadBlock("ex4");
  const Machine machine = loadMachine("arch1");
  CodeGenerator g1(machine);
  CodeGenerator g2(machine);
  SymbolTable s1;
  SymbolTable s2;
  EXPECT_EQ(g1.compileBlock(dag, s1).image.asmText(machine),
            g2.compileBlock(dag, s2).image.asmText(machine));
}

TEST(Pipeline, StatsSecondsAndCountsPopulated) {
  const BlockDag dag = loadBlock("ex2");
  const Machine machine = loadMachine("arch1");
  CodeGenerator generator(machine);
  const CompiledBlock compiled = generator.compileBlock(dag);
  EXPECT_EQ(compiled.core.stats.irNodes, 13u);
  EXPECT_GT(compiled.core.stats.sndNodes, 13u);
  EXPECT_GT(compiled.core.stats.cover.cliquesGenerated, 0u);
  EXPECT_GE(compiled.peephole.instructionsSaved, 0);
}

TEST(Pipeline, QuickSingleBlock) {
  const BlockDag dag = parseBlock(R"(
    block tiny {
      input a, b;
      output y;
      y = (a + b) * (a - b);
    }
  )");
  expectBlockCorrect(dag, loadMachine("arch1"), DriverOptions{});
}

}  // namespace
}  // namespace aviv
