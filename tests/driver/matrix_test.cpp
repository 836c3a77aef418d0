// Configuration-matrix sweep: every shipped workload x machine x option
// combination must compile and simulate to the reference interpreter's
// values. This is the broadest correctness net in the suite.
#include <gtest/gtest.h>

#include "driver/codegen.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "sim/simulator.h"
#include "support/rng.h"

namespace aviv {
namespace {

struct MatrixCase {
  std::string block;
  std::string machine;
  std::string config;  // default | constpool | outputsmem | nopeephole
};

DriverOptions optionsFor(const std::string& config) {
  DriverOptions options;
  if (config == "constpool") options.core.constantsInMemory = true;
  if (config == "outputsmem") options.core.outputsToMemory = true;
  if (config == "nopeephole") options.runPeephole = false;
  return options;
}

class ConfigMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(ConfigMatrix, CompiledCodeMatchesReference) {
  const MatrixCase& param = GetParam();
  const BlockDag dag = loadBlock(param.block);
  const Machine machine = loadMachine(param.machine);
  CodeGenerator generator(machine, optionsFor(param.config));
  SymbolTable symbols;
  const CompiledBlock compiled = generator.compileBlock(dag, symbols);
  const Simulator sim(machine);
  Rng rng(0xFACE ^ (dag.size() * 131));
  for (int trial = 0; trial < 5; ++trial) {
    std::map<std::string, int64_t> inputs;
    for (const std::string& name : dag.inputNames())
      inputs[name] = rng.intIn(-500, 500);
    ASSERT_EQ(sim.runBlockFresh(compiled.image, symbols, inputs),
              evalDagOutputs(dag, inputs))
        << param.block << " " << param.machine << " " << param.config;
  }
}

std::vector<MatrixCase> matrixCases() {
  std::vector<MatrixCase> cases;
  const std::vector<std::string> configs = {"default", "constpool",
                                            "outputsmem", "nopeephole"};
  // Arithmetic-only workloads run everywhere.
  for (const char* block :
       {"ex1", "ex2", "ex3", "ex4", "ex5", "biquad", "dct4"}) {
    for (const char* machine : {"arch1", "arch2", "arch4", "dsp16"}) {
      for (const std::string& config : configs)
        cases.push_back({block, machine, config});
    }
  }
  // matvec2 needs MIN/MAX, which only dsp16 implements.
  for (const std::string& config : configs)
    cases.push_back({"matvec2", "dsp16", config});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrix, ::testing::ValuesIn(matrixCases()),
    [](const auto& info) {
      return info.param.block + "_" + info.param.machine + "_" +
             info.param.config;
    });

// The new workloads also hold the quality invariant on the big machine:
// the MAC-capable dsp16 should never need more instructions for the MAC-
// heavy blocks than MAC-less arch1.
TEST(ConfigMatrix, MacMachineBeatsPlainMachineOnMacKernels) {
  for (const char* block : {"ex2", "biquad"}) {
    const BlockDag dag = loadBlock(block);
    const Machine plain = loadMachine("arch1");
    const Machine macy = loadMachine("dsp16");
    CodeGenerator plainGen(plain);
    CodeGenerator macGen(macy);
    const int plainSize = plainGen.compileBlock(dag).numInstructions();
    const int macSize = macGen.compileBlock(dag).numInstructions();
    EXPECT_LE(macSize, plainSize) << block;
  }
}

}  // namespace
}  // namespace aviv
