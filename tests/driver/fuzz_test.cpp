// Randomized end-to-end properties: for random basic blocks and random
// machine descriptions, the compiled code must simulate to exactly the
// reference interpreter's values, and the quality ordering
// optimal <= AVIV <= phase-ordered baseline must hold.
#include <gtest/gtest.h>

#include "baseline/optimal.h"
#include "baseline/sequential.h"
#include "driver/codegen.h"
#include "fuzz/genblock.h"
#include "fuzz/genmachine.h"
#include "ir/interp.h"
#include "ir/random_dag.h"
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

void expectCompiledCorrect(const BlockDag& dag, const Machine& machine,
                           DriverOptions options = {}, int trials = 4) {
  CodeGenerator generator(machine, options);
  SymbolTable symbols;
  const CompiledBlock compiled = generator.compileBlock(dag, symbols);
  const Simulator sim(machine);
  Rng rng(dag.size() * 31 + machine.units().size());
  for (int t = 0; t < trials; ++t) {
    const auto inputs = randomInputs(dag, rng);
    ASSERT_EQ(sim.runBlockFresh(compiled.image, symbols, inputs),
              evalDagOutputs(dag, inputs))
        << dag.name() << " on " << machine.name();
  }
}

// --- random DAGs on the shipped machines -------------------------------

class RandomDagPipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDagPipeline, CorrectOnAllShippedMachines) {
  RandomDagSpec spec;
  spec.seed = GetParam();
  Rng shape(spec.seed * 7919);
  spec.numInputs = 2 + static_cast<int>(shape.below(5));
  spec.numOps = 4 + static_cast<int>(shape.below(12));
  spec.numOutputs = 1 + static_cast<int>(shape.below(3));
  spec.reuseBias = 0.3 + 0.5 * (static_cast<double>(shape.below(100)) / 100);
  const BlockDag dag = makeRandomDag(spec);
  for (const char* machineName : {"arch1", "arch2", "arch3", "arch4"}) {
    expectCompiledCorrect(dag, loadMachine(machineName));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagPipeline,
                         ::testing::Range<uint64_t>(1, 26));

// --- random DAGs under register pressure --------------------------------

class RandomDagPressure : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomDagPressure, CorrectWithTwoRegisterFiles) {
  RandomDagSpec spec;
  spec.seed = GetParam() * 131;
  spec.numInputs = 3;
  spec.numOps = 8 + static_cast<int>(GetParam() % 6);
  spec.numOutputs = 2;
  spec.reuseBias = 0.7;  // deep and serial: maximum pressure
  const BlockDag dag = makeRandomDag(spec);
  expectCompiledCorrect(dag, loadMachine("arch1").withRegisterCount(2));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomDagPressure,
                         ::testing::Range<uint64_t>(1, 16));

// --- random machines -----------------------------------------------------

// Machines and blocks come from the fuzzer's generators (src/fuzz), one
// machine family per seed residue.
class RandomMachinePipeline : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomMachinePipeline, CompilesAndSimulatesCorrectly) {
  const uint64_t seed = GetParam();
  const Machine machine = generateMachine(
      {static_cast<MachineFamily>(seed % kNumMachineFamilies), seed * 977});
  const int ops = 6 + static_cast<int>(seed % 8);
  const BlockDag dag = generateBlock(machine, {seed * 13, ops, ops});
  expectCompiledCorrect(dag, machine);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMachinePipeline,
                         ::testing::Range<uint64_t>(1, 21));

// --- quality ordering ------------------------------------------------------

class QualityOrdering : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QualityOrdering, OptimalLeAvivLeSequential) {
  RandomDagSpec spec;
  spec.seed = GetParam() * 10007;
  spec.numInputs = 3;
  spec.numOps = 5 + static_cast<int>(GetParam() % 4);
  spec.numOutputs = 1;
  const BlockDag dag = makeRandomDag(spec);
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);

  const CoreResult aviv = coverBlock(dag, machine, dbs, CodegenOptions{});
  const BaselineResult seq =
      sequentialCodegen(dag, machine, dbs, CodegenOptions{});
  OptimalOptions optimalOptions;
  optimalOptions.incumbent = aviv.schedule.numInstructions();
  optimalOptions.timeLimitSeconds = 30;
  const OptimalResult optimal =
      optimalCodeSize(dag, machine, dbs, optimalOptions);

  ASSERT_GE(optimal.instructions, 1);
  EXPECT_LE(optimal.instructions, aviv.schedule.numInstructions());
  EXPECT_LE(aviv.schedule.numInstructions(),
            seq.schedule.numInstructions());
}

INSTANTIATE_TEST_SUITE_P(Seeds, QualityOrdering,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace aviv
