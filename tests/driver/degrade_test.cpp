// Graceful-degradation tests for the driver: when the covering flow runs
// out of deadline budget (or trips a recoverable internal fault), the
// compile must fall back to the sequential baseline and still produce
// valid, simulatable code — bit-identical to driving the baseline pipeline
// by hand — and such results must never poison the result cache.
#include <gtest/gtest.h>

#include <filesystem>

#include "asmgen/encode.h"
#include "baseline/sequential.h"
#include "driver/codegen.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "regalloc/peephole.h"
#include "regalloc/regalloc.h"
#include "service/cache.h"
#include "sim/simulator.h"
#include "support/deadline.h"
#include "support/failpoint.h"
#include "support/rng.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

class DegradeTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::instance().clear(); }
};

// An expired budget before any covering completed must yield exactly what
// the baseline pipeline (sequential codegen + peephole + regalloc + encode)
// produces when driven by hand.
TEST_F(DegradeTest, DeadlineExpiryFallsBackToBaselineBitIdentical) {
  const Machine machine = loadMachine("arch1");
  const BlockDag dag = loadBlock("ex1");

  DriverOptions options;
  options.core.timeLimitSeconds = 1e-9;  // expires before any covering
  CodeGenerator generator(machine, options);
  SymbolTable symbols;
  const CompiledBlock block = generator.compileBlock(dag, symbols);
  EXPECT_TRUE(block.degraded);
  EXPECT_FALSE(block.fromCache);
  EXPECT_GT(block.numInstructions(), 0);

  const MachineDatabases dbs(machine);
  BaselineResult manual = sequentialCodegen(dag, machine, dbs, options.core);
  peepholeOptimize(manual.graph, manual.schedule, dbs.constraints);
  const RegAssignment regs = allocateRegisters(manual.graph, manual.schedule);
  SymbolTable manualSymbols;
  const CodeImage manualImage =
      encodeBlock(manual.graph, manual.schedule, regs, manualSymbols);
  EXPECT_EQ(block.image.asmText(machine), manualImage.asmText(machine));
}

TEST_F(DegradeTest, DegradedCodeSimulatesCorrectly) {
  const Machine machine = loadMachine("arch2");
  const BlockDag dag = loadBlock("biquad");
  DriverOptions options;
  options.core.timeLimitSeconds = 1e-9;
  CodeGenerator generator(machine, options);
  SymbolTable symbols;
  const CompiledBlock block = generator.compileBlock(dag, symbols);
  ASSERT_TRUE(block.degraded);

  const Simulator sim(machine);
  Rng rng(20260806);
  for (int trial = 0; trial < 5; ++trial) {
    std::map<std::string, int64_t> inputs;
    for (const std::string& name : dag.inputNames())
      inputs[name] = rng.intIn(-100, 100);
    EXPECT_EQ(sim.runBlockFresh(block.image, symbols, inputs),
              evalDagOutputs(dag, inputs));
  }
}

TEST_F(DegradeTest, FallbackDisabledThrowsDeadlineExceeded) {
  DriverOptions options;
  options.core.timeLimitSeconds = 1e-9;
  options.baselineFallback = false;
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  EXPECT_THROW((void)generator.compileBlock(loadBlock("ex1"), symbols),
               DeadlineExceeded);
}

TEST_F(DegradeTest, InternalFaultFallsBackToBaseline) {
  // The cover-internal fail point stands in for any recoverable invariant
  // failure inside the covering flow (AVIV_REQUIRE).
  FailPoints::instance().configure("cover-internal:1:1");
  DriverOptions options;
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  const BlockDag dag = loadBlock("ex1");
  const CompiledBlock block = generator.compileBlock(dag, symbols);
  EXPECT_TRUE(block.degraded);
  EXPECT_GT(block.numInstructions(), 0);

  // The fault was one-shot: the next compile takes the normal path.
  SymbolTable symbols2;
  const CompiledBlock healthy = generator.compileBlock(dag, symbols2);
  EXPECT_FALSE(healthy.degraded);
}

TEST_F(DegradeTest, InternalFaultWithFallbackDisabledThrows) {
  FailPoints::instance().configure("cover-internal:1:1");
  DriverOptions options;
  options.baselineFallback = false;
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  EXPECT_THROW((void)generator.compileBlock(loadBlock("ex1"), symbols),
               InternalError);
}

TEST_F(DegradeTest, DegradedResultsAreNeverCached) {
  const auto dir = (fs::temp_directory_path() / "aviv_degrade_cache").string();
  fs::remove_all(dir);
  CacheConfig cacheConfig;
  cacheConfig.dir = dir;
  auto cache = std::make_shared<ResultCache>(cacheConfig);

  DriverOptions options;
  options.core.timeLimitSeconds = 1e-9;
  options.cache = cache;
  const Machine machine = loadMachine("arch1");
  const BlockDag dag = loadBlock("ex1");
  {
    CodeGenerator generator(machine, options);
    SymbolTable symbols;
    const CompiledBlock block = generator.compileBlock(dag, symbols);
    ASSERT_TRUE(block.degraded);
  }
  EXPECT_EQ(cache->stats().stores, 0)
      << "a degraded result must not be stored";

  // A warm generator with the same key still recompiles (and, degraded
  // again, still refuses to cache).
  CodeGenerator generator(machine, options);
  SymbolTable symbols;
  const CompiledBlock again = generator.compileBlock(dag, symbols);
  EXPECT_TRUE(again.degraded);
  EXPECT_FALSE(again.fromCache);
  EXPECT_EQ(cache->stats().hits, 0);
  fs::remove_all(dir);
}

TEST_F(DegradeTest, UnlimitedBudgetNeverDegrades) {
  DriverOptions options;  // timeLimitSeconds = 0: unarmed deadline
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  const CompiledBlock block = generator.compileBlock(loadBlock("ex1"), symbols);
  EXPECT_FALSE(block.degraded);
  EXPECT_FALSE(block.core.stats.timedOut);
}

TEST_F(DegradeTest, ProgramCompileDegradesPerBlock) {
  // Multi-block programs take the compileProgram path; every block of a
  // budget-starved program compile must degrade, and the program must
  // still simulate end to end.
  const Machine machine = loadMachine("arch1");
  const Program program = parseProgram(R"(
    block first {
      input a, b;
      output t;
      t = a * b;
    }
    block second {
      input t, c;
      output y;
      y = t + c;
      return;
    }
  )",
                                       "degraded-straight");
  DriverOptions options;
  options.core.timeLimitSeconds = 1e-9;
  CodeGenerator generator(machine, options);
  const CompiledProgram compiled = generator.compileProgram(program);
  for (const CompiledBlock& block : compiled.blocks)
    EXPECT_TRUE(block.degraded);
  const auto result =
      simulateProgram(machine, compiled, {{"a", 6}, {"b", 7}, {"c", 8}});
  EXPECT_EQ(result.at("y"), 50);
}

}  // namespace
}  // namespace aviv
