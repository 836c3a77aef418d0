// Differential-verification tests (DESIGN.md System 25): every shipped
// block on every shipped machine must pass verification cold and warm; an
// injected miscompile must be quarantined and degraded to the verified
// baseline without ever reaching the cache; the verified bit must let warm
// hits skip the simulator while a verifier bump forces a recheck.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "driver/codegen.h"
#include "ir/parser.h"
#include "ir/random_dag.h"
#include "isdl/parser.h"
#include "service/cache.h"
#include "service/fingerprint.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "verify/verify.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

class VerifyTest : public ::testing::Test {
 protected:
  void TearDown() override { FailPoints::instance().clear(); }
};

DriverOptions verifyAllOptions() {
  DriverOptions options;
  options.verify.level = VerifyLevel::kAll;
  return options;
}

TEST_F(VerifyTest, SampledSelectionIsDeterministicAndBounded) {
  VerifyOptions options;
  options.level = VerifyLevel::kSampled;
  options.sampleRate = 0.5;
  const bool first = shouldVerifyBlock(options, "ex1");
  for (int i = 0; i < 10; ++i)
    EXPECT_EQ(shouldVerifyBlock(options, "ex1"), first);
  options.sampleRate = 1.0;
  EXPECT_TRUE(shouldVerifyBlock(options, "anything"));
  options.sampleRate = 0.0;
  EXPECT_FALSE(shouldVerifyBlock(options, "anything"));
  options.level = VerifyLevel::kOff;
  options.sampleRate = 1.0;
  EXPECT_FALSE(shouldVerifyBlock(options, "ex1"));
  options.level = VerifyLevel::kAll;
  options.sampleRate = 0.0;
  EXPECT_TRUE(shouldVerifyBlock(options, "ex1"));
}

// The acceptance matrix: with verification at kAll, every shipped block
// compiles and verifies on every shipped machine, cold and then warm from
// the cache (combinations a machine genuinely cannot implement are
// reported as recoverable errors and skipped).
TEST_F(VerifyTest, EveryShippedBlockVerifiesOnEveryMachineColdAndWarm) {
  const std::vector<std::string> machines = {"arch1", "arch2", "arch3",
                                             "arch4", "dsp16"};
  const std::vector<std::string> blocks = {"ex1",  "ex2",  "ex3",    "ex4",
                                           "ex5",  "fig2", "fig6",   "biquad",
                                           "dct4", "matvec2"};
  int verified = 0;
  for (const std::string& machineName : machines) {
    const Machine machine = loadMachine(machineName);
    auto cache = std::make_shared<ResultCache>(CacheConfig{});
    DriverOptions options = verifyAllOptions();
    options.cache = cache;
    for (const std::string& blockName : blocks) {
      const BlockDag dag = loadBlock(blockName);
      SymbolTable cold;
      CompiledBlock coldBlock;
      try {
        CodeGenerator generator(machine, options);
        coldBlock = generator.compileBlock(dag, cold);
      } catch (const Error&) {
        continue;  // not implementable on this machine — fine
      }
      EXPECT_FALSE(coldBlock.quarantined)
          << blockName << " on " << machineName;
      EXPECT_FALSE(coldBlock.degraded) << blockName << " on " << machineName;
      ++verified;

      // Warm: the same compile replays from the cache, and because the
      // entry carries a current verified bit, without re-simulation.
      CodeGenerator warmGen(machine, options);
      SymbolTable warm;
      const CompiledBlock warmBlock = warmGen.compileBlock(dag, warm);
      EXPECT_TRUE(warmBlock.fromCache) << blockName << " on " << machineName;
      EXPECT_FALSE(warmBlock.quarantined);
      EXPECT_EQ(warmBlock.image.asmText(machine),
                coldBlock.image.asmText(machine));
      const std::string warmJson = warmGen.telemetry().toJson();
      EXPECT_EQ(warmJson.find("blocksChecked"), std::string::npos)
          << "verified warm hit must skip the simulator";
    }
  }
  // The matrix must not silently degenerate to "everything skipped".
  EXPECT_GE(verified, 25);
}

TEST_F(VerifyTest, CorruptAsmFailpointQuarantinesDegradesAndNeverCaches) {
  FailPoints::instance().configure("verify-corrupt-asm:1:1");
  auto cache = std::make_shared<ResultCache>(CacheConfig{});
  DriverOptions options = verifyAllOptions();
  options.cache = cache;
  const Machine machine = loadMachine("arch1");
  const BlockDag dag = loadBlock("ex1");

  CodeGenerator generator(machine, options);
  SymbolTable symbols;
  const CompiledBlock block = generator.compileBlock(dag, symbols);
  EXPECT_TRUE(block.quarantined);
  EXPECT_TRUE(block.degraded);
  EXPECT_GT(block.numInstructions(), 0);
  EXPECT_EQ(cache->stats().stores, 0)
      << "a quarantined result must never be cached";
  const std::string json = generator.telemetry().toJson();
  EXPECT_NE(json.find("verifyFailures"), std::string::npos);

  // The fault was one-shot: a fresh compile is clean, passes verification,
  // and is cached as verified.
  CodeGenerator healthyGen(machine, options);
  SymbolTable symbols2;
  const CompiledBlock healthy = healthyGen.compileBlock(dag, symbols2);
  EXPECT_FALSE(healthy.quarantined);
  EXPECT_FALSE(healthy.degraded);
  EXPECT_FALSE(healthy.fromCache);
  EXPECT_EQ(cache->stats().stores, 1);
}

TEST_F(VerifyTest, CorruptAsmWithFallbackDisabledThrows) {
  FailPoints::instance().configure("verify-corrupt-asm:1:1");
  DriverOptions options = verifyAllOptions();
  options.baselineFallback = false;
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  EXPECT_THROW((void)generator.compileBlock(loadBlock("ex1"), symbols),
               Error);
}

// An adversarially deep random DAG that blows the split-node ceiling must
// degrade to the baseline — which lifts the ceiling — and still verify.
TEST_F(VerifyTest, ResourceCeilingDegradesToVerifiedBaseline) {
  RandomDagSpec spec;
  spec.numInputs = 6;
  spec.numOps = 40;
  spec.reuseBias = 0.9;
  spec.seed = 20260806;
  const BlockDag dag = makeRandomDag(spec);

  DriverOptions options = verifyAllOptions();
  options.core.maxSndNodes = 25;  // far below what 40 ops need
  CodeGenerator generator(loadMachine("dsp16"), options);
  SymbolTable symbols;
  const CompiledBlock block = generator.compileBlock(dag, symbols);
  EXPECT_TRUE(block.degraded);
  EXPECT_FALSE(block.quarantined);
  EXPECT_GT(block.numInstructions(), 0);
}

TEST_F(VerifyTest, ResourceCeilingWithoutFallbackSurfacesTypedError) {
  RandomDagSpec spec;
  spec.numOps = 40;
  spec.seed = 7;
  const BlockDag dag = makeRandomDag(spec);
  DriverOptions options;
  options.baselineFallback = false;
  options.core.maxSndNodes = 25;
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  EXPECT_THROW((void)generator.compileBlock(dag, symbols),
               ResourceLimitExceeded);
}

// The verified bit's upgrade path: an entry stored without verification
// (kSampled that sampled nothing) is re-verified on its first verifying
// hit, upgraded in place, and subsequent hits skip the simulator.
TEST_F(VerifyTest, UnverifiedEntryIsVerifiedOnceOnHitThenSkipped) {
  auto cache = std::make_shared<ResultCache>(CacheConfig{});
  const Machine machine = loadMachine("arch1");
  const BlockDag dag = loadBlock("ex1");

  DriverOptions sampledNone = verifyAllOptions();
  sampledNone.cache = cache;
  sampledNone.verify.level = VerifyLevel::kSampled;
  sampledNone.verify.sampleRate = 0.0;  // store, but verify nothing
  {
    CodeGenerator generator(machine, sampledNone);
    SymbolTable symbols;
    const CompiledBlock block = generator.compileBlock(dag, symbols);
    EXPECT_FALSE(block.fromCache);
  }
  EXPECT_EQ(cache->stats().stores, 1);

  // First verifying session: hit + on-hit verification + in-place upgrade.
  DriverOptions all = verifyAllOptions();
  all.cache = cache;
  {
    CodeGenerator generator(machine, all);
    SymbolTable symbols;
    const CompiledBlock block = generator.compileBlock(dag, symbols);
    EXPECT_TRUE(block.fromCache);
    const std::string json = generator.telemetry().toJson();
    EXPECT_NE(json.find("blocksChecked"), std::string::npos)
        << "unverified entry must be re-checked on hit";
  }
  EXPECT_EQ(cache->stats().stores, 2) << "upgrade re-stores the entry";

  // Second verifying session: the upgraded entry skips the simulator.
  {
    CodeGenerator generator(machine, all);
    SymbolTable symbols;
    const CompiledBlock block = generator.compileBlock(dag, symbols);
    EXPECT_TRUE(block.fromCache);
    const std::string json = generator.telemetry().toJson();
    EXPECT_EQ(json.find("blocksChecked"), std::string::npos)
        << "verified warm hit must skip the simulator";
  }
  EXPECT_EQ(cache->stats().stores, 2);
}

// A verifier bump changes the fingerprint salt: stale entries become
// invisible and the block is recompiled (and re-verified) from cold.
TEST_F(VerifyTest, StaleVerifierVersionForcesRecompile) {
  auto cache = std::make_shared<ResultCache>(CacheConfig{});
  const Machine machine = loadMachine("arch1");
  const BlockDag dag = loadBlock("ex1");

  DriverOptions all = verifyAllOptions();
  all.cache = cache;
  {
    CodeGenerator generator(machine, all);
    SymbolTable symbols;
    (void)generator.compileBlock(dag, symbols);
  }
  EXPECT_EQ(cache->stats().stores, 1);

  DriverOptions bumped = all;
  bumped.verify.verifierVersion = kVerifierVersion + 1;
  CodeGenerator generator(machine, bumped);
  SymbolTable symbols;
  const CompiledBlock block = generator.compileBlock(dag, symbols);
  EXPECT_FALSE(block.fromCache)
      << "a new verifier version must not reuse old entries";
  EXPECT_EQ(cache->stats().stores, 2);

  // Verification-off sessions use salt 0 and are also blind to both.
  DriverOptions off = all;
  off.verify.level = VerifyLevel::kOff;
  CodeGenerator offGen(machine, off);
  SymbolTable symbols2;
  const CompiledBlock offBlock = offGen.compileBlock(dag, symbols2);
  EXPECT_FALSE(offBlock.fromCache);
}

TEST_F(VerifyTest, CorruptImageForTestingBreaksVerification) {
  const Machine machine = loadMachine("arch1");
  const BlockDag dag = loadBlock("ex1");
  // Compile through the cache so we get the entry's scope-independent
  // image — the exact form the verifier consumes.
  auto cache = std::make_shared<ResultCache>(CacheConfig{});
  DriverOptions options;  // verification off; we drive the verifier by hand
  options.cache = cache;
  CodeGenerator generator(machine, options);
  SymbolTable symbols;
  (void)generator.compileBlock(dag, symbols);
  const Hash128 key =
      compileFingerprint(generator.context(), dag, options.core,
                         options.runPeephole, options.outputsToMemoryFallback);
  const auto entry = cache->lookup(key);
  ASSERT_NE(entry, nullptr);

  VerifyOptions vopts;
  vopts.level = VerifyLevel::kAll;
  const VerifyReport good = verifyCompiledBlock(machine, dag, entry->image,
                                                entry->symbolNames, vopts);
  ASSERT_TRUE(good.checked);
  EXPECT_TRUE(good.passed) << good.detail();

  CodeImage corrupt = entry->image;
  ASSERT_TRUE(corruptImageForTesting(corrupt));
  const VerifyReport bad =
      verifyCompiledBlock(machine, dag, corrupt, entry->symbolNames, vopts);
  ASSERT_TRUE(bad.checked);
  EXPECT_FALSE(bad.passed);
  EXPECT_NE(bad.detail().find("mismatch"), std::string::npos);
}

TEST_F(VerifyTest, ProgramCompileVerifiesEveryBlock) {
  const Machine machine = loadMachine("arch1");
  const Program program = parseProgram(R"(
    block first {
      input a, b;
      output t;
      t = (a + b) * a;
    }
    block second {
      input t, c;
      output y;
      y = t - c;
      return;
    }
  )",
                                       "verify-program");
  DriverOptions options = verifyAllOptions();
  CodeGenerator generator(machine, options);
  const CompiledProgram compiled = generator.compileProgram(program);
  for (const CompiledBlock& block : compiled.blocks) {
    EXPECT_FALSE(block.quarantined);
    EXPECT_FALSE(block.degraded);
  }
  const std::string json = generator.telemetry().toJson();
  EXPECT_NE(json.find("blocksChecked"), std::string::npos);
}

}  // namespace
}  // namespace aviv
