// Quarantine artifact tests: a verification failure must produce a
// self-contained bundle that, replayed in isolation (re-parsed machine,
// re-parsed block, rehydrated image, recorded seed), reproduces the exact
// mismatch — and the quarantine-write failpoint must never escalate.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "driver/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "service/cache.h"
#include "service/fingerprint.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "verify/quarantine.h"
#include "verify/verify.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

class QuarantineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // gtest_discover_tests runs each TEST as its own ctest entry, possibly
    // in parallel — the scratch dir must be unique per test.
    const std::string test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = (fs::temp_directory_path() / ("aviv_quarantine_" + test)).string();
    fs::remove_all(dir_);
  }
  void TearDown() override {
    FailPoints::instance().clear();
    fs::remove_all(dir_);
  }
  std::string dir_;
};

std::vector<std::string> artifactDirs(const std::string& root) {
  std::vector<std::string> dirs;
  if (!fs::exists(root)) return dirs;
  for (const auto& entry : fs::directory_iterator(root))
    if (entry.is_directory()) dirs.push_back(entry.path().string());
  return dirs;
}

// End to end: the verify-corrupt-asm failpoint produces a miscompile, the
// driver quarantines it, and replaying the artifact reproduces the
// mismatch deterministically.
TEST_F(QuarantineTest, ArtifactRoundTripReproducesMismatch) {
  FailPoints::instance().configure("verify-corrupt-asm:1:1");
  DriverOptions options;
  options.verify.level = VerifyLevel::kAll;
  options.verify.quarantineDir = dir_;
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  const CompiledBlock block =
      generator.compileBlock(loadBlock("ex1"), symbols);
  ASSERT_TRUE(block.quarantined);

  const std::vector<std::string> dirs = artifactDirs(dir_);
  ASSERT_EQ(dirs.size(), 1u);
  for (const char* file :
       {"machine.isdl", "block.blk", "entry.bin", "asm.txt", "meta.txt"})
    EXPECT_TRUE(fs::exists(fs::path(dirs[0]) / file)) << file;
  EXPECT_EQ(readFile(dirs[0] + "/meta.txt").rfind("kind=miscompile\n", 0), 0u);

  const ReplayResult replay =
      replayQuarantineArtifact(ReproBundle::load(dirs[0]));
  EXPECT_TRUE(replay.reproduced)
      << "replay must reproduce the mismatch: " << replay.report.detail();
  EXPECT_FALSE(replay.report.passed);
  EXPECT_GE(replay.report.mismatchVector, 0);

  // Deterministic: replaying twice yields the identical report.
  const ReplayResult again =
      replayQuarantineArtifact(ReproBundle::load(dirs[0]));
  EXPECT_EQ(again.report.detail(), replay.report.detail());
}

// A healthy compile quarantines nothing.
TEST_F(QuarantineTest, NoArtifactOnCleanCompile) {
  DriverOptions options;
  options.verify.level = VerifyLevel::kAll;
  options.verify.quarantineDir = dir_;
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  const CompiledBlock block =
      generator.compileBlock(loadBlock("ex1"), symbols);
  EXPECT_FALSE(block.quarantined);
  EXPECT_TRUE(artifactDirs(dir_).empty());
}

// Quarantine I/O failure (injected) must not escalate: the compile still
// degrades to the verified baseline and completes.
TEST_F(QuarantineTest, QuarantineWriteFailureIsSwallowed) {
  FailPoints::instance().configure(
      "verify-corrupt-asm:1:1,quarantine-write:1:1");
  DriverOptions options;
  options.verify.level = VerifyLevel::kAll;
  options.verify.quarantineDir = dir_;
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  const CompiledBlock block =
      generator.compileBlock(loadBlock("ex1"), symbols);
  EXPECT_TRUE(block.quarantined);
  EXPECT_TRUE(block.degraded);
  EXPECT_GT(block.numInstructions(), 0);
  EXPECT_TRUE(artifactDirs(dir_).empty()) << "write was injected to fail";
}

// Direct library-level round trip, no failpoints: corrupt the cached
// scope-independent image by hand, write the artifact, replay it.
TEST_F(QuarantineTest, DirectWriteAndReplay) {
  const Machine machine = loadMachine("arch2");
  const BlockDag dag = loadBlock("ex3");
  // Compile through a throwaway cache so we can take the entry's
  // scope-independent image — the exact form the verifier consumes.
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
  CodeImage image = entry->image;
  ASSERT_TRUE(corruptImageForTesting(image));
  const VerifyReport report =
      verifyCompiledBlock(machine, dag, image, entry->symbolNames, vopts);
  ASSERT_TRUE(report.checked);
  ASSERT_FALSE(report.passed);

  const std::string artifact = writeQuarantineArtifact(
      dir_, machine, dag, image, entry->symbolNames, vopts, report);
  ASSERT_FALSE(artifact.empty());
  const ReplayResult replay =
      replayQuarantineArtifact(ReproBundle::load(artifact));
  EXPECT_TRUE(replay.reproduced);
  EXPECT_EQ(replay.report.mismatchOutput, report.mismatchOutput);
  EXPECT_EQ(replay.report.expected, report.expected);
  EXPECT_EQ(replay.report.actual, report.actual);
}

// Empty quarantine dir means "don't write" — best-effort no-op.
TEST_F(QuarantineTest, EmptyDirSkipsWrite) {
  FailPoints::instance().configure("verify-corrupt-asm:1:1");
  DriverOptions options;
  options.verify.level = VerifyLevel::kAll;  // quarantineDir left empty
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  const CompiledBlock block =
      generator.compileBlock(loadBlock("ex1"), symbols);
  EXPECT_TRUE(block.quarantined);
  EXPECT_TRUE(block.degraded);
}

}  // namespace
}  // namespace aviv
