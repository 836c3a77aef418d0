// Differential harness tests (src/fuzz/diff + repro): clean pairs pass,
// verdicts are deterministic, the parse stage maps every throw onto the
// taxonomy, multi-block programs reach compileProgram, and planted faults
// (`fuzz-parse-internal`, `fuzz-engine-disagree`, `cover-internal`) drive
// the full failure path end to end — failure verdict, kind=miscompile
// quarantine bundle, kind=fuzz repro bundle recording the fired sites,
// replay.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "fuzz/diff.h"
#include "fuzz/genblock.h"
#include "fuzz/genmachine.h"
#include "fuzz/repro.h"
#include "ir/emit.h"
#include "isdl/emit.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "verify/quarantine.h"

namespace aviv {
namespace {

// Clears the failpoint registry around each test so a planted fault never
// leaks into a neighbour.
class DiffTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::instance().clear(); }
  void TearDown() override { FailPoints::instance().clear(); }
};

// Scans seeds for a generated pair both engines compile and verify cleanly
// (kPass), as the fuzz loop feeds it: emitted text. Such a pair is also the
// substrate for the planted-fault tests, which need the baseline to
// produce an image that can be corrupted.
FuzzInput passingInput(MachineFamily family) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    const Machine machine = generateMachine({family, seed});
    const BlockDag dag = generateBlock(machine, {seed ^ 0xf00d, 3, 12});
    FuzzInput input{emitMachineText(machine), kBundleBlockFile,
                    emitBlockText(dag)};
    if (runDifferential(input, {}).verdict == DiffVerdict::kPass)
      return input;
  }
  throw Error("no passing pair within 64 seeds");
}

TEST_F(DiffTest, VerdictNamesAndFailurePredicate) {
  EXPECT_STREQ(verdictName(DiffVerdict::kPass), "pass");
  EXPECT_STREQ(verdictName(DiffVerdict::kMiscompile), "miscompile");
  EXPECT_FALSE(isFailureVerdict(DiffVerdict::kPass));
  EXPECT_FALSE(isFailureVerdict(DiffVerdict::kReject));
  EXPECT_TRUE(isFailureVerdict(DiffVerdict::kCrash));
  EXPECT_TRUE(isFailureVerdict(DiffVerdict::kEscape));
  EXPECT_TRUE(isFailureVerdict(DiffVerdict::kMiscompile));
}

TEST_F(DiffTest, CleanPairPassesAndIsDeterministic) {
  const FuzzInput input = passingInput(MachineFamily::kMinimal);
  const DiffResult first = runDifferential(input, {});
  const DiffResult second = runDifferential(input, {});
  EXPECT_EQ(first.verdict, DiffVerdict::kPass);
  EXPECT_EQ(first.signature, "pass");
  EXPECT_TRUE(first.failpoints.empty());
  EXPECT_TRUE(first.quarantinePath.empty());
  EXPECT_EQ(second.signature, first.signature);
  EXPECT_EQ(second.detail, first.detail);
}

TEST_F(DiffTest, ParseStageMapsThrowsOntoTheTaxonomy) {
  // The one exception -> verdict mapping both stages run under.
  const SideOutcome crash =
      guarded([] { throw InternalError("parser invariant"); });
  EXPECT_EQ(crash.verdict, DiffVerdict::kCrash);
  EXPECT_EQ(crash.detail, "parser invariant");
  const SideOutcome escape =
      guarded([] { throw std::logic_error("outside the taxonomy"); });
  EXPECT_EQ(escape.verdict, DiffVerdict::kEscape);
  EXPECT_EQ(escape.detail, "outside the taxonomy");
  EXPECT_EQ(guarded([] { throw ParseError("<fuzz>", {}); }).verdict,
            DiffVerdict::kReject);
  EXPECT_EQ(guarded([] {}).verdict, DiffVerdict::kPass);

  // The parse stage's side is `parse`: a parser invariant tripping (the
  // planted fault) is a crash there, and the input never compiles.
  const FuzzInput arch1{readFile(machinePath("arch1")), "", ""};
  FailPoints::instance().configure("fuzz-parse-internal:1:1");
  const DiffResult planted = runDifferential(arch1, {});
  EXPECT_EQ(planted.verdict, DiffVerdict::kCrash);
  EXPECT_EQ(planted.signature, "crash:parse");
  EXPECT_EQ(runDifferential(arch1, {}).signature, "pass");
}

TEST_F(DiffTest, MalformedTextRejectsAtTheParseStage) {
  const std::string arch1 = readFile(machinePath("arch1"));
  const DiffResult machine = runDifferential({"machine {", "", ""}, {});
  EXPECT_EQ(machine.signature, "reject:parse");
  const DiffResult block =
      runDifferential({arch1, kBundleBlockFile, "block b { output"}, {});
  EXPECT_EQ(block.signature, "reject:parse");
  // A machine alone that parses stops there.
  const DiffResult alone = runDifferential({arch1, "", ""}, {});
  EXPECT_EQ(alone.signature, "pass");
}

TEST_F(DiffTest, MultiBlockProgramsCompileOnBothEngines) {
  const std::string arch1 = readFile(machinePath("arch1"));
  const DiffResult minic = runDifferential(
      {arch1, kBundleMiniCFile, readFile(blockDir() + "/gcd.c")}, {});
  EXPECT_EQ(minic.signature, "pass") << minic.detail;

  const std::string program =
      "block entry { input n; output n, go; go = n > 0;"
      " if go goto body else done; }\n"
      "block body { input n; output n; n = n - 1; goto entry; }\n"
      "block done { input n; output r; r = n + 1; }\n";
  const DiffResult blk =
      runDifferential({arch1, kBundleBlockFile, program}, {});
  EXPECT_EQ(blk.signature, "pass") << blk.detail;
}

TEST_F(DiffTest, PlantedFaultYieldsQuarantinedMiscompile) {
  const FuzzInput input = passingInput(MachineFamily::kMinimal);
  DiffOptions options;
  options.quarantineDir = ::testing::TempDir() + "diff_test_quarantine";

  FailPoints::instance().configure("fuzz-engine-disagree");
  const DiffResult result = runDifferential(input, options);
  FailPoints::instance().clear();

  EXPECT_EQ(result.verdict, DiffVerdict::kMiscompile);
  EXPECT_EQ(result.signature, "miscompile:baseline");
  EXPECT_EQ(result.failpoints, "fuzz-engine-disagree");

  // The miscompile quarantined a kind=miscompile bundle whose replay
  // reproduces the mismatch from the files alone.
  ASSERT_FALSE(result.quarantinePath.empty());
  const ReplayResult replay =
      replayQuarantineArtifact(ReproBundle::load(result.quarantinePath));
  EXPECT_TRUE(replay.reproduced);
}

TEST_F(DiffTest, ReproBundleRoundTripsAndReplays) {
  const FuzzInput input = passingInput(MachineFamily::kMinimal);
  DiffOptions options;
  options.vectors = 3;

  // A count-limited spec: the bundle must record the always-fire spec.
  FailPoints::instance().configure("fuzz-engine-disagree:1:1");
  const DiffResult result = runDifferential(input, options);
  ASSERT_EQ(result.signature, "miscompile:baseline");
  ASSERT_EQ(result.failpoints, "fuzz-engine-disagree");

  const std::string dir =
      writeFuzzRepro(::testing::TempDir() + "diff_test_repros/case", input,
                     options, result, {{"iteration", "7"}});
  const ReproBundle bundle = ReproBundle::load(dir);
  EXPECT_EQ(bundle.text("iteration"), "7");
  const FuzzRepro repro = loadFuzzRepro(bundle);
  EXPECT_EQ(repro.input.machineText, input.machineText);
  EXPECT_EQ(repro.input.blockFile, input.blockFile);
  EXPECT_EQ(repro.input.blockText, input.blockText);
  EXPECT_EQ(repro.failpoints, "fuzz-engine-disagree");
  EXPECT_EQ(repro.options.vectors, options.vectors);
  EXPECT_EQ(repro.signature, result.signature);

  // The bundle is the bug report: replay needs nothing from this process,
  // and leaves this process's (now exhausted) schedule as it found it.
  const BundleReplay replay = replayFuzzRepro(repro);
  EXPECT_TRUE(replay.reproduced);
  EXPECT_EQ(replay.detail.rfind("signature " + result.signature, 0), 0u);
  EXPECT_EQ(FailPoints::instance().fires("fuzz-engine-disagree"), 1);
  EXPECT_FALSE(FailPoints::instance().shouldFail("fuzz-engine-disagree"));
}

TEST_F(DiffTest, FailpointCrashRecordsItsSiteAndReplays) {
  const FuzzInput input = passingInput(MachineFamily::kMinimal);
  FailPoints::instance().configure("cover-internal:1:1");
  const DiffResult result = runDifferential(input, {});
  EXPECT_EQ(result.verdict, DiffVerdict::kCrash);
  EXPECT_EQ(result.signature, "crash:heuristic");
  EXPECT_EQ(result.failpoints, "cover-internal");

  const std::string dir =
      writeFuzzRepro(::testing::TempDir() + "diff_test_repros/crash", input,
                     {}, result, {});
  EXPECT_TRUE(replayFuzzRepro(loadFuzzRepro(ReproBundle::load(dir)))
                  .reproduced);
  // The exhausted count survives the replay: no second crash.
  EXPECT_EQ(runDifferential(input, {}).signature, "pass");
}

TEST_F(DiffTest, ParseStageFailureBundleReplays) {
  const FuzzInput input{"machine {", "", ""};  // a machine alone
  FailPoints::instance().configure("fuzz-parse-internal:1:1");
  const DiffResult result = runDifferential(input, {});
  EXPECT_EQ(result.signature, "crash:parse");
  EXPECT_EQ(result.failpoints, "fuzz-parse-internal");

  const std::string dir =
      writeFuzzRepro(::testing::TempDir() + "diff_test_repros/parse", input,
                     {}, result, {});
  const FuzzRepro repro = loadFuzzRepro(ReproBundle::load(dir));
  EXPECT_EQ(repro.input.machineText, input.machineText);
  EXPECT_TRUE(repro.input.blockFile.empty());
  EXPECT_TRUE(replayFuzzRepro(repro).reproduced);
}

TEST_F(DiffTest, LoadRejectsABlockFileOutsideTheBundleNames) {
  const FuzzInput input{readFile(machinePath("arch1")), "", ""};
  const std::string dir =
      writeFuzzRepro(::testing::TempDir() + "diff_test_repros/blockfile",
                     input, {}, runDifferential(input, {}), {});
  const std::string meta = readFile(dir + "/meta.txt");
  const size_t at = meta.find("blockFile=\n");
  ASSERT_NE(at, std::string::npos);
  // A path that exists, but outside the bundle's two block file names.
  writeFile(dir + "/meta.txt",
            meta.substr(0, at) + "blockFile=../blockfile/machine.isdl" +
                meta.substr(at + 10));
  EXPECT_THROW((void)loadFuzzRepro(ReproBundle::load(dir)), Error);
}

TEST_F(DiffTest, LoadMissingBundleThrows) {
  EXPECT_THROW((void)loadFuzzRepro(ReproBundle::load(::testing::TempDir() +
                                                      "no_such_bundle")),
               Error);
}

}  // namespace
}  // namespace aviv
