// Differential harness tests (src/fuzz/diff + repro): clean pairs pass,
// verdicts are deterministic, and the planted `fuzz-engine-disagree`
// failpoint drives the full failure path end to end — miscompile verdict,
// kind=miscompile quarantine bundle, kind=fuzz repro bundle, replay.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fuzz/diff.h"
#include "fuzz/genblock.h"
#include "fuzz/genmachine.h"
#include "fuzz/repro.h"
#include "support/error.h"
#include "support/failpoint.h"
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

// Scans seeds for a pair both engines compile and verify cleanly (kPass);
// such a pair is also the substrate for the planted-fault tests, which
// need the baseline to produce an image that can be corrupted.
std::pair<Machine, BlockDag> passingPair(MachineFamily family) {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Machine machine = generateMachine({family, seed});
    BlockDag dag = generateBlock(machine, {seed ^ 0xf00d, 3, 12});
    if (runDifferential(machine, dag, {}).verdict == DiffVerdict::kPass)
      return {std::move(machine), std::move(dag)};
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
  const auto [machine, dag] = passingPair(MachineFamily::kMinimal);
  const DiffResult first = runDifferential(machine, dag, {});
  const DiffResult second = runDifferential(machine, dag, {});
  EXPECT_EQ(first.verdict, DiffVerdict::kPass);
  EXPECT_EQ(first.signature, "pass");
  EXPECT_FALSE(first.plantedFault);
  EXPECT_TRUE(first.quarantinePath.empty());
  EXPECT_EQ(second.signature, first.signature);
  EXPECT_EQ(second.detail, first.detail);
}

TEST_F(DiffTest, PlantedFaultYieldsQuarantinedMiscompile) {
  const auto [machine, dag] = passingPair(MachineFamily::kMinimal);
  DiffOptions options;
  options.quarantineDir = ::testing::TempDir() + "diff_test_quarantine";

  FailPoints::instance().configure("fuzz-engine-disagree");
  const DiffResult result = runDifferential(machine, dag, options);
  FailPoints::instance().clear();

  EXPECT_EQ(result.verdict, DiffVerdict::kMiscompile);
  EXPECT_EQ(result.signature, "miscompile:baseline");
  EXPECT_TRUE(result.plantedFault);
  EXPECT_TRUE(result.baseline.verifyFailed);
  EXPECT_FALSE(result.heuristic.verifyFailed);

  // The miscompile quarantined a kind=miscompile bundle whose replay
  // reproduces the mismatch from the files alone.
  ASSERT_FALSE(result.quarantinePath.empty());
  const ReplayResult replay =
      replayQuarantineArtifact(ReproBundle::load(result.quarantinePath));
  EXPECT_TRUE(replay.reproduced);
}

TEST_F(DiffTest, ReproBundleRoundTripsAndReplays) {
  const auto [machine, dag] = passingPair(MachineFamily::kMinimal);
  DiffOptions options;
  options.vectors = 3;

  FailPoints::instance().configure("fuzz-engine-disagree");
  const DiffResult result = runDifferential(machine, dag, options);
  FailPoints::instance().clear();
  ASSERT_EQ(result.signature, "miscompile:baseline");

  FuzzCase info;
  info.family = MachineFamily::kMinimal;
  info.machineSeed = 1;
  info.blockSeed = 2;
  info.iteration = 7;
  info.failpoints = "fuzz-engine-disagree";  // always-fire replay spec
  const std::string dir =
      writeFuzzRepro(::testing::TempDir() + "diff_test_repros", machine, dag,
                     info, options, result);

  const FuzzRepro repro = loadFuzzRepro(ReproBundle::load(dir));
  EXPECT_EQ(repro.machine.name(), machine.name());
  EXPECT_EQ(repro.info.family, info.family);
  EXPECT_EQ(repro.info.machineSeed, info.machineSeed);
  EXPECT_EQ(repro.info.blockSeed, info.blockSeed);
  EXPECT_EQ(repro.info.iteration, info.iteration);
  EXPECT_EQ(repro.info.failpoints, info.failpoints);
  EXPECT_EQ(repro.options.vectors, options.vectors);
  EXPECT_EQ(repro.signature, result.signature);

  // The bundle is the bug report: replay needs nothing from this process.
  const FuzzReplayResult replay = replayFuzzRepro(repro);
  EXPECT_TRUE(replay.reproduced);
  EXPECT_EQ(replay.result.signature, result.signature);
}

TEST_F(DiffTest, LoadMissingBundleThrows) {
  EXPECT_THROW((void)loadFuzzRepro(ReproBundle::load(::testing::TempDir() +
                                                      "no_such_bundle")),
               Error);
}

}  // namespace
}  // namespace aviv
