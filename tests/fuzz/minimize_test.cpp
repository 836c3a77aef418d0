// Minimizer tests (src/fuzz/minimize): a planted failure shrinks
// monotonically — the size trajectory strictly decreases step by step —
// and the shrunken pair still reproduces the exact failure signature.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "fuzz/diff.h"
#include "fuzz/genblock.h"
#include "fuzz/genmachine.h"
#include "fuzz/minimize.h"
#include "support/error.h"
#include "support/failpoint.h"

namespace aviv {
namespace {

class MinimizeTest : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::instance().clear(); }
  void TearDown() override { FailPoints::instance().clear(); }
};

// A wide-VLIW pair the baseline compiles cleanly: big enough that the
// minimizer has real work, and a substrate the planted fault can corrupt.
std::pair<Machine, Program> passingWidePair() {
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    Machine machine = generateMachine({MachineFamily::kWideVliw, seed});
    Program program =
        singleBlockProgram(generateBlock(machine, {seed ^ 0xf00d, 8, 24}));
    if (runDifferential(machine, program, {}).verdict == DiffVerdict::kPass)
      return {std::move(machine), std::move(program)};
  }
  throw Error("no passing wide pair within 64 seeds");
}

TEST_F(MinimizeTest, StructuralSizeCountsEveryAxis) {
  const Machine machine = generateMachine({MachineFamily::kMinimal, 3});
  const Program program =
      singleBlockProgram(generateBlock(machine, {5, 3, 12}));
  const int size = structuralSize(machine, program);
  // At least one op node, one output, one unit with one op, one regfile
  // with one register.
  EXPECT_GE(size, 5);
}

TEST_F(MinimizeTest, PlantedFailureShrinksMonotonicallyKeepingSignature) {
  const auto [machine, program] = passingWidePair();
  const int originalSize = structuralSize(machine, program);

  FailPoints::instance().configure("fuzz-engine-disagree");
  const DiffResult seed = runDifferential(machine, program, {});
  ASSERT_EQ(seed.signature, "miscompile:baseline");

  const MinimizeResult min =
      minimizeFuzzCase(machine, program, {}, seed.signature);

  // Re-running the harness on the shrunken pair (failpoint still armed)
  // reproduces the signature verbatim.
  EXPECT_EQ(runDifferential(min.machine, min.program, {}).signature,
            seed.signature);
  EXPECT_NO_THROW(min.machine.validate());

  // Monotone trajectory: starts at the original size, every accepted step
  // strictly decreases it, and the final entry is the minimized size.
  ASSERT_FALSE(min.stats.sizeTrajectory.empty());
  EXPECT_EQ(min.stats.sizeTrajectory.front(), originalSize);
  for (size_t i = 1; i < min.stats.sizeTrajectory.size(); ++i)
    EXPECT_LT(min.stats.sizeTrajectory[i], min.stats.sizeTrajectory[i - 1]);
  EXPECT_EQ(min.stats.sizeTrajectory.back(),
            structuralSize(min.machine, min.program));
  EXPECT_LE(structuralSize(min.machine, min.program), originalSize);
  EXPECT_GE(static_cast<size_t>(min.stats.attempts) + 1,
            min.stats.sizeTrajectory.size());

  // A wide machine carries far more structure than the corrupted-image
  // signature needs; minimization must make real progress, not a no-op.
  EXPECT_LT(structuralSize(min.machine, min.program), originalSize);

  FailPoints::instance().clear();
}

TEST_F(MinimizeTest, MinimizationIsDeterministic) {
  const auto [machine, program] = passingWidePair();
  FailPoints::instance().configure("fuzz-engine-disagree");
  const std::string signature =
      runDifferential(machine, program, {}).signature;
  const MinimizeResult a = minimizeFuzzCase(machine, program, {}, signature);
  const MinimizeResult b = minimizeFuzzCase(machine, program, {}, signature);
  EXPECT_EQ(a.stats.sizeTrajectory, b.stats.sizeTrajectory);
  EXPECT_EQ(structuralSize(a.machine, a.program),
            structuralSize(b.machine, b.program));
  FailPoints::instance().clear();
}

TEST_F(MinimizeTest, AttemptBudgetBoundsWork) {
  const auto [machine, program] = passingWidePair();
  FailPoints::instance().configure("fuzz-engine-disagree");
  const std::string signature =
      runDifferential(machine, program, {}).signature;
  MinimizeOptions options;
  options.maxAttempts = 5;
  const MinimizeResult min =
      minimizeFuzzCase(machine, program, {}, signature, options);
  EXPECT_LE(min.stats.attempts, 5);
  // Even a truncated run returns a valid pair with the signature intact.
  EXPECT_EQ(runDifferential(min.machine, min.program, {}).signature, signature);
  FailPoints::instance().clear();
}

}  // namespace
}  // namespace aviv
