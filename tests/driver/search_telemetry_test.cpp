// Search telemetry: the covering pipeline's exploration/covering effort is
// recorded in the phase-telemetry tree (nodesVisited, prunedByBound,
// backtracks, candidatesAbandoned, candidatesCut, best-cost trajectory),
// round-trips through coreStatsView, and — because every counter is a
// per-candidate sum reduced deterministically — is identical for serial and
// parallel covering runs.
#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "core/codegen.h"
#include "driver/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"

namespace aviv {
namespace {

struct CompileRun {
  CompiledBlock block;
  TelemetryNode telemetry{""};
};

CompileRun compileWithJobs(const std::string& blockName,
                    const std::string& machineName, int jobs) {
  const BlockDag dag = loadBlock(blockName);
  DriverOptions options;
  options.core = CodegenOptions::heuristicsOn();
  options.core.jobs = jobs;
  CodeGenerator generator(loadMachine(machineName), options);
  SymbolTable symbols;
  CompileRun run{generator.compileBlock(dag, symbols), TelemetryNode("")};
  // Deep-copy the telemetry tree out of the generator (merge into an empty
  // node) so the generator can be destroyed.
  run.telemetry.merge(generator.telemetry());
  return run;
}

TEST(SearchTelemetry, CountersRecordedAndViewRoundTrips) {
  const CompileRun run = compileWithJobs("fig2", "arch3", 1);
  const TelemetryNode* block = run.telemetry.findChild("block:fig2");
  ASSERT_NE(block, nullptr);

  const TelemetryNode* search = block->findChild("search");
  ASSERT_NE(search, nullptr);
  EXPECT_GT(search->counter("nodesVisited"), 0);
  EXPECT_TRUE(search->hasCounter("prunedByBound"));
  EXPECT_TRUE(search->hasCounter("backtracks"));
  EXPECT_TRUE(search->hasCounter("candidatesAbandoned"));
  EXPECT_TRUE(search->hasCounter("candidatesCut"));

  // The view read back from telemetry matches the in-memory stats the
  // compile produced — the cache replay path depends on this symmetry.
  const CoreStats& live = run.block.core.stats;
  const CoreStats view = coreStatsView(*block);
  EXPECT_EQ(view.search.nodesVisited, live.search.nodesVisited);
  EXPECT_EQ(view.search.prunedByBound, live.search.prunedByBound);
  EXPECT_EQ(view.search.backtracks, live.search.backtracks);
  EXPECT_EQ(view.search.candidatesAbandoned, live.search.candidatesAbandoned);
  EXPECT_EQ(view.search.candidatesCut, live.search.candidatesCut);
  ASSERT_EQ(view.trajectory.size(), live.trajectory.size());
  for (size_t k = 0; k < view.trajectory.size(); ++k) {
    EXPECT_EQ(view.trajectory[k].candidate, live.trajectory[k].candidate);
    EXPECT_EQ(view.trajectory[k].instructions,
              live.trajectory[k].instructions);
    EXPECT_EQ(view.trajectory[k].spills, live.trajectory[k].spills);
  }
}

TEST(SearchTelemetry, TrajectoryIsMonotoneAndEndsAtWinner) {
  const CompileRun run = compileWithJobs("fig2", "arch3", 1);
  const auto& trajectory = run.block.core.stats.trajectory;
  ASSERT_FALSE(trajectory.empty());
  for (size_t k = 1; k < trajectory.size(); ++k) {
    // Strictly improving in (instructions, spills) lexicographic cost.
    const auto prev = std::pair{trajectory[k - 1].instructions,
                                trajectory[k - 1].spills};
    const auto cur =
        std::pair{trajectory[k].instructions, trajectory[k].spills};
    EXPECT_LT(cur, prev) << "trajectory step " << k;
    EXPECT_GT(trajectory[k].candidate, trajectory[k - 1].candidate);
  }
  // The last point is the winning candidate's covering cost (peephole may
  // still shrink the final image below it, never above).
  EXPECT_LE(run.block.numInstructions(), trajectory.back().instructions);
}

TEST(SearchTelemetry, SerialAndParallelCountersIdentical) {
  // fig2/arch3 covers a handful of candidates; ex2/arch1 takes the
  // exhaustive shortcut (216 candidates), so dozens of covering waves run
  // four-wide against the cross-candidate cutoff.
  for (const auto& [blockName, machineName] :
       {std::pair{"fig2", "arch3"}, std::pair{"ex2", "arch1"}}) {
    const std::string blockNode = std::string("block:") + blockName;
    CompileRun serial = compileWithJobs(blockName, machineName, 1);
    CompileRun parallel = compileWithJobs(blockName, machineName, 4);
    // The session records its worker count ("jobs" on the root and on the
    // cover phase) — the one counter that legitimately differs. Neutralize
    // it, then demand bit-identical trees: sameShapeAs compares names, every
    // other counter, and topology (including the search child and the
    // best:<k> trajectory children) while ignoring wall-clock seconds, so
    // search effort must not depend on the worker count.
    for (CompileRun* run : {&serial, &parallel}) {
      run->telemetry.setCounter("jobs", 0);
      run->telemetry.child(blockNode).child("cover").setCounter("jobs", 0);
    }
    EXPECT_TRUE(serial.telemetry.sameShapeAs(parallel.telemetry)) << blockName;
    const TelemetryNode* block = parallel.telemetry.findChild(blockNode);
    ASSERT_NE(block, nullptr);
    const CoreStats a = coreStatsView(*serial.telemetry.findChild(blockNode));
    const CoreStats b = coreStatsView(*block);
    EXPECT_EQ(a.search.nodesVisited, b.search.nodesVisited) << blockName;
    EXPECT_EQ(a.search.backtracks, b.search.backtracks) << blockName;
    EXPECT_EQ(a.search.candidatesCut, b.search.candidatesCut) << blockName;
    ASSERT_EQ(a.trajectory.size(), b.trajectory.size()) << blockName;
    if (std::string(blockName) == "ex2") {
      EXPECT_GT(a.search.candidatesCut + a.assignmentsCovered, 9u);
      EXPECT_GT(a.search.candidatesCut, 0u);
    }
  }
}

}  // namespace
}  // namespace aviv
