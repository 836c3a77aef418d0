// Search telemetry: the covering pipeline's exploration/covering effort is
// recorded in the phase-telemetry tree (nodesVisited, prunedByBound,
// backtracks, candidatesAbandoned, candidatesCut, best-cost trajectory),
// matches the stats struct the compile returned, and — because every counter
// is a per-candidate sum reduced deterministically — is identical for serial
// and parallel covering runs.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "core/codegen.h"
#include "driver/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "obs/metrics.h"

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
  options.core.jobs = jobs;
  CodeGenerator generator(loadMachine(machineName), options);
  SymbolTable symbols;
  CompileRun run{generator.compileBlock(dag, symbols), TelemetryNode("")};
  // Deep-copy the telemetry tree out of the generator (merge into an empty
  // node) so the generator can be destroyed.
  run.telemetry.merge(generator.telemetry());
  return run;
}

TEST(SearchTelemetry, CountersRecordedMatchLiveStats) {
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

  // recordCoreStats wrote exactly the in-memory stats the compile produced:
  // the search totals, and one best:<k> child per trajectory point.
  const CoreStats& live = run.block.core.stats;
  const auto count = [](size_t n) { return static_cast<int64_t>(n); };
  EXPECT_EQ(search->counter("nodesVisited"), count(live.search.nodesVisited));
  EXPECT_EQ(search->counter("prunedByBound"),
            count(live.search.prunedByBound));
  EXPECT_EQ(search->counter("backtracks"), count(live.search.backtracks));
  EXPECT_EQ(search->counter("candidatesAbandoned"),
            count(live.search.candidatesAbandoned));
  EXPECT_EQ(search->counter("candidatesCut"), count(live.search.candidatesCut));
  const TelemetryNode* cover = block->findChild("cover");
  ASSERT_NE(cover, nullptr);
  EXPECT_EQ(cover->findChild("best:" + std::to_string(live.trajectory.size())),
            nullptr);
  for (size_t k = 0; k < live.trajectory.size(); ++k) {
    const TelemetryNode* point = cover->findChild("best:" + std::to_string(k));
    ASSERT_NE(point, nullptr) << "best:" << k;
    EXPECT_EQ(point->counter("candidate"), count(live.trajectory[k].candidate));
    EXPECT_EQ(point->counter("instructions"), live.trajectory[k].instructions);
    EXPECT_EQ(point->counter("spills"), live.trajectory[k].spills);
  }
}

TEST(SearchTelemetry, RegistryCountersEqualCoreStats) {
  // coverBlock publishes its search totals to the metrics registry once,
  // from the struct it returns, so the two cannot disagree. dct4/arch2
  // cuts, abandons and backtracks, so no compared total is zero.
  const bool metricsWereOn = metrics::on();
  auto& registry = metrics::Registry::instance();
  registry.enable();
  registry.reset();
  const Machine machine = loadMachine("arch2");
  const MachineDatabases dbs(machine);
  const CoreResult result =
      coverBlock(loadBlock("dct4"), machine, dbs, CodegenOptions{});
  if (!metricsWereOn) registry.disable();

  const SearchStats& search = result.stats.search;
  const std::pair<const char*, uint64_t> expected[] = {
      {"search.nodesVisited", search.nodesVisited},
      {"search.prunedByBound", search.prunedByBound},
      {"search.backtracks", search.backtracks},
      {"search.candidatesAbandoned", search.candidatesAbandoned},
      {"search.candidatesCut", search.candidatesCut},
      {"search.cliqueRecursions", search.cliqueRecursions},
      {"search.candidatesEvaluated", search.candidatesEvaluated},
      {"alloc.arena.calls", search.arenaCalls},
      {"alloc.arena.bytes", search.arenaBytes}};
  for (const auto& [name, value] : expected) {
    EXPECT_GT(value, 0u) << name;
    EXPECT_EQ(registry.counter(name).value(), static_cast<int64_t>(value))
        << name;
  }
  const metrics::Histogram::Snapshot highWater =
      registry.histogram("alloc.arena.highWater").snapshot();
  EXPECT_EQ(highWater.count, 1);
  EXPECT_EQ(highWater.max, static_cast<int64_t>(search.arenaHighWater));
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
    const CoreStats& a = serial.block.core.stats;
    const CoreStats& b = parallel.block.core.stats;
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
