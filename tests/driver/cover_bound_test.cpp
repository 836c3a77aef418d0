// Bound safety: coverBlock's cross-candidate cutoff (covering waves plus
// CoveringEngine's lower bound) must never change what the search finds.
// Every block is covered twice — by coverBlock, and by a test-local loop
// that covers every candidate to completion with the unbounded
// CoveringEngine::run (the loop perfbench/replay.cpp mirrors) — and the
// winner index, schedule, spills and best-cost trajectory must agree.
// The loop also checks the bound itself: no completed candidate may finish
// below its round-0 lower bound.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/codegen.h"
#include "fuzz/genblock.h"
#include "ir/parser.h"
#include "isdl/parser.h"

namespace aviv {
namespace {

using TrajectoryKey = std::tuple<size_t, int, int>;  // index, instrs, spills

struct Outcome {
  bool ok = false;
  size_t winner = 0;
  std::vector<std::vector<AgId>> schedule;
  int spills = 0;
  std::vector<TrajectoryKey> trajectory;
  size_t cut = 0;  // coverBlock's SearchStats::candidatesCut
  // Every first-pass candidate was register-infeasible, so the widened
  // re-exploration ran (unbounded loop only).
  bool widened = false;
};

Outcome boundedOutcome(const BlockDag& ir, const Machine& machine,
                       const MachineDatabases& dbs,
                       const CodegenOptions& options) {
  Outcome out;
  CoreResult result;
  try {
    result = coverBlock(ir, machine, dbs, options);
  } catch (const Error&) {
    return out;
  }
  out.ok = true;
  out.schedule = result.schedule.instrs;
  out.spills = result.stats.cover.spillsInserted;
  for (const TrajectoryPoint& point : result.stats.trajectory)
    out.trajectory.emplace_back(point.candidate, point.instructions,
                                point.spills);
  out.winner = result.stats.trajectory.back().candidate;
  out.cut = result.stats.search.candidatesCut;
  return out;
}

// coverBlock's serial path without the cutoff: every candidate covered to
// completion, the first strictly smallest (instructions, spills) wins.
Outcome unboundedOutcome(const BlockDag& ir, const Machine& machine,
                         const MachineDatabases& dbs,
                         const CodegenOptions& options,
                         const std::string& where) {
  Outcome out;
  std::optional<SplitNodeDag> built;
  try {
    built.emplace(SplitNodeDag::build(ir, machine, dbs, options));
  } catch (const Error&) {
    return out;  // the machine cannot implement the block
  }
  const SplitNodeDag& snd = *built;

  std::optional<std::pair<int, int>> best;
  auto tryAssignments = [&](const std::vector<Assignment>& candidates) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      AssignedGraph graph =
          AssignedGraph::materialize(snd, candidates[i], options);
      CoveringEngine engine(graph, dbs.transfers, dbs.constraints, options);
      CoverStats stats;
      Schedule schedule;
      try {
        schedule = engine.run(&stats);
      } catch (const Error&) {
        continue;
      }
      EXPECT_GE(schedule.numInstructions(), stats.lowerBound)
          << where << " candidate " << i;
      const std::pair<int, int> key{schedule.numInstructions(),
                                    stats.spillsInserted};
      if (best.has_value() && !(key < *best)) continue;
      best = key;
      out.ok = true;
      out.winner = i;
      out.schedule = schedule.instrs;
      out.spills = stats.spillsInserted;
      out.trajectory.emplace_back(i, key.first, key.second);
    }
  };
  const CodegenOptions exploreOptions = explorationOptions(snd, options);
  tryAssignments(AssignmentExplorer(snd, exploreOptions).explore());
  if (!best.has_value()) {
    out.widened = true;
    CodegenOptions wide = options;
    wide.assignPruneIncremental = false;
    wide.assignBeamWidth = 256;
    wide.assignKeepBest = 64;
    tryAssignments(AssignmentExplorer(snd, wide).explore());
  }
  return out;
}

// How much of the search a suite reached: candidates coverBlock cut, and
// blocks whose first pass was all register-infeasible. The latter take
// coverBlock's widened re-exploration and its one failure and deadline
// exit, so the suites that contain such blocks assert they still do.
struct Reach {
  size_t cut = 0;
  size_t widened = 0;
};

void expectSameOutcome(const BlockDag& ir, const Machine& machine,
                       const std::string& where, Reach& reach) {
  const MachineDatabases dbs(machine);
  const CodegenOptions options;
  const Outcome bounded = boundedOutcome(ir, machine, dbs, options);
  const Outcome unbounded = unboundedOutcome(ir, machine, dbs, options, where);
  EXPECT_EQ(bounded.ok, unbounded.ok) << where;
  EXPECT_EQ(bounded.winner, unbounded.winner) << where;
  EXPECT_EQ(bounded.schedule, unbounded.schedule) << where;
  EXPECT_EQ(bounded.spills, unbounded.spills) << where;
  EXPECT_EQ(bounded.trajectory, unbounded.trajectory) << where;
  reach.cut += bounded.cut;
  reach.widened += unbounded.widened ? 1 : 0;
}

std::vector<std::string> nonAsymMachines() {
  return {"arch1",    "arch2",           "arch3",       "arch4",
          "dsp16",    "zoo/buffered",    "zoo/constrained", "zoo/minimal",
          "zoo/tiny", "zoo/wide"};
}

TEST(CoverBound, ShippedBlocksMatchUnboundedSearch) {
  std::vector<std::string> machines = nonAsymMachines();
  machines.push_back("zoo/asym");
  Reach reach;
  for (const std::string& machineName : machines) {
    const Machine machine = loadMachine(machineName);
    for (const char* block : {"biquad", "dct4", "ex1", "ex2", "ex3", "ex4",
                              "ex5", "fig2", "fig6", "matvec2"})
      expectSameOutcome(loadBlock(block), machine,
                        std::string(block) + "/" + machineName, reach);
  }
  EXPECT_GT(reach.cut, 0u);
  EXPECT_GT(reach.widened, 0u);
}

// The paper's Ex6/Ex7 (Ex4/Ex5 with two registers per file) spill; the
// bound must stay valid across spills.
TEST(CoverBound, SpillingBlocksMatchUnboundedSearch) {
  Reach reach;
  for (int regs : {2, 3}) {
    const Machine machine = loadMachine("arch1").withRegisterCount(regs);
    for (const char* block : {"ex4", "ex5", "biquad", "dct4"})
      expectSameOutcome(loadBlock(block), machine,
                        std::string(block) + "/arch1 regs " +
                            std::to_string(regs),
                        reach);
  }
  EXPECT_GT(reach.cut, 0u);
  EXPECT_GT(reach.widened, 0u);
}

TEST(CoverBound, GeneratedBlocksMatchUnboundedSearch) {
  const std::vector<std::string> machines = nonAsymMachines();
  Reach reach;
  for (size_t m = 0; m < machines.size(); ++m) {
    const Machine machine = loadMachine(machines[m]);
    for (uint64_t k = 0; k < 20; ++k) {
      const BlockGenSpec spec{0xb0d5eedull + m * 1000 + k, 6, 16};
      expectSameOutcome(generateBlock(machine, spec), machine,
                        machines[m] + " seed " + std::to_string(spec.seed),
                        reach);
    }
  }
  EXPECT_GT(reach.cut, 0u);
}

}  // namespace
}  // namespace aviv
