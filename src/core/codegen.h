// Core covering pipeline (paper Fig 5, "Overall Algorithm for Covering the
// Split-Node DAG"):
//
//   1. build the Split-Node DAG,
//   2. explore split-node functional-unit assignments and select several of
//      the lowest-cost ones,
//   3. for each selected assignment: insert required transfers, generate
//      maximal groupings, cover with a minimal-cost legal set (inserting
//      loads/spills as register limits demand),
//   4. the assignment whose covering needed the fewest instructions wins.
//
// Detailed register allocation and peephole optimization (Sections IV-F/G)
// run afterwards — see regalloc/ and the driver.
#pragma once

#include "core/assign_explore.h"
#include "core/assigned.h"
#include "core/context.h"
#include "core/cover.h"
#include "core/options.h"
#include "core/splitnode.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

namespace aviv {

// Order-independent totals over the whole covering search — exploration plus
// every candidate covering, successful or register-infeasible. Summed per
// candidate, so jobs=1 and jobs=N produce identical values (the determinism
// invariant the service cache tests pin down).
struct SearchStats {
  size_t nodesVisited = 0;         // explore states expanded + clique
                                   // recursions
  size_t prunedByBound = 0;        // explore bound rejections + candidates
                                   // cut by the covering bound
  size_t backtracks = 0;           // beam drops + spill-forced regenerations
                                   // + register-infeasible candidates
  size_t candidatesAbandoned = 0;  // covering candidates with no fitting
                                   // member subset
  size_t candidatesCut = 0;        // candidate assignments abandoned because
                                   // their lower bound could not beat an
                                   // earlier wave's covering
  // Workspace-arena accounting over all candidate coverings. Chunk-boundary
  // waste is never charged (see support/arena.h), so calls/bytes are exact
  // per-candidate sums and highWater is a max of per-candidate peaks —
  // all three are jobs-invariant.
  uint64_t arenaCalls = 0;      // arena allocations across candidates
  uint64_t arenaBytes = 0;      // raw bytes requested across candidates
  uint64_t arenaHighWater = 0;  // max per-candidate arena peak (bytes)
};

// One improvement of the best complete covering, recorded at the candidate
// index where the serial reduction first sees it. The sequence is the
// deterministic prefix-minima over (instructions, spills, candidate index);
// only `seconds` (wall time since covering started) is run-dependent.
struct TrajectoryPoint {
  size_t candidate = 0;
  int instructions = 0;
  int spills = 0;
  double seconds = 0.0;
};

// Typed view over a block's phase-telemetry subtree (the session's single
// source of stage statistics) — see recordCoreStats / coreStatsView below.
struct CoreStats {
  size_t irNodes = 0;
  size_t sndNodes = 0;  // Split-Node DAG size (Table I column)
  ExploreStats explore;
  size_t assignmentsCovered = 0;  // assignments taken through full covering
  CoverStats cover;               // of the winning assignment
  SearchStats search;             // totals across ALL candidates
  std::vector<TrajectoryPoint> trajectory;  // best-cost-over-time
  bool timedOut = false;
  double seconds = 0.0;
};

struct CoreResult {
  Assignment assignment;
  AssignedGraph graph;  // winning assignment, spills applied
  Schedule schedule;
  CoreStats stats;
};

// Runs steps 1-4 above. Lifetimes: `ir`, `machine` and `dbs` must outlive
// the returned result (the graph references them).
//
// When `pool` is non-null and options.jobs > 1, the selected assignments are
// covered in parallel; the winner is reduced with a deterministic
// (instructions, spills, candidate index) tie-break so the result is
// bit-identical to the serial run. Candidates are covered in waves (0 alone,
// then ranges of 8) against the best covering of the earlier waves, and a
// candidate whose lower bound cannot beat it is cut (SearchStats::
// candidatesCut) — it could never have won. When `phase` is non-null the stage
// timings and counters are recorded under it (children "splitnode",
// "explore", "cover" — see recordCoreStats for the counter names).
//
// Deadline semantics (anytime algorithm): `deadline` defaults to a local
// budget armed from options.timeLimitSeconds (the context overloads pass
// the session deadline instead). Once it expires, no further candidate
// assignments are started and the best complete covering found so far is
// returned with stats.timedOut set; if it expires before ANY candidate
// completes — including mid-exploration — DeadlineExceeded is thrown and
// the driver degrades to the sequential baseline.
// `wsCache` (optional) supplies per-worker CoverWorkspaces; the context
// overloads pass the session cache so scratch survives across compiles.
[[nodiscard]] CoreResult coverBlock(const BlockDag& ir, const Machine& machine,
                                    const MachineDatabases& dbs,
                                    const CodegenOptions& options,
                                    ThreadPool* pool = nullptr,
                                    TelemetryNode* phase = nullptr,
                                    const Deadline* deadline = nullptr,
                                    WorkspaceCache* wsCache = nullptr);

// Session form: machine, databases, pool, and telemetry all come from `ctx`.
// Stage telemetry lands under ctx.telemetry().child("block:<name>") unless
// `phase` overrides the destination (the driver passes pre-created per-block
// subtrees so parallel block compiles never share a node).
[[nodiscard]] CoreResult coverBlock(const BlockDag& ir, CodegenContext& ctx,
                                    TelemetryNode* phase = nullptr);
[[nodiscard]] CoreResult coverBlock(const BlockDag& ir, CodegenContext& ctx,
                                    const CodegenOptions& options,
                                    TelemetryNode* phase = nullptr);

// Typed view plumbing: the telemetry tree is the session's single source of
// stage statistics; these convert between it and the stage-level structs.
// Layout under a block's phase node:
//   counters irNodes, sndNodes
//   child "explore": completeAssignments, statesExpanded, prunedByBound,
//                    beamDropped, capped
//   child "cover": assignmentsCovered, candidates, jobs, cliquesGenerated,
//                  cliqueRounds, cliqueRecursions, candidatesEvaluated,
//                  candidatesAbandoned, spillsInserted, timedOut
//     children "best:<k>": the best-cost trajectory, counters candidate,
//                          instructions, spills (seconds = wall time, which
//                          sameShapeAs ignores)
//   child "search": nodesVisited, prunedByBound, backtracks,
//                   candidatesAbandoned, candidatesCut, arenaCalls,
//                   arenaBytes, arenaHighWater (order-independent totals)
void recordCoreStats(const CoreStats& stats, TelemetryNode& phase);
[[nodiscard]] CoreStats coreStatsView(const TelemetryNode& phase);

}  // namespace aviv
