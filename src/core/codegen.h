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
#include "core/cover.h"
#include "core/options.h"
#include "core/splitnode.h"
#include "support/deadline.h"
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
  size_t cliqueRecursions = 0;     // Bron-Kerbosch recursions of every
                                   // candidate covering
  size_t candidatesEvaluated = 0;  // clique ∩ ready sets scored by every
                                   // candidate covering
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
// index where the in-order walk first sees it. The sequence is the
// deterministic prefix-minima over (instructions, spills) in candidate
// order, and its last point is the winner; only `seconds` (wall time since
// covering started) is run-dependent.
struct TrajectoryPoint {
  size_t candidate = 0;
  int instructions = 0;
  int spills = 0;
  double seconds = 0.0;
};

// What the core stage did for one block. recordCoreStats below writes it
// into the block's phase-telemetry subtree.
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
// When `pool` is non-null and options.jobs > 1, the candidates of a wave
// are covered in parallel. Candidates are covered in waves (0 alone, then
// ranges of 8) against the best covering of the earlier waves, and a
// candidate whose lower bound cannot beat it is cut (SearchStats::
// candidatesCut) — it could never have won. After each wave one walk in
// candidate order extends the prefix minimum of (instructions, spills),
// which is the trajectory, the next wave's cutoff and the winner, so the
// result is bit-identical to the serial run. When `phase` is non-null the
// stage timings and counters are recorded under it (children "splitnode",
// "explore", "cover" — see recordCoreStats for the counter names). With
// metrics on, the search totals are published to the registry once
// (search.* and alloc.arena.*, see docs/observability.md).
//
// Deadline semantics (anytime algorithm): `deadline` defaults to a local
// budget armed from options.timeLimitSeconds (the driver passes its session
// deadline instead). Once it expires, no further candidate assignments are
// started and the best complete covering found so far is returned with
// stats.timedOut set; if it expires before ANY candidate completes —
// including mid-exploration — DeadlineExceeded is thrown and the driver
// degrades to the sequential baseline. Every call allocates its own
// covering scratch, one CoverWorkspace per worker.
[[nodiscard]] CoreResult coverBlock(const BlockDag& ir, const Machine& machine,
                                    const MachineDatabases& dbs,
                                    const CodegenOptions& options,
                                    ThreadPool* pool = nullptr,
                                    TelemetryNode* phase = nullptr,
                                    const Deadline* deadline = nullptr);

// Rejects, with the error a client sees, a block the pipeline cannot
// take: an operation no output reaches (covering and allocation assume
// every value is consumed or live-out, which the front end's dead-code
// elimination guarantees; Section II), or a register file with fewer than
// two registers (too few for a binary operation's operands). coverBlock and
// the sequential baseline both call it.
void requireCompilableBlock(const BlockDag& ir, const Machine& machine);

// The options step 2 explores with: `options` itself, unless the block's
// whole assignment space (the product of its operations' alternative
// counts) is at most CodegenOptions::smallSpaceExhaustive — then the space
// is enumerated outright (heuristics-off exploration), since covering a few
// hundred assignments is cheaper than mispruning.
[[nodiscard]] CodegenOptions explorationOptions(const SplitNodeDag& snd,
                                                const CodegenOptions& options);

// The core stage's one telemetry writer: copies `stats` into the phase
// tree that --stats-json writes out.
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

}  // namespace aviv
