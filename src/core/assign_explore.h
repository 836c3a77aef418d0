// Split-node functional-unit assignment exploration (paper Section IV-A).
//
// Split nodes are visited in order of increasing level from the top of the
// Split-Node DAG (so every consumer is assigned before its producers). For
// each partial assignment and each alternative of the current split node an
// *incremental cost* is computed from the two factors the paper names:
// required data transfers (to already-assigned consumers, and loads of
// named-variable operands from data memory) and foregone parallelism
// (independent operations forced onto the same unit). With the pruning
// heuristic on, only minimum-incremental-cost alternatives are kept (Fig 6);
// with it off the enumeration is exhaustive. A branch-and-bound beam bounds
// the frontier, and the lowest-cost complete assignments are returned for
// detailed covering.
#pragma once

#include <cstdint>
#include <vector>

#include "core/options.h"
#include "core/splitnode.h"
#include "support/arena.h"
#include "support/deadline.h"

namespace aviv {

// A complete functional-unit assignment: one chosen alternative per IR op
// node (kNoSnd for leaves and for nodes fused into another node's complex
// alternative).
struct Assignment {
  std::vector<SndId> chosenAlt;
  double cost = 0.0;

  // The alternative that computes the *value* of `irNode`: its own chosen
  // alt, or the complex alternative covering it. kNoSnd for leaves.
  [[nodiscard]] SndId producerAltOf(NodeId irNode,
                                    const SplitNodeDag& snd) const;
};

struct ExploreStats {
  size_t completeAssignments = 0;  // states alive at the end (pre keep-best)
  size_t statesExpanded = 0;       // state * alternative evaluations
  size_t prunedByBound = 0;        // alternatives rejected by the Fig 6
                                   // incremental-cost bound
  size_t beamDropped = 0;          // states discarded by beam truncation
  bool capped = false;             // hit maxAssignments / beam truncation
};

// One evaluated (partial state, alternative) pair; used by the Fig 6
// reproduction to print the pruning trace.
struct ExploreTraceEntry {
  int stateIdx = 0;
  NodeId ir = kNoNode;
  SndId alt = kNoSnd;
  double incrementalCost = 0.0;
  bool kept = false;
};

class AssignmentExplorer {
 public:
  // When `deadline` is non-null it is polled between node expansions and
  // every few hundred state evaluations; expiry throws DeadlineExceeded
  // (no partial assignment is usable — the driver degrades to the
  // sequential baseline instead).
  //
  // When `scratch` is non-null the per-state payloads (chosen-alternative
  // and fused-cover arrays) live there instead of in a local arena; explore()
  // rewinds whichever arena it used before returning, so a warm workspace
  // arena explores the next block without touching malloc.
  AssignmentExplorer(const SplitNodeDag& snd, const CodegenOptions& options,
                     const Deadline* deadline = nullptr,
                     Arena* scratch = nullptr);

  // Returns the selected assignments, lowest cost first (at most
  // options.assignKeepBest). Never empty for a buildable Split-Node DAG.
  [[nodiscard]] std::vector<Assignment> explore(
      ExploreStats* stats = nullptr,
      std::vector<ExploreTraceEntry>* trace = nullptr) const;

 private:
  const SplitNodeDag& snd_;
  const CodegenOptions options_;  // a copy: callers may pass a temporary
  const Deadline* deadline_;
  Arena* scratch_;
};

}  // namespace aviv
