// CoverWorkspace — per-worker scratch memory for the covering engine.
//
// One workspace is owned by each search worker for the length of one
// coverBlock call (see WorkspaceCache below for a longer-lived pool). It
// bundles:
//   * an Arena for per-candidate scratch (clique recursion buffers,
//     materialization maps) — rewound via ArenaScope after each candidate,
//     chunks retained;
//   * reusable DynBitsets and vectors for the covering engine's per-round
//     and per-clique sets, sized via clearAndResize. A DynBitset of up to
//     128 bits (every graph real blocks produce without spilling) holds its
//     words inline and never allocates; a larger one keeps its exact-size
//     heap buffer across candidates, so only a graph bigger than any seen
//     before by this workspace reallocates.
//
// Core headers that only need a CoverWorkspace* use a forward declaration
// (`struct CoverWorkspace;`) instead of this header, keeping include cycles
// out of assigned.h / parallel_matrix.h.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/legality.h"
#include "core/parallel_matrix.h"
#include "support/arena.h"
#include "support/bitset.h"

namespace aviv {

// What one scheduling step reads that depends on the covered set: the one
// model of "what is ready and what is live" behind the covering engine, the
// sequential baseline and the exact search (cover.h). computeStepState
// fills it from scratch; advanceStepState moves it across one emitted
// instruction, touching only the members, their successors and their
// predecessors.
struct CoverStepState {
  DynBitset ready;     // uncovered nodes whose predecessors are all covered
  DynBitset baseLive;  // covered register values still live: a block output,
                       // or a consumer left to cover
  std::vector<int> basePressure;        // per bank: baseLive members in it
  std::vector<uint32_t> pendingPreds;   // per node: uncovered predecessors
  std::vector<uint32_t> pendingSuccs;   // per node: uncovered successors
  std::vector<int> unitLoad;            // per unit: uncovered operations
  // Uncovered operations per chain key heights[id] + 1 + !ready(id), and
  // the highest non-empty key (0 when every operation is covered): the
  // covering bound is max(max unitLoad, topChain).
  std::vector<int> chainCount;
  int topChain = 0;

  bool operator==(const CoverStepState&) const = default;
};

// Reused buffers of probePressure (cover.h).
struct ProbeScratch {
  std::vector<int> pressure;  // the probed set's per-bank pressure
  // Covered producers already visited for the probed set: all clear
  // between probes.
  DynBitset retireTouched;
  std::vector<uint32_t> retireList;
};

// A clique ∩ ready set that fits the register banks, scored in one
// covering step: its members are memberPool[memberBegin, memberBegin +
// score), ascending.
struct CoverCandidate {
  size_t memberBegin;
  size_t score;
};

struct CoverWorkspace {
  // Per-candidate scratch arena. Everything allocated here lives inside an
  // ArenaScope opened at candidate entry; the graph's own payload pools are
  // deliberately NOT here (the winning candidate escapes the scope).
  Arena arena{1 << 16};

  // Covering engine scratch (see cover.cpp).
  DynBitset covered;
  DynBitset eligible;
  DynBitset members;
  DynBitset readyAfter;
  DynBitset liveOut;
  DynBitset active;
  CoverStepState step;
  CoverStepState stepCheck;  // DCHECK builds: `step` recomputed from scratch
  ProbeScratch probe;
  // Distinct clique ∩ ready sets already probed this step (storage
  // reused across steps; seenCount marks the live prefix).
  std::vector<DynBitset> seenEligible;
  std::vector<uint8_t> seenAbandoned;

  // One step's surviving candidates, the indices of those tied on the best
  // score, and the flat pool of their member ids.
  std::vector<CoverCandidate> candidates;
  std::vector<uint32_t> tied;
  std::vector<uint32_t> memberPool;
  // The step's cliques that touch the ready set (indices after the scan's
  // compaction) and each one's ready count, for the lookahead.
  std::vector<uint32_t> touching;
  std::vector<uint32_t> touchingReady;

  // The greedy fit's member order.
  std::vector<uint32_t> tryOrder;

  // Graph-analysis scratch: descendants, and the per-round topological
  // order and levels from the top (AssignedGraph::orderAndLevelsInto).
  std::vector<DynBitset> desc;
  std::vector<uint32_t> topoOrder;
  std::vector<uint32_t> topoPending;
  std::vector<int> levelTop;

  // ParallelismMatrix::rebuild scratch, all O(n) per set: the active
  // nodes, the operations on each unit and the transfers on each bus (the
  // masks a row subtracts), the levels from the bottom, and the
  // level-bucketed id lists (counting-sort offsets + ids) behind the
  // sliding level-window set. With `desc` and the matrix rows these are
  // the only per-graph sets: no n×n scratch beyond those two.
  DynBitset alive;
  std::vector<DynBitset> unitMask;
  std::vector<DynBitset> busMask;
  std::vector<int> levelBottom;
  std::vector<uint32_t> levelStart;
  std::vector<uint32_t> levelIds;
  DynBitset inWindow;

  // Parallelism matrix reused across clique rounds and candidates (row
  // storage persists; rebuild() resizes in place).
  ParallelismMatrix matrix;

  // enforceLegality's per-round masks and sort keys.
  LegalityScratch legality;
};

// Thread-safe pool of workspaces: a caller leases scratch (arena chunks,
// bitset words) here and returns it when done, so whoever owns the pool
// reuses that scratch across calls. coverBlock does not use one: it owns a
// workspace per worker for the call. CodegenContext::workspaces() holds a
// session-lifetime pool that only perfbench's replay leases from.
class WorkspaceCache {
 public:
  [[nodiscard]] std::unique_ptr<CoverWorkspace> acquire() {
    const std::lock_guard<std::mutex> lock(mu_);
    if (free_.empty()) return std::make_unique<CoverWorkspace>();
    std::unique_ptr<CoverWorkspace> ws = std::move(free_.back());
    free_.pop_back();
    return ws;
  }
  void release(std::unique_ptr<CoverWorkspace> ws) {
    if (ws == nullptr) return;
    const std::lock_guard<std::mutex> lock(mu_);
    free_.push_back(std::move(ws));
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<CoverWorkspace>> free_;
};

}  // namespace aviv
