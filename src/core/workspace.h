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

#include "core/parallel_matrix.h"
#include "support/arena.h"
#include "support/bitset.h"

namespace aviv {

struct CoverWorkspace {
  // Per-candidate scratch arena. Everything allocated here lives inside an
  // ArenaScope opened at candidate entry; the graph's own payload pools are
  // deliberately NOT here (the winning candidate escapes the scope).
  Arena arena{1 << 16};

  // Covering engine per-round/per-clique scratch (see cover.cpp).
  DynBitset covered;
  DynBitset ready;
  DynBitset eligible;
  DynBitset members;
  DynBitset readyAfter;
  DynBitset liveOut;
  DynBitset active;
  // Round-invariant pressure baseline: which covered producers are live
  // with no clique selected, and the bank pressure they induce. The
  // per-clique probe adjusts this instead of rescanning the graph.
  DynBitset baseLive;
  DynBitset retireTouched;
  std::vector<int> basePressure;
  std::vector<uint32_t> retireList;
  // Distinct clique ∩ ready sets already probed this round (storage
  // reused across rounds; seenCount marks the live prefix).
  std::vector<DynBitset> seenEligible;
  std::vector<uint8_t> seenAbandoned;

  // Flat pool of member indices for surviving candidates within one round:
  // each candidate records (offset, count) into this vector instead of
  // owning a std::vector of node ids.
  std::vector<uint32_t> memberPool;

  // Spill-pressure and scheduling scratch.
  std::vector<int> pressure;
  std::vector<uint32_t> tryOrder;
  std::vector<int> unitLoad;  // remainingInstructionsBound scratch

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
