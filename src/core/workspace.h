// CoverWorkspace — per-worker scratch memory for the covering engine.
//
// One workspace is owned by each search worker (and cached on the
// CodegenContext between compiles, so a warm daemon re-covers blocks
// without touching malloc). It bundles:
//   * an Arena for per-candidate scratch (clique recursion buffers,
//     materialization maps) — rewound via ArenaScope after each candidate,
//     chunks retained;
//   * reusable DynBitsets and vectors for the covering engine's per-round
//     and per-clique sets, sized via clearAndResize so their heap storage
//     survives across candidates.
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

  // Graph-analysis scratch (descendants, topological order).
  std::vector<DynBitset> desc;
  std::vector<uint32_t> topoOrder;
  std::vector<uint32_t> topoPending;

  // Parallelism matrix reused across clique rounds and candidates (row
  // storage persists; rebuild() resizes in place).
  ParallelismMatrix matrix;
};

// Thread-safe pool of workspaces, cached on the CodegenContext so a warm
// daemon reuses the same scratch (arena chunks, bitset words) across
// compiles instead of re-allocating per request.
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
