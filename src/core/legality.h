// Section IV-C.3 — eliminating illegal instructions. The clique generator
// merges on pairwise parallelism only; a whole grouping can still be illegal
// on the target: it may violate an ISDL constraint (an explicitly illegal
// operation combination) or oversubscribe a multi-capacity bus (pairwise
// checks cannot count three transfers on a capacity-2 bus). Illegal cliques
// are split into smaller cliques until every proposed instruction is legal.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "core/assigned.h"
#include "isdl/databases.h"
#include "support/bitset.h"

namespace aviv {

// Reusable storage for enforceLegality's per-round masks and sort keys; a
// CoverWorkspace keeps one, so a warm workspace splits cliques without
// touching malloc.
struct LegalityScratch {
  // The transfers on each bus (masks[bus]), then per ISDL constraint the
  // operations of each selection it names followed by their union.
  std::vector<DynBitset> masks;
  struct BusCheck {
    int capacity;
    uint32_t mask;
  };
  struct ConstraintCheck {
    uint32_t firstSel;  // masks[firstSel, unionMask) are the selections
    uint32_t unionMask;
  };
  // Only what a clique of this graph could break: the buses carrying more
  // transfers than their capacity, and the constraints every selection of
  // which has an operation in the graph.
  std::vector<BusCheck> buses;
  std::vector<ConstraintCheck> constraints;
  std::vector<int> busUsers;
  // The legal pieces' (member count, index) sort keys.
  std::vector<std::pair<uint32_t, uint32_t>> order;
};

// What makes a group of nodes an illegal VLIW instruction, in the order
// verifySchedule reports it: the first member (in member order) whose unit
// an earlier member already uses, else the lowest-numbered bus carrying more
// transfers than its capacity, else a violated ISDL constraint.
struct InstrFault {
  enum class Kind : uint8_t { kNone, kUnit, kBus, kConstraint };
  Kind kind = Kind::kNone;
  UnitId unit = 0;  // kUnit: the unit used twice
  BusId bus = 0;    // kBus: the overloaded bus

  explicit operator bool() const { return kind != Kind::kNone; }
};

// Reused buffers of firstInstrFault.
struct InstrScratch {
  std::vector<uint8_t> unitUsed;  // per unit
  std::vector<int> busLoad;       // per bus
  std::vector<OpSel> sels;
};

// The one instruction-legality check: the first fault of `members`, with
// `extra` (unless kNoAg) appended, or no fault when the group is one legal
// instruction. Every rule is monotone: a group with a fault keeps one when a
// member is added. verifySchedule, the peephole pass and both baselines
// ask it; enforceLegality's per-round masks answer the bus and constraint
// part for a whole clique round at once.
[[nodiscard]] InstrFault firstInstrFault(const AssignedGraph& graph,
                                         const std::vector<AgId>& members,
                                         AgId extra,
                                         const ConstraintDatabase& constraints,
                                         InstrScratch& scratch);

// Splits every illegal clique into legal sub-cliques (dropping the specific
// node whose removal repairs the violation, recursively: the last member on
// the lowest-numbered overloaded bus, else the last member taking part in
// the first violated ISDL constraint), dedups, and removes cliques that are
// strict subsets of other cliques in the result. The result is sorted by
// member count (largest first), then lexLess; the covering engine's
// tie-breaks depend on that order. The input must be distinct and pairwise
// non-nested, as maximal cliques are: when no clique needs a split, the
// dedup and subset pass is skipped. `scratch`, when given, holds the
// per-call masks; otherwise a local one is used.
[[nodiscard]] std::vector<DynBitset> enforceLegality(
    std::vector<DynBitset> cliques, const AssignedGraph& graph,
    const ConstraintDatabase& constraints,
    LegalityScratch* scratch = nullptr);

}  // namespace aviv
