// Spill insertion (paper Section IV-D / Fig 9), shared by the covering
// engine and the phase-ordered baseline scheduler: pick a victim value in
// the most-needed register bank, append a store chain to a spill slot,
// rewire every pending consumer onto its own reload chain, and delete
// transfer nodes the spill made redundant.
#pragma once

#include <map>
#include <set>

#include "core/assigned.h"
#include "isdl/databases.h"
#include "support/bitset.h"

namespace aviv {

// Per-bank count of live values given the covered set (a value is live when
// it is covered, occupies a register, and still has uncovered consumers or
// is a block output).
[[nodiscard]] std::vector<int> bankPressure(const AssignedGraph& graph,
                                            const DynBitset& covered,
                                            const DynBitset* extra = nullptr);

[[nodiscard]] bool pressureWithinLimits(const AssignedGraph& graph,
                                        const std::vector<int>& pressure);

// Book-keeping carried across spills of one covering run.
struct SpillState {
  std::set<AgId> spilled;        // victims already spilled once
  std::map<int, int> respills;   // per spill slot: reload evictions so far
};

// Performs one spill. `covered` must reflect the already-scheduled nodes,
// `pressureNow` is bankPressure(graph, covered) and `liveOut` the block
// outputs (AssignedGraph::liveOutInto). Two victim classes:
//   * an ordinary live value: a store chain is appended and pending
//     consumers are rewired onto fresh reload chains (Fig 9);
//   * a register-squatting reload (its value is already in memory): no
//     store is needed — pending consumers are simply rewired onto new
//     reloads of the same slot, freeing the register (bounded per slot to
//     guarantee termination).
// Returns the victim. Throws aviv::Error when no spillable value exists in
// the saturated bank (the assignment is register-infeasible). The mutated
// graph's acyclicity is left to the caller's next topological sort
// (AssignedGraph::orderAndLevelsInto checks it, as does verify()); every
// other verify() check runs here.
AgId performSpill(AssignedGraph& graph, const TransferDatabase& xferDb,
                  const DynBitset& covered, SpillState& state,
                  const std::vector<int>& pressureNow,
                  const DynBitset& liveOut);

}  // namespace aviv
