// Peephole optimization after detailed register allocation (paper Section
// IV-G): the liveness analysis used while inserting loads and spills is
// pessimistic, so some of them turn out unnecessary. This pass
//   (1) removes reloads whose spilled value is in fact still register-
//       resident in the destination bank (and spill stores left without any
//       reload), whenever doing so keeps every bank within its registers;
//   (2) compacts the schedule by hoisting operations into earlier empty
//       slots when dependencies, resources, constraints, and register
//       pressure allow;
//   (3) drops instructions that became empty.
// As the paper notes, this may or may not reduce the final instruction
// count. The graph and schedule are mutated; re-run allocateRegisters on
// the result.
#pragma once

#include "core/assigned.h"
#include "core/cover.h"
#include "isdl/databases.h"
#include "support/telemetry.h"

namespace aviv {

// What the pass did; recordPeepholeStats writes it into the "peephole"
// phase-telemetry node.
struct PeepholeStats {
  int reloadsRemoved = 0;
  int spillStoresRemoved = 0;
  int opsHoisted = 0;
  int instructionsSaved = 0;
};

void peepholeOptimize(AssignedGraph& graph, Schedule& schedule,
                      const ConstraintDatabase& constraints,
                      PeepholeStats* stats = nullptr);

// The pass's one telemetry writer (the pipeline session's phase tree).
void recordPeepholeStats(const PeepholeStats& stats, TelemetryNode& phase);

}  // namespace aviv
