// Exact minimum-code-size search — the stand-in for the paper's hand-coded
// optimal column (Table I/II "By Hand"; the paper states those counts are
// optimal). Enumerates every functional-unit assignment of the Split-Node
// DAG and, for each, runs a branch-and-bound search over all legal VLIW
// schedules (every legal subset of ready nodes per cycle) under the same
// register-pressure bound AVIV enforces. Admissible lower bounds (per-unit
// op counts, per-bus transfer counts, critical path) plus an incumbent from
// AVIV's own result keep the search tractable at paper-scale block sizes.
//
// Spill insertion is NOT explored (the paper notes the optimal solutions
// need none); when no spill-free schedule exists for any assignment, the
// result reports infeasibility.
#pragma once

#include <cstdint>

#include "core/options.h"
#include "core/splitnode.h"

namespace aviv {

struct OptimalOptions {
  double timeLimitSeconds = 120.0;
  // Prime the bound with a known-achievable count (e.g. AVIV's own result);
  // INT32_MAX means unprimed.
  int incumbent = INT32_MAX;
};

struct OptimalResult {
  int instructions = -1;  // best found; -1 if no spill-free schedule found
  bool proven = false;    // search completed within the limits
  size_t assignmentsSearched = 0;
  size_t statesVisited = 0;
  double seconds = 0.0;
};

[[nodiscard]] OptimalResult optimalCodeSize(const BlockDag& ir,
                                            const Machine& machine,
                                            const MachineDatabases& dbs,
                                            const OptimalOptions& options);

}  // namespace aviv
