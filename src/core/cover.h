// The covering engine (paper Sections IV-D and IV-E): selects a minimum-
// cost set of maximal cliques covering every node of an assignment, which
// simultaneously fixes the VLIW instruction grouping, the schedule (cliques
// are selected bottom-up, producers before consumers), and the register-bank
// allocation feasibility (a running liveness upper bound per bank; when all
// remaining selectable cliques would exceed a bank, a victim value is
// spilled: a store chain is appended, pending consumers are rewired onto
// reload chains, redundant transfers are deleted — Fig 9 — and the cliques
// are regenerated).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/assigned.h"
#include "core/options.h"
#include "core/workspace.h"
#include "isdl/databases.h"
#include "support/bitset.h"
#include "support/deadline.h"

namespace aviv {

// The covering solution: one inner vector per VLIW instruction, in schedule
// order; members are AgNode ids (ascending within an instruction).
struct Schedule {
  std::vector<std::vector<AgId>> instrs;

  [[nodiscard]] int numInstructions() const {
    return static_cast<int>(instrs.size());
  }
  // cycle[agId] = instruction index; -1 for unscheduled/deleted nodes.
  [[nodiscard]] std::vector<int> cycles(size_t graphSize) const;
};

struct CoverStats {
  size_t cliquesGenerated = 0;  // across all regeneration rounds
  size_t cliqueRounds = 0;
  size_t cliqueRecursions = 0;      // Bron-Kerbosch recursions in clique
                                    // generation, summed across rounds
  size_t candidatesEvaluated = 0;   // clique ∩ ready candidates scored
  size_t candidatesAbandoned = 0;   // candidates abandoned with no fitting
                                    // member subset (register pressure)
  int spillsInserted = 0;  // victim values spilled (Table I "#Spills")
  int lowerBound = 0;      // round-0 lower bound on the instruction count
};

// The (instructions, spills) cost of the best complete covering an earlier
// candidate reached — the key coverBlock's winner reduction orders by.
struct CoverCutoff {
  int instructions = 0;
  int spills = 0;
};

class CoveringEngine {
 public:
  // `graph` is mutated when spills are inserted. `xferDb` provides spill
  // store/load routes. When `deadline` is non-null it is polled once per
  // covering round; expiry throws DeadlineExceeded (the partially covered
  // schedule is unusable — callers keep an earlier complete candidate or
  // degrade to the baseline). When `ws` is given all per-round/per-clique
  // scratch (bitsets, pressure vectors, the parallelism matrix, the clique
  // recursion arena) lives in it, so a warm workspace covers a candidate
  // without touching malloc; otherwise a private workspace is created.
  CoveringEngine(AssignedGraph& graph, const TransferDatabase& xferDb,
                 const ConstraintDatabase& constraints,
                 const CodegenOptions& options,
                 const Deadline* deadline = nullptr,
                 CoverWorkspace* ws = nullptr);

  // Runs the covering; throws aviv::Error when the register files are too
  // small to hold the block's outputs / any feasible schedule.
  [[nodiscard]] Schedule run(CoverStats* stats = nullptr);

  // Same, but abandons the covering — returning nullopt, with the partial
  // work in `stats` — as soon as it provably cannot beat `cutoff`: checked
  // before every covering round, a candidate is cut once
  // (instructions emitted + a lower bound on those still to emit,
  // spills so far) >= cutoff. See remainingInstructionsBound in cover.cpp.
  // The final instruction count is at least that bound and spills only
  // grow, so a cut covering could at best have tied the cutoff.
  [[nodiscard]] std::optional<Schedule> run(CoverStats* stats,
                                            const CoverCutoff& cutoff);

 private:
  std::optional<Schedule> cover(CoverStats* stats, const CoverCutoff* cutoff);

  AssignedGraph& graph_;
  const TransferDatabase& xferDb_;
  const ConstraintDatabase& constraints_;
  const CodegenOptions& options_;
  const Deadline* deadline_;
  CoverWorkspace* ws_;
  std::unique_ptr<CoverWorkspace> ownedWs_;  // fallback when ws == nullptr
};

// Asserts (AVIV_REQUIRE — recoverable, so a daemon request that trips an
// invariant fails without killing the process) that `schedule` is a valid
// execution of `graph`: every active node exactly once, dependencies
// strictly earlier, unit/bus/constraint legality per instruction, and
// per-bank register pressure within the machine's register counts.
void verifySchedule(const AssignedGraph& graph, const Schedule& schedule,
                    const ConstraintDatabase& constraints);

}  // namespace aviv
