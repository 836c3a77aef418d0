#include "regalloc/peephole.h"

#include <algorithm>
#include <cstdint>

#include "core/legality.h"
#include "support/error.h"

namespace aviv {

namespace {

void eraseFromInstr(std::vector<AgId>& instr, AgId id) {
  instr.erase(std::remove(instr.begin(), instr.end(), id), instr.end());
}

// Scratch reused by every trial of one peephole run.
struct PeepholeScratch {
  PressureScratch pressure;
  InstrScratch legality;
};

// Checks the per-bank liveness bound over the whole schedule, given as each
// node's instruction (the same bound the covering engine maintained).
bool pressureFeasible(const AssignedGraph& graph,
                      const std::vector<int>& cycles, int numInstructions,
                      PeepholeScratch& s) {
  return !firstPressureOverflow(graph, cycles,
                                static_cast<size_t>(numInstructions),
                                s.pressure);
}

// pressureFeasible after replaceReload(from, to), counted without editing
// the graph: `from` unscheduled and its reads moved to `to`.
bool replaceFeasible(const AssignedGraph& graph, std::vector<int>& cycles,
                     int numInstructions, AgId from, AgId to,
                     PeepholeScratch& s) {
  const int cycle = cycles[from];
  cycles[from] = -1;
  const bool feasible = !firstPressureOverflow(
      graph, cycles, static_cast<size_t>(numInstructions), s.pressure, from,
      to);
  cycles[from] = cycle;
  return feasible;
}

// Moves every consumer of `from` onto `to`, then drops `from` from the
// graph and the schedule.
void replaceReload(AssignedGraph& graph, Schedule& schedule,
                   std::vector<int>& cycles, AgId from, AgId to) {
  const auto consumers = graph.node(from).succs;
  for (AgId c : consumers) graph.retargetConsumer(c, from, to);
  eraseFromInstr(schedule.instrs[static_cast<size_t>(cycles[from])], from);
  cycles[from] = -1;
  graph.deleteNode(from);
}

}  // namespace

void peepholeOptimize(AssignedGraph& graph, Schedule& schedule,
                      const ConstraintDatabase& constraints,
                      PeepholeStats* stats) {
  PeepholeStats localStats;
  PeepholeStats& st = stats != nullptr ? *stats : localStats;
  st = PeepholeStats{};
  const int before = schedule.numInstructions();
  PeepholeScratch scratch;

  // Each node's instruction (-1 when unscheduled or deleted), kept in step
  // with the schedule by every pass below.
  std::vector<int> cycles = schedule.cycles(graph.size());

  // --- (1) redundant reloads: a trial counts the pressure with the
  // reload's reads moved to the spilled value and the reload unscheduled;
  // only a feasible rewire edits the graph. -------------------------------
  bool changed = true;
  while (changed) {
    changed = false;
    for (AgId id = 0; id < graph.size() && !changed; ++id) {
      const AgNode& n = graph.node(id);
      if (n.kind != AgKind::kSpillLoad || n.deleted()) continue;
      // Identify the spilled value behind this slot.
      AgId victim = kNoAg;
      for (AgId pred : n.preds) {
        const AgNode& p = graph.node(pred);
        if (p.kind == AgKind::kSpillStore && p.spillSlot == n.spillSlot) {
          AgId src = p.valueSrc;
          while (src != kNoAg && graph.node(src).isTransferish() &&
                 graph.node(src).spillSlot == p.spillSlot)
            src = graph.node(src).valueSrc;
          victim = src;
        }
      }
      if (victim == kNoAg) continue;
      if (!(graph.node(victim).defLoc == n.defLoc)) continue;
      if (n.succs.empty()) continue;

      if (!replaceFeasible(graph, cycles, schedule.numInstructions(), id,
                           victim, scratch))
        continue;
      replaceReload(graph, schedule, cycles, id, victim);
      st.reloadsRemoved += 1;
      changed = true;
    }
  }

  // --- (1b) dead transfer defs: evicted reloads (and any transfer whose
  // consumers were all rewired away) execute for nothing — drop them. -----
  changed = true;
  while (changed) {
    changed = false;
    DynBitset liveOut;
    graph.liveOutInto(liveOut);
    for (AgId id = 0; id < graph.size(); ++id) {
      const AgNode& n = graph.node(id);
      if (!n.isTransferish() || n.deleted()) continue;
      // Only register-defining transfers can be dead; memory-writing
      // transfers (output stores, spill stores) have no successors by
      // design.
      if (!n.definesRegister()) continue;
      if (!n.succs.empty() || liveOut.test(id)) continue;
      if (cycles[id] < 0) continue;
      eraseFromInstr(schedule.instrs[static_cast<size_t>(cycles[id])], id);
      cycles[id] = -1;
      graph.deleteNode(id);
      st.reloadsRemoved += 1;
      changed = true;
    }
  }

  // --- (1c) coalesce duplicate reloads: two scheduled reloads of the same
  // slot into the same bank can share the earlier one when extending its
  // live range keeps every bank within limits (simulated as in (1)). -----
  changed = true;
  while (changed) {
    changed = false;
    for (AgId first = 0; first < graph.size() && !changed; ++first) {
      const AgNode& a = graph.node(first);
      if (a.kind != AgKind::kSpillLoad || a.deleted()) continue;
      for (AgId second = 0; second < graph.size() && !changed; ++second) {
        if (second == first) continue;
        const AgNode& b = graph.node(second);
        if (b.kind != AgKind::kSpillLoad || b.deleted()) continue;
        if (b.spillSlot != a.spillSlot || !(b.defLoc == a.defLoc)) continue;
        if (cycles[first] < 0 || cycles[second] < 0) continue;
        if (cycles[first] >= cycles[second]) continue;
        if (b.succs.empty()) continue;
        // Every consumer of `second` must run after `first`.
        bool ordered = true;
        for (AgId c : b.succs) ordered &= cycles[c] > cycles[first];
        if (!ordered) continue;

        if (!replaceFeasible(graph, cycles, schedule.numInstructions(),
                             second, first, scratch))
          continue;
        replaceReload(graph, schedule, cycles, second, first);
        st.reloadsRemoved += 1;
        changed = true;
      }
    }
  }

  // Dead spill stores.
  for (AgId id = 0; id < graph.size(); ++id) {
    const AgNode& n = graph.node(id);
    if (n.kind != AgKind::kSpillStore || n.deleted()) continue;
    if (!n.succs.empty()) continue;
    AgId cur = id;
    const int slot = n.spillSlot;
    while (cur != kNoAg && graph.node(cur).isTransferish() &&
           graph.node(cur).spillSlot == slot &&
           graph.node(cur).succs.empty()) {
      const AgId src = graph.node(cur).valueSrc;
      if (cycles[cur] >= 0) {
        eraseFromInstr(schedule.instrs[static_cast<size_t>(cycles[cur])], cur);
        cycles[cur] = -1;
      }
      graph.deleteNode(cur);
      cur = src;
    }
    st.spillStoresRemoved += 1;
  }

  // --- (2) compaction: hoist nodes into earlier cycles. A trial moves the
  // node in `cycles` alone and counts the pressure there; a failed trial
  // restores its cycle, and only an accepted hoist edits the instruction
  // vectors. The pass restarts at cycle 1 after every hoist and tries the
  // targets from the earliest upward. -----------------------------------
  AVIV_DCHECK(cycles == schedule.cycles(graph.size()));
  changed = true;
  while (changed) {
    changed = false;
    for (int c = 1; c < schedule.numInstructions() && !changed; ++c) {
      std::vector<AgId>& from = schedule.instrs[static_cast<size_t>(c)];
      for (size_t k = 0; k < from.size() && !changed; ++k) {
        const AgId id = from[k];
        int earliest = 0;
        for (AgId pred : graph.node(id).preds)
          earliest = std::max(earliest, cycles[pred] + 1);
        for (int target = earliest; target < c; ++target) {
          std::vector<AgId>& to = schedule.instrs[static_cast<size_t>(target)];
          if (firstInstrFault(graph, to, id, constraints, scratch.legality))
            continue;
          cycles[id] = target;
          if (!pressureFeasible(graph, cycles, schedule.numInstructions(),
                                scratch)) {
            cycles[id] = c;
            continue;
          }
          from.erase(from.begin() + static_cast<std::ptrdiff_t>(k));
          to.push_back(id);
          std::sort(to.begin(), to.end());
          st.opsHoisted += 1;
          changed = true;
          break;
        }
      }
    }
  }

  // --- (3) drop empty instructions. --------------------------------------
  std::vector<std::vector<AgId>> packed;
  for (auto& instr : schedule.instrs)
    if (!instr.empty()) packed.push_back(std::move(instr));
  schedule.instrs = std::move(packed);

  st.instructionsSaved = before - schedule.numInstructions();
  verifySchedule(graph, schedule, constraints);
}

void recordPeepholeStats(const PeepholeStats& stats, TelemetryNode& phase) {
  phase.setCounter("reloadsRemoved", stats.reloadsRemoved);
  phase.setCounter("spillStoresRemoved", stats.spillStoresRemoved);
  phase.setCounter("opsHoisted", stats.opsHoisted);
  phase.setCounter("instructionsSaved", stats.instructionsSaved);
}

}  // namespace aviv
