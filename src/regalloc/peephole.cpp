#include "regalloc/peephole.h"

#include <algorithm>
#include <map>
#include <set>

#include "regalloc/regalloc.h"
#include "support/error.h"

namespace aviv {

namespace {

// Checks the per-bank liveness bound over the whole schedule (same bound the
// covering engine maintained).
bool pressureFeasible(const AssignedGraph& graph, const Schedule& schedule) {
  const Machine& machine = graph.machine();
  const auto cycles = schedule.cycles(graph.size());
  const auto lastUse = computeLastUse(graph, cycles);
  DynBitset liveOut(graph.size());
  for (const auto& [name, def] : graph.outputDefs())
    if (def != kNoAg) liveOut.set(def);

  for (int c = 0; c < schedule.numInstructions(); ++c) {
    std::vector<int> pressure(machine.regFiles().size(), 0);
    for (AgId id = 0; id < graph.size(); ++id) {
      const AgNode& n = graph.node(id);
      if (!n.definesRegister() || cycles[id] < 0) continue;
      const bool born = cycles[id] <= c;
      const bool aliveLater = liveOut.test(id) || lastUse[id] > c;
      // A dead def (evicted reload) still occupies a register at its own
      // write instant.
      const bool deadDefHere =
          cycles[id] == c && lastUse[id] < 0 && !liveOut.test(id);
      if ((born && aliveLater) || deadDefHere)
        pressure[n.defLoc.index] += 1;
    }
    for (size_t bank = 0; bank < pressure.size(); ++bank)
      if (pressure[bank] >
          machine.regFile(static_cast<RegFileId>(bank)).numRegs)
        return false;
  }
  return true;
}

// Instruction-level legality of one cycle's members.
bool instrLegal(const AssignedGraph& graph, const std::vector<AgId>& instr,
                const ConstraintDatabase& constraints) {
  const Machine& machine = graph.machine();
  std::set<UnitId> units;
  std::map<BusId, int> busLoad;
  std::vector<OpSel> sels;
  for (AgId id : instr) {
    const AgNode& n = graph.node(id);
    if (n.kind == AgKind::kOp) {
      if (!units.insert(n.unit).second) return false;
      sels.push_back({n.unit, n.machineOp});
    } else if (n.isTransferish()) {
      if (++busLoad[graph.busOf(id)] > machine.bus(graph.busOf(id)).capacity)
        return false;
    }
  }
  return constraints.allows(sels);
}

void eraseFromInstr(std::vector<AgId>& instr, AgId id) {
  instr.erase(std::remove(instr.begin(), instr.end(), id), instr.end());
}

}  // namespace

void peepholeOptimize(AssignedGraph& graph, Schedule& schedule,
                      const ConstraintDatabase& constraints,
                      PeepholeStats* stats) {
  PeepholeStats localStats;
  PeepholeStats& st = stats != nullptr ? *stats : localStats;
  st = PeepholeStats{};
  const int before = schedule.numInstructions();

  // --- (1) redundant reloads: feasibility is checked by simulating the
  // rewire on a scratch copy first, then committing on the real graph. ----
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

      // Scratch-copy simulation.
      AssignedGraph scratch = graph.clone();
      Schedule scratchSched = schedule;
      const auto consumers = scratch.node(id).succs;
      for (AgId c : consumers) scratch.retargetConsumer(c, id, victim);
      const auto cycles = scratchSched.cycles(scratch.size());
      eraseFromInstr(scratchSched.instrs[static_cast<size_t>(cycles[id])], id);
      scratch.deleteNode(id);
      if (!pressureFeasible(scratch, scratchSched)) continue;

      graph = std::move(scratch);
      schedule = std::move(scratchSched);
      st.reloadsRemoved += 1;
      changed = true;
    }
  }

  // --- (1b) dead transfer defs: evicted reloads (and any transfer whose
  // consumers were all rewired away) execute for nothing — drop them. -----
  changed = true;
  while (changed) {
    changed = false;
    const auto cycles = schedule.cycles(graph.size());
    DynBitset liveOut(graph.size());
    for (const auto& [name, def] : graph.outputDefs())
      if (def != kNoAg) liveOut.set(def);
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
      graph.deleteNode(id);
      st.reloadsRemoved += 1;
      changed = true;
    }
  }

  // --- (1c) coalesce duplicate reloads: two scheduled reloads of the same
  // slot into the same bank can share the earlier one when extending its
  // live range keeps every bank within limits. ---------------------------
  changed = true;
  while (changed) {
    changed = false;
    const auto cycles = schedule.cycles(graph.size());
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

        AssignedGraph scratch = graph.clone();
        Schedule scratchSched = schedule;
        const auto consumers = scratch.node(second).succs;
        for (AgId c : consumers) scratch.retargetConsumer(c, second, first);
        eraseFromInstr(
            scratchSched.instrs[static_cast<size_t>(cycles[second])], second);
        scratch.deleteNode(second);
        if (!pressureFeasible(scratch, scratchSched)) continue;
        graph = std::move(scratch);
        schedule = std::move(scratchSched);
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
      const auto cycles = schedule.cycles(graph.size());
      if (cycles[cur] >= 0)
        eraseFromInstr(schedule.instrs[static_cast<size_t>(cycles[cur])], cur);
      graph.deleteNode(cur);
      cur = src;
    }
    st.spillStoresRemoved += 1;
  }

  // --- (2) compaction: hoist nodes into earlier cycles. ------------------
  changed = true;
  while (changed) {
    changed = false;
    auto cycles = schedule.cycles(graph.size());
    for (int c = 1; c < schedule.numInstructions() && !changed; ++c) {
      const std::vector<AgId> members = schedule.instrs[static_cast<size_t>(c)];
      for (AgId id : members) {
        int earliest = 0;
        for (AgId pred : graph.node(id).preds)
          earliest = std::max(earliest, cycles[pred] + 1);
        for (int target = earliest; target < c; ++target) {
          std::vector<AgId> candidate =
              schedule.instrs[static_cast<size_t>(target)];
          candidate.push_back(id);
          if (!instrLegal(graph, candidate, constraints)) continue;
          Schedule trial = schedule;
          eraseFromInstr(trial.instrs[static_cast<size_t>(c)], id);
          trial.instrs[static_cast<size_t>(target)].push_back(id);
          std::sort(trial.instrs[static_cast<size_t>(target)].begin(),
                    trial.instrs[static_cast<size_t>(target)].end());
          if (!pressureFeasible(graph, trial)) continue;
          schedule = std::move(trial);
          st.opsHoisted += 1;
          changed = true;
          break;
        }
        if (changed) break;
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
