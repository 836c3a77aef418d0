#include "regalloc/regalloc.h"

#include <algorithm>

#include "support/error.h"

namespace aviv {

std::vector<int> computeLastUse(const AssignedGraph& graph,
                                const std::vector<int>& cycles) {
  std::vector<int> lastUse(graph.size(), -1);
  for (AgId id = 0; id < graph.size(); ++id) {
    if (graph.node(id).deleted()) continue;
    for (AgId pred : graph.node(id).preds)
      lastUse[pred] = std::max(lastUse[pred], cycles[id]);
  }
  return lastUse;
}

RegAssignment allocateRegisters(const AssignedGraph& graph,
                                const Schedule& schedule) {
  const Machine& machine = graph.machine();
  const auto cycles = schedule.cycles(graph.size());
  const auto lastUse = computeLastUse(graph, cycles);

  // Scaled interval endpoints: write at 2c+1, read at 2c.
  const int endOfBlock = 2 * schedule.numInstructions() + 2;
  std::vector<int> beginT(graph.size(), 0);
  std::vector<int> endT(graph.size(), 0);
  std::vector<bool> isValue(graph.size(), false);

  DynBitset liveOut;
  graph.liveOutInto(liveOut);

  for (AgId id = 0; id < graph.size(); ++id) {
    const AgNode& n = graph.node(id);
    if (!n.definesRegister()) continue;
    AVIV_CHECK_MSG(cycles[id] >= 0, "unscheduled register def " << graph.describe(id));
    isValue[id] = true;
    beginT[id] = 2 * cycles[id] + 1;
    if (lastUse[id] < 0 && !liveOut.test(id)) {
      // A dead register def can only be an evicted reload (the covering
      // engine rewired its consumers onto fresh reloads after it was
      // already scheduled). It still needs a register at its write instant;
      // the point interval is covered by the covering-time pressure bound.
      AVIV_CHECK_MSG(n.isTransferish(),
                     "dead register def " << graph.describe(id));
      endT[id] = beginT[id] + 1;
    } else {
      endT[id] = liveOut.test(id) ? endOfBlock : 2 * lastUse[id];
    }
    AVIV_CHECK(endT[id] > beginT[id]);
  }

  RegAssignment out;
  out.regOf.assign(graph.size(), -1);
  out.regsUsedPerBank.assign(machine.regFiles().size(), 0);

  for (RegFileId bank = 0; bank < machine.regFiles().size(); ++bank) {
    std::vector<AgId> values;
    for (AgId id = 0; id < graph.size(); ++id)
      if (isValue[id] && graph.node(id).defLoc.index == bank)
        values.push_back(id);
    if (values.empty()) continue;

    const int k = machine.regFile(bank).numRegs;
    const size_t n = values.size();

    // Interference graph: overlapping live intervals.
    std::vector<std::vector<size_t>> adj(n);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        const AgId a = values[i];
        const AgId b = values[j];
        if (std::max(beginT[a], beginT[b]) < std::min(endT[a], endT[b])) {
          adj[i].push_back(j);
          adj[j].push_back(i);
        }
      }
    }

    // Chaitin: simplify (push nodes with degree < k), then select.
    std::vector<size_t> degree(n);
    std::vector<bool> removed(n, false);
    for (size_t i = 0; i < n; ++i) degree[i] = adj[i].size();
    std::vector<size_t> stack;
    for (size_t step = 0; step < n; ++step) {
      size_t pick = n;
      for (size_t i = 0; i < n; ++i) {
        if (!removed[i] && degree[i] < static_cast<size_t>(k)) {
          pick = i;
          break;
        }
      }
      AVIV_CHECK_MSG(pick != n,
                     "bank " << machine.regFile(bank).name
                             << ": interference graph not " << k
                             << "-colorable (covering bound violated)");
      removed[pick] = true;
      stack.push_back(pick);
      for (size_t nb : adj[pick])
        if (!removed[nb]) --degree[nb];
    }

    std::vector<int> color(n, -1);
    while (!stack.empty()) {
      const size_t i = stack.back();
      stack.pop_back();
      std::vector<bool> used(static_cast<size_t>(k), false);
      for (size_t nb : adj[i])
        if (color[nb] >= 0) used[static_cast<size_t>(color[nb])] = true;
      int chosen = -1;
      for (int r = 0; r < k; ++r) {
        if (!used[static_cast<size_t>(r)]) {
          chosen = r;
          break;
        }
      }
      AVIV_CHECK(chosen >= 0);
      color[i] = chosen;
      out.regsUsedPerBank[bank] =
          std::max(out.regsUsedPerBank[bank], chosen + 1);
    }
    for (size_t i = 0; i < n; ++i) out.regOf[values[i]] = color[i];
  }
  return out;
}

void recordRegAllocStats(const RegAssignment& regs, TelemetryNode& phase) {
  int64_t colored = 0;
  for (const int reg : regs.regOf) colored += reg >= 0;
  int banksUsed = 0;
  int maxRegsUsed = 0;
  for (const int used : regs.regsUsedPerBank) {
    banksUsed += used > 0;
    maxRegsUsed = std::max(maxRegsUsed, used);
  }
  phase.setCounter("valuesColored", colored);
  phase.setCounter("banksUsed", banksUsed);
  phase.setCounter("maxRegsUsed", maxRegsUsed);
}

}  // namespace aviv
