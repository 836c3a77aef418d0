#include "core/spill.h"

#include <cstdint>

#include "support/error.h"

namespace aviv {

namespace {

inline constexpr int kMaxRespillsPerSlot = 4;

DynBitset liveOutSetOf(const AssignedGraph& graph) {
  DynBitset liveOut;
  graph.liveOutInto(liveOut);
  return liveOut;
}

int remainingConsumers(const AssignedGraph& graph, AgId v,
                       const DynBitset& covered, const DynBitset* extra) {
  int remaining = 0;
  for (AgId succ : graph.node(v).succs) {
    const bool isCovered =
        covered.test(succ) || (extra != nullptr && extra->test(succ));
    remaining += isCovered ? 0 : 1;
  }
  return remaining;
}

}  // namespace

std::vector<int> bankPressure(const AssignedGraph& graph,
                              const DynBitset& covered,
                              const DynBitset* extra) {
  const DynBitset liveOut = liveOutSetOf(graph);
  std::vector<int> pressure(graph.machine().regFiles().size(), 0);
  for (AgId v = 0; v < graph.size(); ++v) {
    const AgNode& n = graph.node(v);
    if (!n.definesRegister()) continue;
    const bool isCovered =
        covered.test(v) || (extra != nullptr && extra->test(v));
    if (!isCovered) continue;
    const bool live = liveOut.test(v) ||
                      remainingConsumers(graph, v, covered, extra) > 0;
    if (live) pressure[n.defLoc.index] += 1;
  }
  return pressure;
}

bool pressureWithinLimits(const AssignedGraph& graph,
                          const std::vector<int>& pressure) {
  for (size_t bank = 0; bank < pressure.size(); ++bank)
    if (pressure[bank] >
        graph.machine().regFile(static_cast<RegFileId>(bank)).numRegs)
      return false;
  return true;
}

AgId performSpill(AssignedGraph& graph, const TransferDatabase& xferDb,
                  const DynBitset& covered, SpillState& state,
                  const std::vector<int>& pressureNow,
                  const DynBitset& liveOut) {
  AVIV_DCHECK(pressureNow == bankPressure(graph, covered));
  AVIV_DCHECK(liveOut == liveOutSetOf(graph));
  const Machine& machine = graph.machine();

  // Most-needed resource: the bank with the least slack right now.
  RegFileId worstBank = kNoId16;
  int worstSlack = INT32_MAX;
  for (size_t bank = 0; bank < pressureNow.size(); ++bank) {
    const int slack =
        machine.regFile(static_cast<RegFileId>(bank)).numRegs -
        pressureNow[bank];
    if (slack < worstSlack) {
      worstSlack = slack;
      worstBank = static_cast<RegFileId>(bank);
    }
  }
  AVIV_CHECK(worstBank != kNoId16);

  // Victim: live value in that bank with the fewest pending reloads.
  AgId victim = kNoAg;
  int victimConsumers = INT32_MAX;
  for (AgId v = 0; v < graph.size(); ++v) {
    const AgNode& n = graph.node(v);
    if (!n.definesRegister() || !covered.test(v)) continue;
    if (n.defLoc.index != worstBank) continue;
    if (liveOut.test(v)) continue;  // outputs must stay resident
    if (state.spilled.count(v)) continue;
    // A reload can be evicted (its value is already in memory), but only a
    // bounded number of times per slot, or eviction churn never ends.
    if (n.kind == AgKind::kSpillLoad &&
        state.respills[n.spillSlot] >= kMaxRespillsPerSlot)
      continue;
    const int remaining = remainingConsumers(graph, v, covered, nullptr);
    if (remaining <= 0) continue;
    if (remaining < victimConsumers ||
        (remaining == victimConsumers && v < victim)) {
      victimConsumers = remaining;
      victim = v;
    }
  }
  if (victim == kNoAg)
    throw Error("block '" + graph.ir().name() + "' on machine '" +
                machine.name() +
                "': register files too small — no spillable value in bank " +
                machine.regFile(worstBank).name);

  // Fig 9: store the victim, rewire pending consumers to reloads, delete
  // now-redundant transfer chains.
  std::vector<AgId> pendingConsumers;
  for (AgId succ : graph.node(victim).succs)
    if (!covered.test(succ)) pendingConsumers.push_back(succ);
  AVIV_CHECK(!pendingConsumers.empty());

  int slot = -1;
  AgId afterStore = kNoAg;
  if (graph.node(victim).kind == AgKind::kSpillLoad) {
    // Evicting a reload: its value is already in its spill slot; rewire
    // pending consumers onto fresh reloads of the same slot — no store.
    slot = graph.node(victim).spillSlot;
    state.respills[slot] += 1;
    AVIV_CHECK(!graph.node(victim).preds.empty());
    afterStore = graph.node(victim).preds.front();
  } else {
    const auto store = graph.addSpillStore(victim, xferDb);
    state.spilled.insert(victim);
    slot = store.slot;
    afterStore = store.chain.back();
  }
  const NodeId valueIr = graph.node(victim).ir;

  // One reload chain per consumer ("load nodes before each remaining
  // consumer"): a private reload dies at its consumer, so the spill
  // genuinely relieves the bank.
  auto reloadInto = [&](Loc bank) -> AgId {
    return graph.addSpillLoad(slot, bank, afterStore, valueIr, xferDb)
        .back();
  };
  auto fixConsumer = [&](auto&& self, AgId consumer, AgId def) -> void {
    const AgNode& c = graph.node(consumer);
    if (c.kind == AgKind::kOp) {
      graph.retargetConsumer(consumer, def, reloadInto(c.defLoc));
      return;
    }
    AVIV_CHECK(c.isTransferish());
    const SmallVec<AgId, 4> downstream = c.succs;  // snapshot
    for (AgId d : downstream) {
      AVIV_CHECK(!covered.test(d));
      self(self, d, consumer);
    }
    graph.deleteNode(consumer);
  };
  for (AgId consumer : pendingConsumers)
    fixConsumer(fixConsumer, consumer, victim);
  graph.verifyNodes();
  return victim;
}

}  // namespace aviv
