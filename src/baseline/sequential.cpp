#include "baseline/sequential.h"

#include <algorithm>

#include "core/codegen.h"
#include "core/legality.h"
#include "core/spill.h"
#include "core/workspace.h"
#include "support/error.h"

namespace aviv {

namespace {

// Phase 1: local, transfer-blind unit selection with load balancing.
Assignment selectUnitsLocally(const SplitNodeDag& snd) {
  const BlockDag& ir = snd.ir();
  const Machine& machine = snd.machine();
  Assignment assignment;
  assignment.chosenAlt.assign(ir.size(), kNoSnd);

  std::vector<int> unitLoad(machine.units().size(), 0);
  std::vector<bool> covered(ir.size(), false);
  for (NodeId id = 0; id < ir.size(); ++id) {
    if (isLeafOp(ir.node(id).op) || covered[id]) continue;
    const auto& alts = snd.altsOf(id);
    SndId best = kNoSnd;
    // Prefer complex alternatives (they cover more IR nodes), then the
    // least-loaded unit; ties by lowest alternative id.
    auto key = [&](SndId alt) {
      const SndNode& a = snd.node(alt);
      return std::make_tuple(-static_cast<int>(a.covers.size()),
                             unitLoad[a.unit], alt);
    };
    for (SndId alt : alts) {
      if (best == kNoSnd || key(alt) < key(best)) best = alt;
    }
    AVIV_REQUIRE(best != kNoSnd);
    assignment.chosenAlt[id] = best;
    unitLoad[snd.node(best).unit] += 1;
    for (size_t c = 1; c < snd.node(best).covers.size(); ++c)
      covered[snd.node(best).covers[c]] = true;
  }
  // A complex alternative may have fused an interior node that was visited
  // (and assigned) earlier in id order; drop the now-duplicate standalone
  // implementation.
  for (NodeId id = 0; id < ir.size(); ++id)
    if (covered[id]) assignment.chosenAlt[id] = kNoSnd;
  return assignment;
}

}  // namespace

BaselineResult sequentialCodegen(const BlockDag& ir, const Machine& machine,
                                 const MachineDatabases& dbs,
                                 const CodegenOptions& options) {
  requireCompilableBlock(ir, machine);
  const SplitNodeDag snd = SplitNodeDag::build(ir, machine, dbs, options);
  Assignment assignment = selectUnitsLocally(snd);
  AssignedGraph graph = AssignedGraph::materialize(snd, assignment, options);

  // Phase 2/3: list scheduling with spills, on the covering engine's step
  // state (what is ready, what is live) and instruction check.
  Schedule schedule;
  CoverWorkspace ws;
  DynBitset& covered = ws.covered;
  DynBitset& liveOut = ws.liveOut;
  CoverStepState& step = ws.step;
  const std::vector<int>& heights = ws.levelTop;
  covered.clearAndResize(graph.size());
  graph.liveOutInto(liveOut);
  auto resync = [&] {
    for (AgId id = 0; id < graph.size(); ++id)
      if (graph.node(id).deleted()) covered.set(id);
    graph.orderAndLevelsInto(ws);
    computeStepState(graph, covered, liveOut, heights, step);
  };
  resync();
  SpillState spillState;
  int spills = 0;
  const size_t spillGuard = 4 * graph.size() + 64;
  InstrScratch legality;
  std::vector<AgId> ready;

  while (covered.count() < graph.size()) {
    // Ready nodes by critical-path priority.
    ready.clear();
    step.ready.forEach(
        [&](size_t i) { ready.push_back(static_cast<AgId>(i)); });
    AVIV_REQUIRE_MSG(!ready.empty(), "baseline scheduling deadlock");
    std::stable_sort(ready.begin(), ready.end(), [&](AgId a, AgId b) {
      return heights[a] > heights[b];
    });

    // Greedy slot filling: a ready node joins when the instruction stays
    // legal and every bank still fits.
    std::vector<AgId> instr;
    DynBitset& members = ws.members;
    members.clearAndResize(graph.size());
    for (AgId id : ready) {
      if (firstInstrFault(graph, instr, id, dbs.constraints, legality))
        continue;
      members.set(id);
      if (!probePressure(graph, step, covered, liveOut, members, ws.probe)) {
        members.reset(id);
        continue;
      }
      instr.insert(std::upper_bound(instr.begin(), instr.end(), id), id);
    }

    if (instr.empty()) {
      if (spills >= static_cast<int>(spillGuard))
        throw Error("block '" + ir.name() + "' on machine '" +
                    machine.name() +
                    "': baseline assignment cannot satisfy register limits");
      performSpill(graph, dbs.transfers, covered, spillState,
                   step.basePressure, liveOut);
      spills += 1;
      covered.resize(graph.size(), false);
      liveOut.resize(graph.size(), false);
      resync();
      continue;
    }
    covered |= members;
    advanceStepState(graph, Span<const uint32_t>(instr.data(), instr.size()),
                     covered, liveOut, heights, step);
    schedule.instrs.push_back(std::move(instr));
  }

  verifySchedule(graph, schedule, dbs.constraints);
  // The graph's covers/operandIr spans alias `snd`, which dies with this
  // frame; re-home them before the result escapes.
  graph.detachPayloads();
  return {std::move(assignment), std::move(graph), std::move(schedule),
          spills};
}

}  // namespace aviv
