// Reproduces paper Figure 9: inserting loads and spills into the Split-Node
// DAG. Runs the covering engine on a register-starved configuration and
// shows (a) the victim selection, (b) the inserted spill-store and reload
// chains, (c) the transfer nodes deleted because consumers now reload from
// memory, and (d) the final schedule with the spill code placed.
#include <cstdio>

#include "bench_common.h"
#include "core/spill.h"

namespace {

// Part 1: the paper's exact Figure 9 moment, staged deterministically.
// The Figure 2 block's ADD runs on U3, its value still pending a transfer
// to the SUB on U2; spilling the ADD appends the store (S), deletes the
// pending transfer, and rewires the SUB onto a reload (L).
void reenactFig9() {
  using namespace aviv;
  const BlockDag dag = loadBlock("fig2");
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);

  Assignment assignment;
  assignment.chosenAlt.assign(dag.size(), kNoSnd);
  auto pick = [&](Op op, const char* unitName) {
    for (NodeId id = 0; id < dag.size(); ++id) {
      if (dag.node(id).op != op) continue;
      for (SndId alt : snd.altsOf(id))
        if (machine.unit(snd.node(alt).unit).name == unitName)
          assignment.chosenAlt[id] = alt;
    }
  };
  pick(Op::kAdd, "U3");
  pick(Op::kMul, "U2");
  pick(Op::kSub, "U2");
  AssignedGraph graph = AssignedGraph::materialize(snd, assignment, options);

  AgId add = kNoAg;
  for (AgId id = 0; id < graph.size(); ++id)
    if (graph.node(id).kind == AgKind::kOp &&
        graph.node(id).machineOp == Op::kAdd)
      add = id;
  DynBitset covered(graph.size());
  covered.set(add);
  for (AgId pred : graph.node(add).preds) covered.set(pred);

  std::printf("Part 1 — the Figure 9 transformation itself\n");
  std::printf("(block fig2; ADD covered on U3; its transfer to the SUB on "
              "U2 still pending)\n\nBefore the spill:\n");
  for (AgId id = 0; id < graph.size(); ++id)
    if (!graph.node(id).deleted())
      std::printf("  %s%s\n", graph.describe(id).c_str(),
                  covered.test(id) ? "   [covered]" : "");

  SpillState spillState;
  DynBitset liveOut;
  graph.liveOutInto(liveOut);
  const AgId victim = performSpill(graph, dbs.transfers, covered, spillState,
                                   bankPressure(graph, covered), liveOut);
  graph.verify();
  std::printf("\nSpilled node: %s\n", graph.describe(victim).c_str());
  std::printf("After the spill (S = store, L = reload; the pending "
              "RF3->RF2 transfer is deleted, as in Fig 9b):\n");
  for (AgId id = 0; id < graph.size(); ++id) {
    const AgNode& n = graph.node(id);
    if (n.kind == AgKind::kDeleted)
      std::printf("  a%u:<deleted transfer>\n", id);
    else
      std::printf("  %s\n", graph.describe(id).c_str());
  }
  std::printf("\n");
}

}  // namespace

int main() {
  using namespace aviv;
  try {
    reenactFig9();

    std::printf("Part 2 — spills during real covering\n");
    const BlockDag dag = loadBlock("ex4");
    const Machine machine = loadMachine("arch1").withRegisterCount(2);
    const MachineDatabases dbs(machine);

    const CoreResult result = coverBlock(dag, machine, dbs, CodegenOptions{});

    std::printf("Figure 9 — load/spill insertion (block ex4 on arch1 with "
                "2 registers per file)\n\n");
    std::printf("Spills inserted: %d\n", result.stats.cover.spillsInserted);

    std::printf("\nSpill code in the final assigned graph:\n");
    int deleted = 0;
    for (AgId id = 0; id < result.graph.size(); ++id) {
      const AgNode& n = result.graph.node(id);
      if (n.kind == AgKind::kDeleted) {
        ++deleted;
        continue;
      }
      if (n.kind == AgKind::kSpillStore) {
        std::printf("  S: %s (slot %d) — spills value of %s\n",
                    result.graph.describe(id).c_str(), n.spillSlot,
                    n.valueSrc != kNoAg
                        ? result.graph.describe(n.valueSrc).c_str()
                        : "?");
      }
      if (n.kind == AgKind::kSpillLoad) {
        std::printf("  L: %s (slot %d) — feeds", result.graph.describe(id).c_str(),
                    n.spillSlot);
        for (AgId succ : n.succs)
          std::printf(" %s", result.graph.describe(succ).c_str());
        std::printf("\n");
      }
    }
    std::printf("Transfer nodes deleted as no longer required "
                "(the paper's removed '+ to -' transfer): %d\n",
                deleted);

    std::printf("\nFinal schedule (%d instructions):\n",
                result.schedule.numInstructions());
    for (size_t c = 0; c < result.schedule.instrs.size(); ++c) {
      std::printf("  i%zu:", c);
      for (AgId id : result.schedule.instrs[c])
        std::printf("  %s", result.graph.describe(id).c_str());
      std::printf("\n");
    }

    // Contrast: the 4-register run needs no spill code at all.
    const Machine machine4 = loadMachine("arch1");
    const MachineDatabases dbs4(machine4);
    const CoreResult result4 =
        coverBlock(dag, machine4, dbs4, CodegenOptions{});
    std::printf("\nSame block with 4 registers per file: %d instructions, "
                "%d spills.\n",
                result4.schedule.numInstructions(),
                result4.stats.cover.spillsInserted);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig9_spills: %s\n", e.what());
    return 1;
  }
}
