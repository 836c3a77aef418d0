// Reproduces paper Figure 7 (the pairwise-parallelism matrix for a proposed
// assignment consisting of nodes N2, N9, N10, N14) and Figure 8's maximal
// clique generation on it.
//
// The proposed assignment over the Figure 2 block is: ADD on U3 (N14), MUL
// on U2 (N10), SUB on U2 (N2), plus the data transfer moving ADD's result
// from U3's register file to U2 for the SUB (N9). Expected cliques, as in
// the paper: (C1: N2), (C2: N10, N9), (C3: N10, N14).
#include <cstdio>

#include "bench_common.h"
#include "core/clique.h"
#include "core/parallel_matrix.h"

int main() {
  using namespace aviv;
  try {
    const BlockDag dag = loadBlock("fig2");
    const Machine machine = loadMachine("arch1");
    const MachineDatabases dbs(machine);
    const CodegenOptions options;
    const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);

    // Force the paper's proposed assignment: ADD@U3, MUL@U2, SUB@U2.
    Assignment assignment;
    assignment.chosenAlt.assign(dag.size(), kNoSnd);
    auto pick = [&](Op op, const char* unitName) {
      for (NodeId id = 0; id < dag.size(); ++id) {
        if (dag.node(id).op != op) continue;
        for (SndId alt : snd.altsOf(id)) {
          if (machine.unit(snd.node(alt).unit).name == unitName) {
            assignment.chosenAlt[id] = alt;
            return;
          }
        }
      }
      std::fprintf(stderr, "no %s alternative on %s\n",
                   std::string(opName(op)).c_str(), unitName);
      std::exit(1);
    };
    pick(Op::kAdd, "U3");
    pick(Op::kMul, "U2");
    pick(Op::kSub, "U2");

    const AssignedGraph graph =
        AssignedGraph::materialize(snd, assignment, options);

    // Identify the paper's four nodes.
    AgId n2 = kNoAg;   // SUB@U2
    AgId n9 = kNoAg;   // transfer RF3 -> RF2 (ADD's value to the SUB)
    AgId n10 = kNoAg;  // MUL@U2
    AgId n14 = kNoAg;  // ADD@U3
    for (AgId id = 0; id < graph.size(); ++id) {
      const AgNode& n = graph.node(id);
      if (n.kind == AgKind::kOp) {
        if (n.machineOp == Op::kSub) n2 = id;
        if (n.machineOp == Op::kMul) n10 = id;
        if (n.machineOp == Op::kAdd) n14 = id;
      } else if (n.isTransferish()) {
        const TransferPath& p =
            machine.transfers()[static_cast<size_t>(n.pathId)];
        if (p.from == Loc::regFile(*machine.findRegFile("RF3")) &&
            p.to == Loc::regFile(*machine.findRegFile("RF2")))
          n9 = id;
      }
    }
    if (n2 == kNoAg || n9 == kNoAg || n10 == kNoAg || n14 == kNoAg) {
      std::fprintf(stderr, "could not identify the paper's four nodes\n");
      return 1;
    }

    const ParallelismMatrix matrix(graph, -1);
    const std::vector<AgId> subset = {n2, n9, n10, n14};
    const std::vector<std::string> labels = {"N2", "N9", "N10", "N14"};

    std::printf("Figure 7 — matrix for finding maximal cliques "
                "(0 = can execute in parallel):\n");
    std::printf("  N2 = SUB@U2, N9 = xfer RF3->RF2 (ADD result), "
                "N10 = MUL@U2, N14 = ADD@U3\n\n%s\n",
                matrix.str(subset, labels).c_str());

    // Figure 8: generate maximal cliques restricted to these four nodes.
    DynBitset active(graph.size());
    for (AgId id : subset) active.set(id);
    CliqueGenStats stats;
    const auto cliques = generateMaximalCliques(matrix, active, 1000, &stats);
    std::printf("Figure 8 — maximal cliques generated (%zu, with %zu "
                "pivoting Bron-Kerbosch calls):\n",
                cliques.size(), stats.recursions);
    int index = 1;
    for (const DynBitset& clique : cliques) {
      std::printf("  C%d: {", index++);
      bool first = true;
      clique.forEach([&](size_t i) {
        for (size_t k = 0; k < subset.size(); ++k) {
          if (subset[k] == static_cast<AgId>(i)) {
            std::printf("%s%s", first ? "" : ", ", labels[k].c_str());
            first = false;
          }
        }
      });
      std::printf("}\n");
    }
    std::printf("(paper: C1: N2; C2: N10, N9; C3: N10, N14)\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig7_fig8_cliques: %s\n", e.what());
    return 1;
  }
}
