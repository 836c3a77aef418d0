#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>

#include "core/assign_explore.h"
#include "core/clique.h"
#include "core/legality.h"
#include "core/parallel_matrix.h"
#include "core/spill.h"
#include "core/workspace.h"
#include "ir/parser.h"
#include "ir/random_dag.h"
#include "isdl/parser.h"

namespace aviv {
namespace {

// One spill through the covering engine's entry point, then the full graph
// check (acyclicity included) the matrix rebuilds below rely on.
void spillAndVerify(AssignedGraph& graph, const TransferDatabase& xferDb,
                    const DynBitset& covered, SpillState& state) {
  DynBitset liveOut;
  graph.liveOutInto(liveOut);
  (void)performSpill(graph, xferDb, covered, state,
                     bankPressure(graph, covered), liveOut);
  graph.verify();
}

// Fixture resources for one materialized assignment.
struct Materialized {
  BlockDag dag;
  Machine machine;
  MachineDatabases dbs;
  SplitNodeDag snd;
  AssignedGraph graph;

  Materialized(const std::string& source, const std::string& machineName,
               CodegenOptions options = {})
      : dag(parseBlock(source)),
        machine(loadMachine(machineName)),
        dbs(machine),
        snd(SplitNodeDag::build(dag, machine, dbs, options)),
        graph(AssignedGraph::materialize(
            snd, AssignmentExplorer(snd, options).explore().front(),
            options)) {}
};

// True iff the clique is one legal instruction: firstInstrFault finds no
// fault in its members, taken in id order.
bool scanLegal(const DynBitset& clique, const AssignedGraph& graph,
               const ConstraintDatabase& constraints) {
  std::vector<AgId> members;
  clique.forEach([&](size_t i) { members.push_back(static_cast<AgId>(i)); });
  InstrScratch scratch;
  return !firstInstrFault(graph, members, kNoAg, constraints, scratch);
}

TEST(ParallelismMatrix, DependentNodesConflict) {
  Materialized m("block t { input a, b; output y; y = (a + b) * a; }",
                 "arch1");
  const ParallelismMatrix matrix(m.graph, -1);
  // Every (pred, succ) pair conflicts.
  for (AgId id = 0; id < m.graph.size(); ++id) {
    for (AgId succ : m.graph.node(id).succs)
      EXPECT_FALSE(matrix.parallel(id, succ));
  }
}

TEST(ParallelismMatrix, SameUnitOpsConflict) {
  // Two independent adds; force both onto U1 via a machine with one unit.
  const Machine machine = parseMachine(R"(
    machine M {
      regfile A size 8;
      memory DM size 64 data;
      bus X capacity 4;
      unit U regfile A { op ADD; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases dbs(machine);
  const BlockDag dag = parseBlock(
      "block t { input a, b, c, d; output y, z; y = a + b; z = c + d; }");
  CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const AssignedGraph graph = AssignedGraph::materialize(
      snd, AssignmentExplorer(snd, options).explore().front(), options);
  const ParallelismMatrix matrix(graph, -1);
  std::vector<AgId> ops;
  for (AgId id = 0; id < graph.size(); ++id)
    if (graph.node(id).kind == AgKind::kOp) ops.push_back(id);
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_FALSE(matrix.parallel(ops[0], ops[1]));
}

TEST(ParallelismMatrix, SingleCapacityBusTransfersConflict) {
  Materialized m(
      "block t { input a, b, c, d; output y, z; y = a + b; z = c - d; }",
      "arch1");
  const ParallelismMatrix matrix(m.graph, -1);
  std::vector<AgId> loads;
  for (AgId id = 0; id < m.graph.size(); ++id)
    if (m.graph.node(id).isTransferish()) loads.push_back(id);
  ASSERT_GE(loads.size(), 2u);
  for (size_t i = 0; i < loads.size(); ++i)
    for (size_t j = i + 1; j < loads.size(); ++j)
      EXPECT_FALSE(matrix.parallel(loads[i], loads[j]));
}

TEST(ParallelismMatrix, MultiCapacityBusAllowsPairs) {
  const Machine machine = parseMachine(R"(
    machine M {
      regfile A size 8;
      regfile B size 8;
      memory DM size 64 data;
      bus X capacity 2;
      unit U1 regfile A { op ADD; }
      unit U2 regfile B { op SUB; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases dbs(machine);
  const BlockDag dag = parseBlock(
      "block t { input a, b, c, d; output y, z; y = a + b; z = c - d; }");
  CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const AssignedGraph graph = AssignedGraph::materialize(
      snd, AssignmentExplorer(snd, options).explore().front(), options);
  const ParallelismMatrix matrix(graph, -1);
  std::vector<AgId> loads;
  for (AgId id = 0; id < graph.size(); ++id)
    if (graph.node(id).isTransferish()) loads.push_back(id);
  ASSERT_GE(loads.size(), 2u);
  EXPECT_TRUE(matrix.parallel(loads[0], loads[1]));
}

TEST(ParallelismMatrix, LevelWindowFiltersDistantPairs) {
  Materialized m(
      "block t { input a, b, c; output y; y = ((a + b) * c) - a; }",
      "arch1");
  const ParallelismMatrix full(m.graph, -1);
  const ParallelismMatrix windowed(m.graph, 0);
  size_t fullPairs = 0;
  size_t windowedPairs = 0;
  for (AgId i = 0; i < m.graph.size(); ++i) {
    for (AgId j = i + 1; j < m.graph.size(); ++j) {
      fullPairs += full.parallel(i, j) ? 1 : 0;
      windowedPairs += windowed.parallel(i, j) ? 1 : 0;
    }
  }
  EXPECT_LE(windowedPairs, fullPairs);
}

TEST(ParallelismMatrix, StrRendersFig7StyleMatrix) {
  Materialized m("block t { input a, b; output y; y = a + b; }", "arch1");
  std::vector<AgId> subset;
  std::vector<std::string> labels;
  for (AgId id = 0; id < m.graph.size(); ++id) {
    subset.push_back(id);
    labels.push_back("N" + std::to_string(id));
  }
  const std::string text = m.graph.size() > 0
                               ? ParallelismMatrix(m.graph, -1).str(subset, labels)
                               : "";
  EXPECT_NE(text.find("N0"), std::string::npos);
  EXPECT_NE(text.find("| 0"), std::string::npos);
}

// Regression for the latent deleted-row issue: the matrix stores one row
// per node *including* kDeleted nodes, and the covering engine relies on
// those rows being empty (a deleted node in a clique would resurrect it).
// Spill-induced transfer deletions are the only way nodes die in practice,
// so stage one and check every deleted row — through both the constructor
// and the workspace rebuild() path the engine actually uses.
TEST(ParallelismMatrix, DeletedNodeRowsStayEmptyAfterSpill) {
  const BlockDag dag = loadBlock("fig2");
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  // The Fig 9 staging from spill_test: ADD on U3 feeding SUB on U2 through
  // a pending RF3->RF2 transfer; spilling the ADD deletes that transfer.
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
  for (AgId id = 0; id < graph.size(); ++id) {
    const AgNode& n = graph.node(id);
    if (n.kind == AgKind::kOp && n.machineOp == Op::kAdd) add = id;
  }
  ASSERT_NE(add, kNoAg);
  DynBitset covered(graph.size());
  covered.set(add);
  for (AgId pred : graph.node(add).preds) covered.set(pred);
  SpillState state;
  spillAndVerify(graph, dbs.transfers, covered, state);

  std::vector<AgId> deleted;
  for (AgId id = 0; id < graph.size(); ++id)
    if (graph.node(id).deleted()) deleted.push_back(id);
  ASSERT_FALSE(deleted.empty()) << "spill staged no deletion";

  const ParallelismMatrix fresh(graph, -1);
  CoverWorkspace ws;
  ParallelismMatrix rebuilt;
  graph.orderAndLevelsInto(ws);
  rebuilt.rebuild(graph, ws.topoOrder, ws.levelTop, /*levelWindow=*/-1, ws);
  for (AgId dead : deleted) {
    for (AgId other = 0; other < graph.size(); ++other) {
      EXPECT_FALSE(fresh.parallel(dead, other)) << dead << " " << other;
      EXPECT_FALSE(fresh.parallel(other, dead)) << other << " " << dead;
      EXPECT_FALSE(rebuilt.parallel(dead, other)) << dead << " " << other;
      EXPECT_FALSE(rebuilt.parallel(other, dead)) << other << " " << dead;
    }
  }
}

// --- legality / constraint splitting ----------------------------------

TEST(Legality, BusOverloadDetectedAndSplit) {
  const Machine machine = parseMachine(R"(
    machine M {
      regfile A size 8;
      regfile B size 8;
      memory DM size 64 data;
      bus X capacity 2;
      unit U1 regfile A { op ADD; }
      unit U2 regfile B { op SUB; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases dbs(machine);
  const BlockDag dag = parseBlock(R"(
    block t { input a, b, c, d, e, f; output x, y, z;
      x = a + b; y = c - d; z = e + f; }
  )");
  CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const AssignedGraph graph = AssignedGraph::materialize(
      snd, AssignmentExplorer(snd, options).explore().front(), options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  // With capacity 2, the pairwise matrix allows 3+ transfers together; the
  // legality pass must split any clique with > 2 transfers.
  auto cliques = generateMaximalCliques(matrix, active, 100000);
  bool sawOverloaded = false;
  for (const auto& clique : cliques)
    sawOverloaded |= !scanLegal(clique, graph, dbs.constraints);
  EXPECT_TRUE(sawOverloaded);

  const auto legal = enforceLegality(std::move(cliques), graph, dbs.constraints);
  for (const auto& clique : legal)
    EXPECT_TRUE(scanLegal(clique, graph, dbs.constraints));
  // Coverage preserved.
  DynBitset covered(graph.size());
  for (const auto& clique : legal) covered |= clique;
  EXPECT_EQ(covered, active);
}

TEST(Legality, ConstraintViolationSplit) {
  const Machine machine = loadMachine("arch4");
  const MachineDatabases dbs(machine);
  const BlockDag dag = parseBlock(
      "block t { input a, b, c, d; output y, z; y = a * b; z = c * d; }");
  CodegenOptions options = CodegenOptions::heuristicsOff();
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  // Find the assignment putting one MUL on U2 and one on U3.
  const auto assignments = AssignmentExplorer(snd, options).explore();
  const UnitId u2 = *machine.findUnit("U2");
  const UnitId u3 = *machine.findUnit("U3");
  for (const Assignment& a : assignments) {
    std::vector<UnitId> units;
    for (NodeId id = 0; id < dag.size(); ++id)
      if (a.chosenAlt[id] != kNoSnd &&
          snd.node(a.chosenAlt[id]).machineOp == Op::kMul)
        units.push_back(snd.node(a.chosenAlt[id]).unit);
    if (units.size() != 2 ||
        !((units[0] == u2 && units[1] == u3) ||
          (units[0] == u3 && units[1] == u2)))
      continue;
    const AssignedGraph graph =
        AssignedGraph::materialize(snd, a, options);
    const ParallelismMatrix matrix(graph, -1);
    DynBitset active(graph.size(), true);
    const auto legal = enforceLegality(
        generateMaximalCliques(matrix, active, 100000), graph,
        dbs.constraints);
    for (const auto& clique : legal) {
      EXPECT_TRUE(scanLegal(clique, graph, dbs.constraints));
    }
    return;
  }
  FAIL() << "no assignment with MULs on both U2 and U3 found";
}

TEST(Legality, LegalCliquesPassThroughUnchanged) {
  Materialized m("block t { input a, b; output y; y = a + b; }", "arch1");
  const ParallelismMatrix matrix(m.graph, -1);
  DynBitset active(m.graph.size(), true);
  auto cliques = generateMaximalCliques(matrix, active, 1000);
  const size_t before = cliques.size();
  const auto legal =
      enforceLegality(std::move(cliques), m.graph, m.dbs.constraints);
  EXPECT_EQ(legal.size(), before);
}

// --- reference equivalence ----------------------------------------------
//
// The matrix rows are built from masks (active, descendants, unit and bus
// masks, level windows) and legality counts bus loads without a map. The
// oracles below are the pairwise and map-based definitions those replaced;
// the tests compare both on every shipped block × machine, on spilled
// graphs with deleted nodes, and on graphs past the 128-bit inline size.

// The pairwise definition of paper Fig 7: a and b are parallel iff both are
// active, neither reaches the other, they do not share a unit (operations)
// or a single-capacity bus (transfers), and their levels from the top and
// from the bottom differ by at most the window.
std::vector<DynBitset> referenceRows(const AssignedGraph& graph,
                                     int levelWindow) {
  const size_t n = graph.size();
  std::vector<DynBitset> rows(n, DynBitset(n));
  const std::vector<DynBitset> desc = graph.computeDescendants();
  const std::vector<int> top = graph.levelsFromTop();
  const std::vector<int> bottom = graph.levelsFromBottom();
  for (AgId a = 0; a < n; ++a) {
    const AgNode& na = graph.node(a);
    if (na.deleted()) continue;
    for (AgId b = a + 1; b < n; ++b) {
      const AgNode& nb = graph.node(b);
      if (nb.deleted()) continue;
      if (desc[a].test(b) || desc[b].test(a)) continue;
      if (na.kind == AgKind::kOp && nb.kind == AgKind::kOp &&
          na.unit == nb.unit)
        continue;
      if (na.isTransferish() && nb.isTransferish() &&
          graph.busOf(a) == graph.busOf(b) &&
          graph.machine().bus(graph.busOf(a)).capacity <= 1)
        continue;
      if (levelWindow >= 0 && (std::abs(top[a] - top[b]) > levelWindow ||
                               std::abs(bottom[a] - bottom[b]) > levelWindow))
        continue;
      rows[a].set(b);
      rows[b].set(a);
    }
  }
  return rows;
}

// Rebuilds `ws.matrix` (one workspace reused across every graph, so stale
// storage from a larger or smaller graph would show) at windows -1, 0 and 2
// and compares each row with the reference.
void expectMatchesReference(const AssignedGraph& graph, CoverWorkspace& ws,
                            const std::string& what) {
  graph.orderAndLevelsInto(ws);
  for (const int window : {-1, 0, 2}) {
    ws.matrix.rebuild(graph, ws.topoOrder, ws.levelTop, window, ws);
    const std::vector<DynBitset> expected = referenceRows(graph, window);
    ASSERT_EQ(ws.matrix.size(), expected.size()) << what;
    size_t mismatches = 0;
    for (AgId a = 0; a < expected.size(); ++a)
      mismatches += ws.matrix.row(a) == expected[a] ? 0 : 1;
    EXPECT_EQ(mismatches, 0u) << what << " window " << window;
  }
}

// The map-based bus count and ISDL check legality had before per-bus
// counters.
bool referenceLegal(const DynBitset& clique, const AssignedGraph& graph,
                    const ConstraintDatabase& constraints) {
  std::map<BusId, int> load;
  std::vector<OpSel> sels;
  clique.forEach([&](size_t i) {
    const AgNode& n = graph.node(static_cast<AgId>(i));
    if (n.isTransferish()) load[graph.busOf(static_cast<AgId>(i))] += 1;
    if (n.kind == AgKind::kOp) sels.push_back({n.unit, n.machineOp});
  });
  for (const auto& [bus, users] : load)
    if (users > graph.machine().bus(bus).capacity) return false;
  return constraints.allows(sels);
}

// The dedup + subset pass enforceLegality runs after a split: sort by
// (count desc, lexLess), drop duplicates, drop sets contained in an
// earlier kept set.
std::vector<DynBitset> dedupAndDropSubsets(std::vector<DynBitset> cliques) {
  std::sort(cliques.begin(), cliques.end(),
            [](const DynBitset& a, const DynBitset& b) {
              if (a.count() != b.count()) return a.count() > b.count();
              return a.lexLess(b);
            });
  cliques.erase(std::unique(cliques.begin(), cliques.end()), cliques.end());
  std::vector<DynBitset> kept;
  for (const DynBitset& clique : cliques)
    if (std::none_of(kept.begin(), kept.end(), [&](const DynBitset& k) {
          return clique.isSubsetOf(k);
        }))
      kept.push_back(clique);
  return kept;
}

// The offender rule legality used before per-round masks: scan the
// members for bus loads and operation selections, drop the last member on
// the lowest overloaded bus, else the last member taking part in the first
// violated constraint.
AgId referenceOffender(const DynBitset& clique, const AssignedGraph& graph,
                       const ConstraintDatabase& constraints) {
  const std::vector<Bus>& buses = graph.machine().buses();
  std::vector<int> load(buses.size(), 0);
  std::vector<AgId> lastUser(buses.size(), kNoAg);
  clique.forEach([&](size_t i) {
    const AgId id = static_cast<AgId>(i);
    if (!graph.node(id).isTransferish()) return;
    load[graph.busOf(id)] += 1;
    lastUser[graph.busOf(id)] = id;
  });
  for (size_t b = 0; b < buses.size(); ++b)
    if (load[b] > buses[b].capacity) return lastUser[b];
  std::vector<OpSel> sels;
  std::vector<AgId> selNodes;
  clique.forEach([&](size_t i) {
    const AgNode& n = graph.node(static_cast<AgId>(i));
    if (n.kind != AgKind::kOp) return;
    sels.push_back({n.unit, n.machineOp});
    selNodes.push_back(static_cast<AgId>(i));
  });
  if (const Constraint* violated = constraints.firstViolated(sels)) {
    for (size_t i = selNodes.size(); i-- > 0;)
      for (const OpSel& sel : violated->together)
        if (sels[i] == sel) return selNodes[i];
  }
  return kNoAg;
}

// The splitting worklist legality ran before: pop a clique, split off its
// offender as a singleton, repeat until every piece is legal; sort, and
// after a split drop duplicates and strict subsets. `split` reports whether
// any clique was split.
std::vector<DynBitset> referenceEnforceLegality(
    std::vector<DynBitset> cliques, const AssignedGraph& graph,
    const ConstraintDatabase& constraints, bool& split) {
  std::vector<DynBitset> legal;
  split = false;
  while (!cliques.empty()) {
    DynBitset clique = std::move(cliques.back());
    cliques.pop_back();
    const AgId offender = referenceOffender(clique, graph, constraints);
    if (offender == kNoAg) {
      legal.push_back(std::move(clique));
      continue;
    }
    split = true;
    DynBitset alone(clique.size());
    alone.set(offender);
    clique.reset(offender);
    cliques.push_back(std::move(clique));
    cliques.push_back(std::move(alone));
  }
  if (split) return dedupAndDropSubsets(std::move(legal));
  std::sort(legal.begin(), legal.end(),
            [](const DynBitset& a, const DynBitset& b) {
              if (a.count() != b.count()) return a.count() > b.count();
              return a.lexLess(b);
            });
  return legal;
}

// Cliques that split: each maximal clique keeps each member with
// probability 2/3 (an emptied clique is dropped), so the set is no longer
// maximal or non-nested and a clique can still overload a bus or break a
// constraint.
std::vector<DynBitset> randomSubCliques(const std::vector<DynBitset>& cliques,
                                        std::mt19937& rng) {
  std::vector<DynBitset> subsets;
  for (const DynBitset& clique : cliques) {
    DynBitset subset = clique;
    clique.forEach([&](size_t i) {
      if (rng() % 3 == 0) subset.reset(i);
    });
    if (subset.any()) subsets.push_back(std::move(subset));
  }
  return subsets;
}

// Checks legality on the maximal cliques of `graph` (all nodes active, then
// every other node) at cover windows -1 and 2: per-clique verdicts against
// the map-based reference, and enforceLegality's whole output against the
// reference worklist, on those cliques and on random sub-cliques of them.
// Returns the number of clique sets the reference had to split.
size_t expectLegalityMatchesReference(const AssignedGraph& graph,
                                      const ConstraintDatabase& constraints,
                                      CoverWorkspace& ws, std::mt19937& rng,
                                      const std::string& what) {
  graph.orderAndLevelsInto(ws);
  DynBitset alive(graph.size());
  for (AgId id = 0; id < graph.size(); ++id)
    if (!graph.node(id).deleted()) alive.set(id);
  DynBitset sparse = alive;
  for (AgId id = 0; id < graph.size(); id += 2) sparse.reset(id);
  size_t splits = 0;
  auto expectSameAsReference = [&](const std::vector<DynBitset>& input,
                                   const std::string& label) {
    bool split = false;
    const std::vector<DynBitset> expected =
        referenceEnforceLegality(input, graph, constraints, split);
    splits += split ? 1 : 0;
    EXPECT_TRUE(enforceLegality(input, graph, constraints, &ws.legality) ==
                expected)
        << what << " " << label;
    EXPECT_TRUE(enforceLegality(input, graph, constraints) == expected)
        << what << " " << label << " (local scratch)";
  };
  for (const int window : {-1, 2}) {
    ws.matrix.rebuild(graph, ws.topoOrder, ws.levelTop, window, ws);
    for (const DynBitset* active : {&alive, &sparse}) {
      const std::string label = "window " + std::to_string(window) +
                                (active == &alive ? " all" : " sparse");
      std::vector<DynBitset> cliques =
          generateMaximalCliques(ws.matrix, *active, 1u << 16);
      bool allLegal = true;
      for (const DynBitset& clique : cliques) {
        const bool legal = scanLegal(clique, graph, constraints);
        EXPECT_EQ(legal, referenceLegal(clique, graph, constraints)) << what;
        allLegal &= legal;
      }
      expectSameAsReference(cliques, label);
      expectSameAsReference(randomSubCliques(cliques, rng),
                            label + " random sub-cliques");
      const std::vector<DynBitset> input = cliques;
      const std::vector<DynBitset> result =
          enforceLegality(std::move(cliques), graph, constraints);
      EXPECT_TRUE(result == dedupAndDropSubsets(result)) << what;
      if (allLegal) {
        EXPECT_TRUE(result == dedupAndDropSubsets(input)) << what;
      }
      for (const DynBitset& clique : result)
        EXPECT_TRUE(referenceLegal(clique, graph, constraints)) << what;
    }
  }
  return splits;
}

const char* const kShippedBlocks[] = {"biquad", "dct4", "ex1",  "ex2",
                                      "ex3",    "ex4",  "ex5",  "fig2",
                                      "fig6",   "matvec2"};
const char* const kShippedMachines[] = {
    "arch1",    "arch2",           "arch3",       "arch4",
    "dsp16",    "zoo/asym",        "zoo/buffered", "zoo/constrained",
    "zoo/minimal", "zoo/tiny",     "zoo/wide"};

// Calls fn(graph, dbs, label) on the graphs of up to `perPair` assignments
// of every shipped block × machine the SND builder accepts.
template <typename Fn>
void forEachShippedGraph(size_t perPair, Fn&& fn) {
  const CodegenOptions options;
  for (const char* blockName : kShippedBlocks) {
    const BlockDag dag = loadBlock(blockName);
    for (const char* machineName : kShippedMachines) {
      const Machine machine = loadMachine(machineName);
      const MachineDatabases dbs(machine);
      std::optional<SplitNodeDag> snd;
      try {
        snd.emplace(SplitNodeDag::build(dag, machine, dbs, options));
      } catch (const Error&) {
        continue;  // an op no unit performs
      }
      const std::vector<Assignment> assignments =
          AssignmentExplorer(*snd, options).explore();
      for (size_t i = 0; i < std::min(perPair, assignments.size()); ++i) {
        std::optional<AssignedGraph> graph;
        try {
          graph.emplace(
              AssignedGraph::materialize(*snd, assignments[i], options));
        } catch (const Error&) {
          continue;
        }
        fn(*graph, dbs,
           std::string(blockName) + "/" + machineName + " #" +
               std::to_string(i));
      }
    }
  }
}

// Covers a predecessor-closed set of about half the active nodes (deleted
// nodes count as covered, as in the covering engine).
DynBitset halfCovered(const AssignedGraph& graph) {
  DynBitset covered(graph.size());
  size_t active = 0;
  for (AgId id = 0; id < graph.size(); ++id) {
    if (graph.node(id).deleted())
      covered.set(id);
    else
      ++active;
  }
  size_t added = 0;
  for (bool grew = true; grew && 2 * added < active;) {
    grew = false;
    for (AgId id = 0; id < graph.size() && 2 * added < active; ++id) {
      if (covered.test(id)) continue;
      const auto& preds = graph.node(id).preds;
      if (std::all_of(preds.begin(), preds.end(),
                      [&](AgId p) { return covered.test(p); })) {
        covered.set(id);
        ++added;
        grew = true;
      }
    }
  }
  return covered;
}

TEST(ParallelismMatrix, MatchesPairwiseReferenceOnShippedGraphs) {
  CoverWorkspace ws;
  size_t graphs = 0;
  forEachShippedGraph(4, [&](const AssignedGraph& graph,
                             const MachineDatabases&, const std::string& what) {
    expectMatchesReference(graph, ws, what);
    ++graphs;
  });
  EXPECT_GT(graphs, 200u);
}

// Spills append store/reload chains, delete redundant transfers and rewire
// consumers, so the graph is no longer in topological id order and has
// deleted nodes; zoo/asym and zoo/wide add capacity-2 buses.
TEST(ParallelismMatrix, MatchesPairwiseReferenceAfterSpills) {
  CoverWorkspace ws;
  size_t spills = 0;
  size_t deletedSeen = 0;
  forEachShippedGraph(1, [&](const AssignedGraph& original,
                             const MachineDatabases& dbs,
                             const std::string& what) {
    AssignedGraph graph = original.clone();
    SpillState state;
    for (int round = 0; round < 6; ++round) {
      try {
        spillAndVerify(graph, dbs.transfers, halfCovered(graph), state);
      } catch (const Error&) {
        break;  // nothing spillable left
      }
      ++spills;
      for (AgId id = 0; id < graph.size(); ++id)
        deletedSeen += graph.node(id).deleted() ? 1 : 0;
      expectMatchesReference(graph, ws,
                             what + " spill " + std::to_string(round));
    }
  });
  EXPECT_GT(spills, 50u);
  EXPECT_GT(deletedSeen, 0u);
}

// Synthetic blocks whose graphs pass 128 nodes, so rows, masks and
// descendant sets take the heap path; rebuilt alternately with small
// shipped graphs in the same workspace.
TEST(ParallelismMatrix, MatchesPairwiseReferenceAcrossInlineHeapSeam) {
  CoverWorkspace ws;
  CodegenOptions options;
  options.outputsToMemory = true;
  const Materialized small("block t { input a, b; output y; y = a * b; }",
                           "arch1");
  size_t largest = 0;
  for (const char* machineName : {"arch1", "zoo/wide"}) {
    const Machine machine = loadMachine(machineName);
    const MachineDatabases dbs(machine);
    for (const int ops : {40, 90}) {
      RandomDagSpec spec;
      spec.numOps = ops;
      spec.numInputs = ops / 3;
      spec.seed = 7;
      const BlockDag dag = makeRandomDag(spec);
      const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
      const AssignedGraph graph = AssignedGraph::materialize(
          snd, AssignmentExplorer(snd, options).explore().front(), options);
      largest = std::max(largest, graph.size());
      const std::string what =
          std::string(machineName) + " ops=" + std::to_string(ops);
      expectMatchesReference(graph, ws, what);
      expectMatchesReference(small.graph, ws, what + " then small");
      expectMatchesReference(graph, ws, what + " again");
    }
  }
  EXPECT_GT(largest, 128u);
}

// Splits must run where they can: on zoo/wide's capacity-2 buses, and on
// zoo/constrained's ISDL constraints. The shipped blocks use none of the
// operations those constraints name (EQ, NE, SHR, ABS), so random blocks
// drawn from them join the shipped graphs there.
TEST(Legality, MatchesReferenceOnShippedGraphs) {
  CoverWorkspace ws;
  std::mt19937 rng(20261018);
  std::map<std::string, size_t> splitsByMachine;
  forEachShippedGraph(2, [&](const AssignedGraph& graph,
                             const MachineDatabases& dbs,
                             const std::string& what) {
    splitsByMachine[graph.machine().name()] +=
        expectLegalityMatchesReference(graph, dbs.constraints, ws, rng, what);
  });
  const Machine constrained = loadMachine("zoo/constrained");
  const MachineDatabases dbs(constrained);
  const CodegenOptions options;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    RandomDagSpec spec;
    spec.numOps = 12;
    spec.opPool = {Op::kAdd, Op::kEq, Op::kNe, Op::kShr, Op::kMul};
    spec.seed = seed;
    const BlockDag dag = makeRandomDag(spec);
    const SplitNodeDag snd =
        SplitNodeDag::build(dag, constrained, dbs, options);
    const std::vector<Assignment> assignments =
        AssignmentExplorer(snd, options).explore();
    for (size_t i = 0; i < std::min<size_t>(assignments.size(), 4); ++i) {
      const AssignedGraph graph =
          AssignedGraph::materialize(snd, assignments[i], options);
      splitsByMachine[constrained.name()] += expectLegalityMatchesReference(
          graph, dbs.constraints, ws, rng,
          "random seed " + std::to_string(seed) + " #" + std::to_string(i));
    }
  }
  EXPECT_GT(splitsByMachine[constrained.name()], 0u);
  EXPECT_GT(splitsByMachine[loadMachine("zoo/wide").name()], 0u);
}

}  // namespace
}  // namespace aviv
