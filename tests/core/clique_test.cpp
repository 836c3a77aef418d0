#include "core/clique.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/rng.h"

namespace aviv {
namespace {

// Independent oracle: enumerate every clique of `active` (each subset
// whose members are pairwise parallel, grown in ascending id order), keep
// the ones no other active node extends, and sort. No pivot, no excluded
// set — nothing shared with the generator under test.
std::vector<DynBitset> bruteForceMaximalCliques(const ParallelismMatrix& matrix,
                                                const DynBitset& active) {
  const size_t n = active.size();
  std::vector<DynBitset> out;
  std::vector<size_t> members;
  auto maximal = [&] {
    for (size_t v = 0; v < n; ++v) {
      if (!active.test(v)) continue;
      bool extends = true;
      for (size_t m : members)
        extends &= matrix.parallel(static_cast<AgId>(v), static_cast<AgId>(m));
      if (extends) return false;  // also rejects v already in the clique
    }
    return true;
  };
  auto grow = [&](auto&& self, size_t from) -> void {
    if (!members.empty() && maximal()) {
      DynBitset clique(n);
      for (size_t m : members) clique.set(m);
      out.push_back(std::move(clique));
    }
    for (size_t v = from; v < n; ++v) {
      if (!active.test(v)) continue;
      bool joins = true;
      for (size_t m : members)
        joins &= matrix.parallel(static_cast<AgId>(v), static_cast<AgId>(m));
      if (!joins) continue;
      members.push_back(v);
      self(self, v + 1);
      members.pop_back();
    }
  };
  grow(grow, 0);
  std::sort(out.begin(), out.end(),
            [](const DynBitset& a, const DynBitset& b) { return a.lexLess(b); });
  return out;
}

void expectMatchesBruteForce(const ParallelismMatrix& matrix,
                             const DynBitset& active,
                             const std::string& where) {
  CliqueGenStats stats;
  const auto cliques = generateMaximalCliques(matrix, active, 1u << 20, &stats);
  const auto oracle = bruteForceMaximalCliques(matrix, active);
  EXPECT_FALSE(stats.capped) << where;
  EXPECT_EQ(stats.emitted, cliques.size()) << where;
  ASSERT_EQ(cliques.size(), oracle.size()) << where;
  for (size_t i = 0; i < cliques.size(); ++i)
    EXPECT_EQ(cliques[i], oracle[i]) << where << " clique " << i;
}

ParallelismMatrix randomMatrix(Rng& rng, size_t n, double density) {
  std::vector<DynBitset> rows(n, DynBitset(n));
  for (size_t a = 0; a < n; ++a)
    for (size_t b = a + 1; b < n; ++b)
      if (rng.chance(density)) {
        rows[a].set(b);
        rows[b].set(a);
      }
  return ParallelismMatrix(std::move(rows));
}

TEST(CliqueGen, MatchesBruteForceOnRandomGraphs) {
  Rng rng(1234);
  for (size_t n = 1; n <= 14; ++n) {
    for (double density : {0.1, 0.3, 0.5, 0.7, 0.9, 1.0}) {
      for (int trial = 0; trial < 4; ++trial) {
        const ParallelismMatrix matrix = randomMatrix(rng, n, density);
        DynBitset all(n, true);
        expectMatchesBruteForce(matrix, all,
                                "n=" + std::to_string(n) +
                                    " density=" + std::to_string(density));
        DynBitset subset(n);
        for (size_t i = 0; i < n; ++i)
          if (rng.chance(0.7)) subset.set(i);
        expectMatchesBruteForce(matrix, subset,
                                "subset of n=" + std::to_string(n));
      }
    }
  }
}

// The generator against the oracle on the parallelism graphs covering
// actually sees: for each kernel × machine the winning assignment's graph
// (spills applied), at every step of its schedule — the uncovered sets
// clique rounds regenerate over — with and without the level window.
TEST(CliqueGen, MatchesBruteForceOnKernelCoveringSteps) {
  for (const char* machineName :
       {"arch1", "arch2", "arch3", "arch4", "dsp16", "zoo/asym",
        "zoo/buffered", "zoo/constrained", "zoo/minimal", "zoo/tiny",
        "zoo/wide"}) {
    const Machine machine = loadMachine(machineName);
    const MachineDatabases dbs(machine);
    for (const char* block : {"biquad", "dct4", "ex1", "ex2", "ex3", "ex4",
                              "ex5", "fig2", "fig6", "matvec2"}) {
      const BlockDag dag = loadBlock(block);
      CoreResult result;
      try {
        result = coverBlock(dag, machine, dbs, CodegenOptions{});
      } catch (const Error&) {
        continue;  // the machine cannot implement the block
      }
      const AssignedGraph& graph = result.graph;
      for (int window : {-1, 2}) {
        const ParallelismMatrix matrix(graph, window);
        DynBitset active(graph.size());
        for (AgId id = 0; id < graph.size(); ++id)
          if (!graph.node(id).deleted()) active.set(id);
        const auto& instrs = result.schedule.instrs;
        for (size_t step = 0; step < instrs.size(); ++step) {
          expectMatchesBruteForce(matrix, active,
                                  std::string(block) + "/" + machineName +
                                      " window " + std::to_string(window) +
                                      " step " + std::to_string(step));
          for (AgId id : instrs[step]) active.reset(id);
        }
      }
    }
  }
}

TEST(CliqueGen, EveryNodeCoveredByAtLeastOneClique) {
  const Machine machine = loadMachine("arch2");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex2");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  const auto cliques = generateMaximalCliques(matrix, active, 100000);
  DynBitset covered(graph.size());
  for (const DynBitset& clique : cliques) covered |= clique;
  EXPECT_EQ(covered, active);
}

TEST(CliqueGen, CliquesArePairwiseParallelAndMaximal) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex3");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  const auto cliques = generateMaximalCliques(matrix, active, 100000);
  ASSERT_FALSE(cliques.empty());
  for (const DynBitset& clique : cliques) {
    const auto members = clique.toIndices();
    for (size_t i = 0; i < members.size(); ++i)
      for (size_t j = i + 1; j < members.size(); ++j)
        EXPECT_TRUE(matrix.parallel(static_cast<AgId>(members[i]),
                                    static_cast<AgId>(members[j])));
    // Maximality: no outside node parallel with every member.
    for (size_t n = 0; n < graph.size(); ++n) {
      if (clique.test(n) || !active.test(n)) continue;
      bool withAll = true;
      for (size_t m : members)
        withAll &= matrix.parallel(static_cast<AgId>(n),
                                   static_cast<AgId>(m));
      EXPECT_FALSE(withAll) << "clique not maximal: can add " << n;
    }
  }
}

TEST(CliqueGen, LevelWindowReducesCliqueCount) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex5");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  DynBitset active(graph.size(), true);

  const ParallelismMatrix full(graph, -1);
  const ParallelismMatrix windowed(graph, 1);
  CliqueGenStats fullStats;
  CliqueGenStats windowedStats;
  (void)generateMaximalCliques(full, active, 1000000, &fullStats);
  (void)generateMaximalCliques(windowed, active, 1000000, &windowedStats);
  EXPECT_LE(windowedStats.emitted, fullStats.emitted);
}

// The cap keeps a deterministic subset of the full set, and `capped` is set
// exactly when cliques were dropped.
TEST(CliqueGen, CapSetsFlag) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex5");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  DynBitset active(graph.size(), true);
  const auto all = generateMaximalCliques(matrix, active, 1u << 20);
  ASSERT_GT(all.size(), 2u);

  CliqueGenStats stats;
  const auto capped = generateMaximalCliques(matrix, active, 2, &stats);
  EXPECT_EQ(capped.size(), 2u);
  EXPECT_TRUE(stats.capped);
  for (const DynBitset& clique : capped)
    EXPECT_NE(std::find(all.begin(), all.end(), clique), all.end());
  EXPECT_EQ(generateMaximalCliques(matrix, active, 2), capped);

  CliqueGenStats exact;
  EXPECT_EQ(generateMaximalCliques(matrix, active, all.size(), &exact), all);
  EXPECT_FALSE(exact.capped);
}

TEST(CliqueGen, SingleNodeGraphGivesSingletonClique) {
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = ~a; }");
  const CodegenOptions options;
  const SplitNodeDag snd = SplitNodeDag::build(dag, machine, dbs, options);
  const auto assignment = AssignmentExplorer(snd, options).explore().front();
  const AssignedGraph graph =
      AssignedGraph::materialize(snd, assignment, options);
  const ParallelismMatrix matrix(graph, -1);
  // Load then compl: serial chain -> two singleton cliques.
  DynBitset active(graph.size(), true);
  const auto cliques = generateMaximalCliques(matrix, active, 100);
  EXPECT_EQ(cliques.size(), 2u);
  for (const auto& clique : cliques) EXPECT_EQ(clique.count(), 1u);
}

}  // namespace
}  // namespace aviv
