#include "core/legality.h"

#include <algorithm>

#include "support/error.h"
#include "support/smallvec.h"

namespace aviv {

namespace {

// Returns kNoAg when legal, else a node whose removal repairs (part of) the
// violation: the last member on the lowest-numbered overloaded bus, else the
// last member taking part in the first violated ISDL constraint.
AgId findViolatingNode(const DynBitset& clique, const AssignedGraph& graph,
                       const ConstraintDatabase& constraints) {
  // Bus capacities: per-bus member counts and the last member on each bus
  // (members are visited in increasing id order).
  const std::vector<Bus>& buses = graph.machine().buses();
  SmallVec<int, 8> load;
  SmallVec<AgId, 8> lastUser;
  for (size_t b = 0; b < buses.size(); ++b) {
    load.push_back(0);
    lastUser.push_back(kNoAg);
  }
  clique.forEach([&](size_t i) {
    const AgId id = static_cast<AgId>(i);
    if (!graph.node(id).isTransferish()) return;
    const BusId bus = graph.busOf(id);
    load[bus] += 1;
    lastUser[bus] = id;
  });
  for (size_t b = 0; b < buses.size(); ++b)
    if (load[b] > buses[b].capacity) return lastUser[b];

  // ISDL constraints over the operation selections.
  if (constraints.size() > 0) {
    SmallVec<OpSel, 16> sels;
    SmallVec<AgId, 16> selNodes;
    clique.forEach([&](size_t i) {
      const AgNode& n = graph.node(static_cast<AgId>(i));
      if (n.kind == AgKind::kOp) {
        sels.push_back({n.unit, n.machineOp});
        selNodes.push_back(static_cast<AgId>(i));
      }
    });
    if (const Constraint* violated = constraints.firstViolated(
            Span<const OpSel>(sels.data(), sels.size()))) {
      // Drop the last clique member participating in the constraint.
      for (size_t i = selNodes.size(); i-- > 0;) {
        for (const OpSel& sel : violated->together) {
          if (sels[i] == sel) return selNodes[i];
        }
      }
      AVIV_UNREACHABLE("violated constraint without participating node");
    }
  }
  return kNoAg;
}

}  // namespace

bool cliqueIsLegal(const DynBitset& clique, const AssignedGraph& graph,
                   const ConstraintDatabase& constraints) {
  return findViolatingNode(clique, graph, constraints) == kNoAg;
}

std::vector<DynBitset> enforceLegality(std::vector<DynBitset> cliques,
                                       const AssignedGraph& graph,
                                       const ConstraintDatabase& constraints) {
  std::vector<DynBitset> legal;
  legal.reserve(cliques.size());
  bool split = false;
  // Worklist: split until every piece is legal.
  while (!cliques.empty()) {
    DynBitset clique = std::move(cliques.back());
    cliques.pop_back();
    const AgId offender = findViolatingNode(clique, graph, constraints);
    if (offender == kNoAg) {
      legal.push_back(std::move(clique));
      continue;
    }
    AVIV_CHECK(clique.count() >= 2);
    split = true;
    // Split into {clique - offender} and {offender} — both strictly
    // smaller, so this terminates; singletons are always legal.
    DynBitset alone(clique.size());
    alone.set(offender);
    clique.reset(offender);
    cliques.push_back(std::move(clique));
    cliques.push_back(std::move(alone));
  }

  std::sort(legal.begin(), legal.end(),
            [](const DynBitset& a, const DynBitset& b) {
              const size_t countA = a.count();
              const size_t countB = b.count();
              if (countA != countB) return countA > countB;
              return a.lexLess(b);
            });
  // Distinct, pairwise non-nested input that needed no split is already
  // the answer.
  if (!split) return legal;

  // Dedup + drop strict subsets (splitting can produce both).
  legal.erase(std::unique(legal.begin(), legal.end()), legal.end());
  std::vector<DynBitset> result;
  for (DynBitset& clique : legal) {
    bool subset = false;
    for (const DynBitset& kept : result) {
      if (clique.isSubsetOf(kept)) {
        subset = true;
        break;
      }
    }
    if (!subset) result.push_back(std::move(clique));
  }
  return result;
}

}  // namespace aviv
