#include "core/legality.h"

#include <algorithm>

#include "support/error.h"

namespace aviv {

InstrFault firstInstrFault(const AssignedGraph& graph,
                           const std::vector<AgId>& members, AgId extra,
                           const ConstraintDatabase& constraints,
                           InstrScratch& s) {
  const std::vector<Bus>& buses = graph.machine().buses();
  s.unitUsed.assign(graph.machine().units().size(), 0);
  s.busLoad.assign(buses.size(), 0);
  s.sels.clear();
  const size_t count = members.size() + (extra != kNoAg ? 1 : 0);
  for (size_t k = 0; k < count; ++k) {
    const AgId id = k < members.size() ? members[k] : extra;
    const AgNode& n = graph.node(id);
    if (n.kind == AgKind::kOp) {
      if (s.unitUsed[n.unit] != 0)
        return {.kind = InstrFault::Kind::kUnit, .unit = n.unit};
      s.unitUsed[n.unit] = 1;
      s.sels.push_back({n.unit, n.machineOp});
    } else if (n.isTransferish()) {
      s.busLoad[graph.busOf(id)] += 1;
    }
  }
  for (size_t b = 0; b < buses.size(); ++b)
    if (s.busLoad[b] > buses[b].capacity)
      return {.kind = InstrFault::Kind::kBus, .bus = static_cast<BusId>(b)};
  if (!constraints.allows(s.sels))
    return {.kind = InstrFault::Kind::kConstraint};
  return {};
}

namespace {

// The highest index set in both `a` and `b`, or kNoAg when they are
// disjoint.
AgId lastCommon(const DynBitset& a, const DynBitset& b) {
  AVIV_DCHECK(a.size() == b.size());
  const uint64_t* wa = a.wordData();
  const uint64_t* wb = b.wordData();
  for (size_t i = a.wordCount(); i-- > 0;) {
    const uint64_t common = wa[i] & wb[i];
    if (common != 0)
      return static_cast<AgId>(i * 64 + 63 -
                               static_cast<size_t>(__builtin_clzll(common)));
  }
  return kNoAg;
}

// Fills the masks of LegalityScratch in one pass over the nodes, then keeps
// only the buses and constraints a clique of this graph could break.
void buildMasks(const AssignedGraph& graph,
                const ConstraintDatabase& constraints, LegalityScratch& s) {
  const size_t n = graph.size();
  const std::vector<Bus>& buses = graph.machine().buses();
  size_t used = 0;
  auto fresh = [&] {
    if (used == s.masks.size()) s.masks.emplace_back();
    s.masks[used].clearAndResize(n);
    return static_cast<uint32_t>(used++);
  };
  for (size_t b = 0; b < buses.size(); ++b) (void)fresh();
  s.constraints.clear();
  for (const Constraint& c : constraints.all()) {
    const uint32_t firstSel = static_cast<uint32_t>(used);
    for (size_t k = 0; k < c.together.size(); ++k) (void)fresh();
    s.constraints.push_back({firstSel, fresh()});
  }

  s.busUsers.assign(buses.size(), 0);
  for (AgId id = 0; id < n; ++id) {
    const AgNode& node = graph.node(id);
    if (node.isTransferish()) {
      const BusId bus = graph.busOf(id);
      s.masks[bus].set(id);
      s.busUsers[bus] += 1;
    } else if (node.kind == AgKind::kOp) {
      const OpSel sel{node.unit, node.machineOp};
      for (size_t ci = 0; ci < s.constraints.size(); ++ci) {
        const std::vector<OpSel>& together = constraints.all()[ci].together;
        for (size_t k = 0; k < together.size(); ++k) {
          if (together[k] != sel) continue;
          s.masks[s.constraints[ci].firstSel + k].set(id);
          s.masks[s.constraints[ci].unionMask].set(id);
        }
      }
    }
  }

  s.buses.clear();
  for (size_t b = 0; b < buses.size(); ++b)
    if (s.busUsers[b] > buses[b].capacity)
      s.buses.push_back({buses[b].capacity, static_cast<uint32_t>(b)});
  std::erase_if(s.constraints, [&](const LegalityScratch::ConstraintCheck& c) {
    for (uint32_t k = c.firstSel; k < c.unionMask; ++k)
      if (s.masks[k].none()) return true;
    return false;
  });
}

// kNoAg when `clique` is legal, else a node whose removal repairs (part of)
// the violation: the last member on the lowest-numbered overloaded bus,
// else the last member taking part in the first violated constraint.
AgId findOffender(const DynBitset& clique, const LegalityScratch& s) {
  for (const LegalityScratch::BusCheck& bus : s.buses) {
    const DynBitset& users = s.masks[bus.mask];
    if (clique.intersectCount(users) > static_cast<size_t>(bus.capacity))
      return lastCommon(clique, users);
  }
  for (const LegalityScratch::ConstraintCheck& c : s.constraints) {
    bool violated = true;
    for (uint32_t k = c.firstSel; k < c.unionMask && violated; ++k)
      violated = clique.intersects(s.masks[k]);
    if (!violated) continue;
    const AgId offender = lastCommon(clique, s.masks[c.unionMask]);
    AVIV_CHECK_MSG(offender != kNoAg,
                   "violated constraint without participating node");
    return offender;
  }
  return kNoAg;
}

}  // namespace

std::vector<DynBitset> enforceLegality(std::vector<DynBitset> cliques,
                                       const AssignedGraph& graph,
                                       const ConstraintDatabase& constraints,
                                       LegalityScratch* scratch) {
  LegalityScratch local;
  LegalityScratch& s = scratch != nullptr ? *scratch : local;
  buildMasks(graph, constraints, s);

  // Split in place until every piece is legal: an illegal clique loses its
  // offender, which becomes a singleton appended to the list (and checked
  // in turn). Both pieces are strictly smaller, so this terminates.
  bool split = false;
  if (!s.buses.empty() || !s.constraints.empty()) {
    for (size_t i = 0; i < cliques.size(); ++i) {
      for (AgId offender = findOffender(cliques[i], s); offender != kNoAg;
           offender = findOffender(cliques[i], s)) {
        AVIV_CHECK(cliques[i].count() >= 2);
        split = true;
        cliques[i].reset(offender);
        DynBitset alone(graph.size());
        alone.set(offender);
        cliques.push_back(std::move(alone));
      }
    }
  }

  std::vector<std::pair<uint32_t, uint32_t>>& order = s.order;
  order.clear();
  for (size_t i = 0; i < cliques.size(); ++i)
    order.emplace_back(static_cast<uint32_t>(cliques[i].count()),
                       static_cast<uint32_t>(i));
  std::sort(order.begin(), order.end(), [&](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return cliques[a.second].lexLess(cliques[b.second]);
  });

  // Distinct, pairwise non-nested input that needed no split is already
  // the answer once sorted. After a split, drop duplicates and strict
  // subsets (splitting can produce both): a set can only be a strict subset
  // of a kept set with more members, which come first. The kept keys are
  // compacted to the front of `order`.
  std::vector<DynBitset> result;
  result.reserve(cliques.size());
  size_t kept = 0;
  for (const auto& [count, index] : order) {
    DynBitset& clique = cliques[index];
    if (split) {
      if (!result.empty() && result.back() == clique) continue;
      bool subset = false;
      for (size_t k = 0; k < kept && order[k].first > count && !subset; ++k)
        subset = clique.isSubsetOf(result[k]);
      if (subset) continue;
      order[kept++] = {count, index};
    }
    result.push_back(std::move(clique));
  }
  return result;
}

}  // namespace aviv
