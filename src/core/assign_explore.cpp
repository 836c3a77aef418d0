#include "core/assign_explore.h"

#include <algorithm>
#include <cmath>

#include "support/bitset.h"
#include "support/error.h"

namespace aviv {

SndId Assignment::producerAltOf(NodeId irNode, const SplitNodeDag& snd) const {
  if (isLeafOp(snd.ir().node(irNode).op)) return kNoSnd;
  if (chosenAlt[irNode] != kNoSnd) return chosenAlt[irNode];
  // Fused into a consumer's complex alternative; find it. The pattern
  // matcher guarantees the (single) user holds the covering alt.
  const auto users = snd.ir().computeUsers();
  AVIV_CHECK(users[irNode].size() == 1);
  const NodeId root = users[irNode][0];
  const SndId alt = chosenAlt[root];
  AVIV_CHECK(alt != kNoSnd);
  const auto& covers = snd.node(alt).covers;
  AVIV_CHECK(std::find(covers.begin(), covers.end(), irNode) != covers.end());
  return alt;
}

AssignmentExplorer::AssignmentExplorer(const SplitNodeDag& snd,
                                       const CodegenOptions& options,
                                       const Deadline* deadline, Arena* scratch)
    : snd_(snd), options_(options), deadline_(deadline), scratch_(scratch) {}

namespace {

// Incremental-cost weights (Section IV-A): the paper's 1 per transfer and
// per precluded parallel pair, 1 per extra IR node a complex alternative
// covers, and 2 per producer over a bank's size (register-aware cost).
constexpr double kTransferCostWeight = 1.0;
constexpr double kParallelismCostWeight = 1.0;
constexpr double kComplexCoverBonus = 1.0;
constexpr double kRegisterPressurePenalty = 2.0;

// Exploration states hold their per-node arrays in the scratch arena; a
// State is two (pointer, length) views plus a cost, so the frontier vectors
// shuffle 40-byte values instead of deep-copying heap vectors. Branching
// allocCopy-s fresh arrays; the whole generation graph is released at once
// by explore()'s ArenaScope.
struct State {
  Span<SndId> chosenAlt;   // per IR node
  Span<uint8_t> covered;   // per IR node: fused into a complex alt
  double cost = 0.0;
};

// Descendant reachability over the IR DAG (node -> nodes depending on it).
std::vector<DynBitset> computeReachability(const BlockDag& ir) {
  std::vector<DynBitset> reach(ir.size(), DynBitset(ir.size()));
  const auto users = ir.computeUsers();
  // Reverse id order: users have larger ids, so their sets are final.
  for (size_t i = ir.size(); i-- > 0;) {
    for (NodeId user : users[i]) {
      reach[i].set(user);
      reach[i] |= reach[user];
    }
  }
  return reach;
}

}  // namespace

std::vector<Assignment> AssignmentExplorer::explore(
    ExploreStats* stats, std::vector<ExploreTraceEntry>* trace) const {
  const BlockDag& ir = snd_.ir();
  const Machine& machine = snd_.machine();
  const TransferDatabase& xferDb = snd_.databases().transfers;
  const Loc dataMem = machine.dataMemoryLoc();

  // Visit order: increasing level from the top (consumers first); ties by
  // fewest alternatives first (most-constrained-first), which also matches
  // the paper's Fig 6 walk (MUL before ADD).
  std::vector<NodeId> order;
  for (NodeId id = 0; id < ir.size(); ++id)
    if (isMachineOp(ir.node(id).op)) order.push_back(id);
  const auto levels = ir.levelsFromTop();
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    if (levels[a] != levels[b]) return levels[a] < levels[b];
    return snd_.altsOf(a).size() < snd_.altsOf(b).size();
  });

  const auto reach = computeReachability(ir);
  const auto users = ir.computeUsers();

  ExploreStats localStats;
  ExploreStats& st = stats != nullptr ? *stats : localStats;
  st = ExploreStats{};

  Arena localArena;
  Arena& arena = scratch_ != nullptr ? *scratch_ : localArena;
  const ArenaScope scope(arena);

  std::vector<State> states(1);
  states[0].chosenAlt = arena.allocSpan<SndId>(ir.size(), kNoSnd);
  states[0].covered = arena.allocSpan<uint8_t>(ir.size(), 0);

  // The alternative that consumes irNode's value on behalf of user u under
  // a given state (u itself, or the complex alt covering u).
  auto consumingAlt = [&](const State& s, NodeId u) -> SndId {
    if (s.chosenAlt[u] != kNoSnd) return s.chosenAlt[u];
    if (!s.covered[u]) return kNoSnd;  // not processed yet (cannot happen)
    AVIV_CHECK(users[u].size() == 1);
    return s.chosenAlt[users[u][0]];
  };

  auto incrementalCost = [&](const State& s, NodeId n, SndId altId) {
    const SndNode& alt = snd_.node(altId);
    const Loc myLoc = machine.unitLoc(alt.unit);
    double cost = 0.0;

    // (a) transfers to already-assigned consumers of n's value.
    for (NodeId u : users[n]) {
      const SndId consumer = consumingAlt(s, u);
      if (consumer == kNoSnd) continue;
      if (consumer == altId) continue;  // u fused into this very alt
      const SndNode& consumerAlt = snd_.node(consumer);
      // Count once per appearance of n among the consumer's operands.
      int uses = 0;
      for (NodeId operand : consumerAlt.operandIr) uses += operand == n;
      if (uses == 0) continue;  // n only feeds the fused-away interior
      const Loc consLoc = machine.unitLoc(consumerAlt.unit);
      cost += kTransferCostWeight *
              static_cast<double>(xferDb.cost(myLoc, consLoc));
    }

    // (b) loads of named-variable operands from data memory. For complex
    // alternatives only the root node's own operands count: the fused
    // interior node's operand loads occur in the plain future too (at the
    // interior node), so charging them here would bias against fusion.
    const auto& rootOperands = ir.node(n).operands;
    for (NodeId operand : alt.operandIr) {
      const Op operandOp = ir.node(operand).op;
      const bool loadsFromMemory =
          operandOp == Op::kInput ||
          (operandOp == Op::kConst && options_.constantsInMemory);
      if (!loadsFromMemory) continue;
      if (alt.covers.size() > 1 &&
          std::find(rootOperands.begin(), rootOperands.end(), operand) ==
              rootOperands.end())
        continue;
      cost += kTransferCostWeight *
              static_cast<double>(xferDb.cost(dataMem, myLoc));
    }

    // (c) foregone parallelism: independent, already-assigned operations
    // forced onto the same unit.
    for (NodeId m : order) {
      const SndId other = s.chosenAlt[m];
      if (other == kNoSnd || m == n) continue;
      if (snd_.node(other).unit != alt.unit) continue;
      const bool dependent = reach[m].test(n) || reach[n].test(m);
      if (!dependent) cost += kParallelismCostWeight;
    }

    // (d) complex instructions cover extra nodes with the same instruction.
    cost -= kComplexCoverBonus * static_cast<double>(alt.covers.size() - 1);

    // (e) optional register-pressure awareness (paper Section VI, ongoing
    // work): a crude per-bank producer count against the bank size.
    if (options_.registerAwareAssignment) {
      const RegFileId bank = machine.unit(alt.unit).regFile;
      int producers = 1;
      for (NodeId m : order) {
        const SndId other = s.chosenAlt[m];
        if (other != kNoSnd && m != n &&
            machine.unit(snd_.node(other).unit).regFile == bank)
          ++producers;
      }
      const int excess = producers - machine.regFile(bank).numRegs;
      if (excess > 0)
        cost += kRegisterPressurePenalty * static_cast<double>(excess);
    }
    return cost;
  };

  for (const NodeId n : order) {
    if (deadline_ != nullptr) deadline_->check("assignment exploration");
    std::vector<State> next;
    next.reserve(states.size());
    for (size_t si = 0; si < states.size(); ++si) {
      const State& s = states[si];
      if (s.covered[n]) {
        next.push_back(s);  // spans: shallow, the arrays carry over
        continue;
      }
      const auto& alts = snd_.altsOf(n);
      std::vector<double> inc(alts.size());
      double minInc = 1e300;
      for (size_t a = 0; a < alts.size(); ++a) {
        inc[a] = incrementalCost(s, n, alts[a]);
        minInc = std::min(minInc, inc[a]);
        // Heuristics-off exploration grows multiplicatively; poll the
        // deadline often enough that a hard budget stops it within
        // milliseconds, but not on every evaluation.
        if (++st.statesExpanded % 256 == 0 && deadline_ != nullptr)
          deadline_->check("assignment exploration");
      }
      for (size_t a = 0; a < alts.size(); ++a) {
        const bool keep = !options_.assignPruneIncremental ||
                          inc[a] <= minInc + options_.assignPruneSlack + 1e-9;
        if (trace != nullptr) {
          trace->push_back({static_cast<int>(si), n, alts[a], inc[a], keep});
        }
        if (!keep) {
          ++st.prunedByBound;
          continue;
        }
        // A plain `State branch = s` would alias s's arrays (spans are
        // views); each kept branch needs its own copies to mutate.
        State branch;
        branch.chosenAlt = arena.allocCopy(s.chosenAlt.data(),
                                           s.chosenAlt.size());
        branch.covered = arena.allocCopy(s.covered.data(), s.covered.size());
        branch.cost = s.cost + inc[a];
        branch.chosenAlt[n] = alts[a];
        for (size_t c = 1; c < snd_.node(alts[a]).covers.size(); ++c)
          branch.covered[snd_.node(alts[a]).covers[c]] = 1;
        next.push_back(branch);
      }
    }
    states = std::move(next);
    AVIV_REQUIRE(!states.empty());

    const size_t cap = options_.assignBeamWidth > 0
                           ? static_cast<size_t>(options_.assignBeamWidth)
                           : options_.maxAssignments;
    if (states.size() > cap) {
      std::stable_sort(states.begin(), states.end(),
                       [](const State& a, const State& b) {
                         return a.cost < b.cost;
                       });
      st.beamDropped += states.size() - cap;
      states.resize(cap);
      st.capped = true;
    }
  }

  st.completeAssignments = states.size();
  std::stable_sort(
      states.begin(), states.end(),
      [](const State& a, const State& b) { return a.cost < b.cost; });
  const size_t keep = std::min<size_t>(
      states.size(),
      options_.assignKeepBest > 0 ? static_cast<size_t>(options_.assignKeepBest)
                                  : states.size());

  std::vector<Assignment> out;
  out.reserve(keep);
  for (size_t i = 0; i < keep; ++i) {
    Assignment a;
    a.chosenAlt.assign(states[i].chosenAlt.begin(),
                       states[i].chosenAlt.end());
    a.cost = states[i].cost;
    out.push_back(std::move(a));
  }
  return out;
}

}  // namespace aviv
