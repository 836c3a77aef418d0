#include "core/cover.h"

#include <algorithm>
#include <cstdint>
#include <tuple>

#include "core/clique.h"
#include "core/legality.h"
#include "core/spill.h"
#include "core/parallel_matrix.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"

namespace aviv {

std::vector<int> Schedule::cycles(size_t graphSize) const {
  std::vector<int> cycle(graphSize, -1);
  for (size_t c = 0; c < instrs.size(); ++c)
    for (AgId id : instrs[c]) cycle[id] = static_cast<int>(c);
  return cycle;
}

CoveringEngine::CoveringEngine(AssignedGraph& graph,
                               const TransferDatabase& xferDb,
                               const ConstraintDatabase& constraints,
                               const CodegenOptions& options,
                               const Deadline* deadline, CoverWorkspace* ws)
    : graph_(graph),
      xferDb_(xferDb),
      constraints_(constraints),
      options_(options),
      deadline_(deadline),
      ws_(ws) {
  if (ws_ == nullptr) {
    ownedWs_ = std::make_unique<CoverWorkspace>();
    ws_ = ownedWs_.get();
  }
}

namespace {

// Safety cap on generated cliques per covering round; a capped round keeps
// a subset and adds singletons for the nodes it left out.
constexpr size_t kMaxCliquesPerRound = 250'000;

// Lower bound on the instructions a covering still has to emit: the larger
// of
//   * the most uncovered operations waiting on one functional unit (each
//     instruction issues at most one operation per unit), and
//   * the longest dependency chain starting at an uncovered operation, plus
//     one when that operation still waits on an uncovered predecessor
//     (every node on a chain needs its own, later instruction): the step
//     state's highest non-empty chain key.
// Spills keep the bound valid: they never delete or re-unit an operation
// and only rewire consumers of covered values (onto reload chains, deleting
// those values' transfers). Every descendant of an uncovered operation is
// uncovered and carries an uncovered value, so no chain below an uncovered
// operation ever shortens, and a rewired operation still waits on its
// reload.
int remainingInstructionsBound(const CoverStepState& s) {
  int bound = s.topChain;
  for (const int load : s.unitLoad) bound = std::max(bound, load);
  return bound;
}

}  // namespace

// The covering engine computes it once per clique-round sort (the first
// round and after every spill) and, in DCHECK builds, after every step to
// check the incremental updates of advanceStepState.
void computeStepState(const AssignedGraph& graph, const DynBitset& covered,
                      const DynBitset& liveOut,
                      const std::vector<int>& heights, CoverStepState& s) {
  const size_t n = graph.size();
  s.ready.clearAndResize(n);
  s.baseLive.clearAndResize(n);
  s.basePressure.assign(graph.machine().regFiles().size(), 0);
  s.pendingPreds.assign(n, 0);
  s.pendingSuccs.assign(n, 0);
  s.unitLoad.assign(graph.machine().units().size(), 0);
  const int maxHeight =
      heights.empty() ? 0 : *std::max_element(heights.begin(), heights.end());
  s.chainCount.assign(static_cast<size_t>(maxHeight) + 3, 0);
  s.topChain = 0;
  for (AgId id = 0; id < n; ++id) {
    const AgNode& node = graph.node(id);
    for (AgId pred : node.preds) s.pendingPreds[id] += !covered.test(pred);
    for (AgId succ : node.succs) s.pendingSuccs[id] += !covered.test(succ);
    if (covered.test(id)) {
      if (node.definesRegister() &&
          (liveOut.test(id) || s.pendingSuccs[id] > 0)) {
        s.baseLive.set(id);
        s.basePressure[node.defLoc.index] += 1;
      }
      continue;
    }
    if (s.pendingPreds[id] == 0) s.ready.set(id);
    if (node.kind != AgKind::kOp) continue;
    s.unitLoad[node.unit] += 1;
    const int key = heights[id] + 1 + (s.pendingPreds[id] > 0 ? 1 : 0);
    s.chainCount[static_cast<size_t>(key)] += 1;
    s.topChain = std::max(s.topChain, key);
  }
}

// Only the members, their successors and their predecessors change:
// members leave the ready set and the counts; a successor whose last
// uncovered predecessor was a member becomes ready (its chain key drops by
// one); a member value with a consumer left, or a block output, starts
// holding a register; a producer whose last uncovered consumer was a
// member frees its register.
void advanceStepState(const AssignedGraph& graph,
                      Span<const uint32_t> members, const DynBitset& covered,
                      const DynBitset& liveOut,
                      const std::vector<int>& heights, CoverStepState& s) {
  for (const uint32_t m : members) {
    const AgNode& node = graph.node(m);
    AVIV_DCHECK(s.ready.test(m) && covered.test(m));
    s.ready.reset(m);
    if (node.kind == AgKind::kOp) {
      s.unitLoad[node.unit] -= 1;
      s.chainCount[static_cast<size_t>(heights[m]) + 1] -= 1;
    }
    for (AgId succ : node.succs) {
      if (--s.pendingPreds[succ] != 0) continue;
      s.ready.set(succ);
      if (graph.node(succ).kind != AgKind::kOp) continue;
      s.chainCount[static_cast<size_t>(heights[succ]) + 2] -= 1;
      s.chainCount[static_cast<size_t>(heights[succ]) + 1] += 1;
    }
    // No member is another member's producer (members were ready), so this
    // member's own consumer count is final here.
    if (node.definesRegister() &&
        (liveOut.test(m) || s.pendingSuccs[m] > 0)) {
      s.baseLive.set(m);
      s.basePressure[node.defLoc.index] += 1;
    }
    for (AgId pred : node.preds) {
      if (--s.pendingSuccs[pred] != 0) continue;
      if (!s.baseLive.test(pred) || liveOut.test(pred)) continue;
      s.baseLive.reset(pred);
      s.basePressure[graph.node(pred).defLoc.index] -= 1;
    }
  }
  while (s.topChain > 0 && s.chainCount[static_cast<size_t>(s.topChain)] == 0)
    --s.topChain;
}

bool probePressure(const AssignedGraph& graph, const CoverStepState& step,
                   const DynBitset& covered, const DynBitset& liveOut,
                   const DynBitset& set, ProbeScratch& s) {
  if (s.retireTouched.size() != graph.size())
    s.retireTouched.clearAndResize(graph.size());
  s.pressure = step.basePressure;
  s.retireList.clear();
  set.forEach([&](size_t i) {
    const auto m = static_cast<AgId>(i);
    const AgNode& n = graph.node(m);
    if (n.definesRegister()) {
      bool live = liveOut.test(m);
      if (!live)
        for (AgId succ : n.succs)
          if (!covered.test(succ) && !set.test(succ)) {
            live = true;
            break;
          }
      if (live) s.pressure[n.defLoc.index] += 1;
    }
    for (AgId pred : n.preds) {
      // Only covered producers counted live via an uncovered consumer can
      // flip; liveOut producers never retire.
      if (!step.baseLive.test(pred) || liveOut.test(pred)) continue;
      if (s.retireTouched.test(pred)) continue;
      s.retireTouched.set(pred);
      s.retireList.push_back(pred);
      bool stillLive = false;
      for (AgId succ : graph.node(pred).succs)
        if (!covered.test(succ) && !set.test(succ)) {
          stillLive = true;
          break;
        }
      if (!stillLive) s.pressure[graph.node(pred).defLoc.index] -= 1;
    }
  });
  for (const uint32_t pred : s.retireList) s.retireTouched.reset(pred);
  AVIV_DCHECK(s.pressure == bankPressure(graph, covered, &set));
  return pressureWithinLimits(graph, s.pressure);
}

Schedule CoveringEngine::run(CoverStats* stats) {
  return *cover(stats, nullptr);
}

std::optional<Schedule> CoveringEngine::run(CoverStats* stats,
                                            const CoverCutoff& cutoff) {
  return cover(stats, &cutoff);
}

std::optional<Schedule> CoveringEngine::cover(CoverStats* stats,
                                              const CoverCutoff* cutoff) {
  CoverStats localStats;
  CoverStats& st = stats != nullptr ? *stats : localStats;
  st = CoverStats{};

  Schedule schedule;
  CoverWorkspace& ws = *ws_;
  DynBitset& covered = ws.covered;
  covered.clearAndResize(graph_.size());
  for (AgId id = 0; id < graph_.size(); ++id)
    if (graph_.node(id).deleted()) covered.set(id);

  // Output bindings never change during covering, so the live-out set for
  // the pressure probes is computed once (extended in place after spills).
  DynBitset& liveOut = ws.liveOut;
  graph_.liveOutInto(liveOut);

  SpillState spillState;
  std::vector<DynBitset> cliques;
  // Level from top (critical-path priority), refreshed at every rebuild.
  const std::vector<int>& heights = ws.levelTop;
  // The ready set, the live covered values and their bank pressure, and the
  // bound's counts: updated per emitted instruction, recomputed per rebuild.
  CoverStepState& step = ws.step;
  const DynBitset& ready = step.ready;
  bool rebuild = true;
  const size_t spillGuard = 4 * graph_.size() + 64;

  while (true) {
    if (covered.count() == graph_.size()) break;
    if (deadline_ != nullptr) {
      trace::instant("search", "cover.deadline-poll", {}, "covered",
                     static_cast<int64_t>(covered.count()), "total",
                     static_cast<int64_t>(graph_.size()));
      deadline_->check("covering");
    }

    if (rebuild) {
      graph_.orderAndLevelsInto(ws);
      computeStepState(graph_, covered, liveOut, heights, step);
    }
    // The bound is checked before the first round and after every emitted
    // instruction or spill; without a cutoff only the round-0 value is
    // recorded.
    if (cutoff != nullptr || st.cliqueRounds == 0) {
      const int bound =
          schedule.numInstructions() + remainingInstructionsBound(step);
      if (st.cliqueRounds == 0) st.lowerBound = bound;
      if (cutoff != nullptr &&
          std::tie(bound, st.spillsInserted) >=
              std::tie(cutoff->instructions, cutoff->spills)) {
        trace::instant("search", "cover.cut", {}, "bound", bound,
                       "spillsSoFar", st.spillsInserted);
        return std::nullopt;
      }
    }

    if (rebuild) {
      trace::Span roundSpan("search", "cover.clique-round");
      ws.matrix.rebuild(graph_, ws.topoOrder, heights,
                        options_.cliqueLevelWindow, ws);
      DynBitset& active = ws.active;
      active.clearAndResize(graph_.size());
      active.setAll();
      active.andNot(covered);
      CliqueGenStats genStats;
      cliques = enforceLegality(
          generateMaximalCliques(ws.matrix, active, kMaxCliquesPerRound,
                                 &genStats, &ws.arena),
          graph_, constraints_, &ws.legality);
      st.cliqueRecursions += genStats.recursions;
      roundSpan.arg("cliques", static_cast<int64_t>(genStats.emitted));
      roundSpan.arg("recursions", static_cast<int64_t>(genStats.recursions));
      if (metrics::on()) {
        auto& sizes = metrics::Registry::instance().histogram(
            "cover.clique.size");
        for (const DynBitset& clique : cliques)
          sizes.record(static_cast<int64_t>(clique.count()));
      }
      // If the generation cap truncated the clique set, guarantee coverage
      // with singletons so every node remains schedulable.
      if (genStats.capped) {
        DynBitset inSomeClique(graph_.size());
        for (const DynBitset& clique : cliques) inSomeClique |= clique;
        active.forEach([&](size_t i) {
          if (inSomeClique.test(i)) return;
          DynBitset singleton(graph_.size());
          singleton.set(i);
          cliques.push_back(std::move(singleton));
        });
      }
      st.cliquesGenerated += cliques.size();
      st.cliqueRounds += 1;
      // Hard ceiling across rounds: the per-round cap bounds each rebuild,
      // but a hostile parallelism graph can keep regenerating huge clique
      // sets round after round. Recoverable — the driver degrades to the
      // baseline generator.
      if (options_.maxTotalCliques != 0 &&
          st.cliquesGenerated > options_.maxTotalCliques)
        throw ResourceLimitExceeded("total cliques", st.cliquesGenerated,
                                    options_.maxTotalCliques);
      rebuild = false;
    }

    AVIV_REQUIRE_MSG(ready.any(),
                     "covering deadlock: uncovered nodes but none ready");

    // Candidate selection: largest number of ready uncovered nodes whose
    // register requirements fit. A maximal clique whose full ready set
    // would exceed a bank is shrunk to its largest fitting subset (operation
    // nodes preferred — they kill operands — then transfers). Surviving
    // candidates are (offset, count) slices into ws.memberPool instead of
    // per-candidate bitsets.
    std::vector<CoverCandidate>& candidates = ws.candidates;
    candidates.clear();
    ws.memberPool.clear();
    bool anyReadyClique = false;
    size_t bestScore = 0;  // the best candidate score so far this step
    // Distinct eligible sets probed so far this step. The probe and the
    // member shrink are pure functions of (eligible, covered), and a
    // duplicate candidate can never win a strict tie-break against its
    // original — so repeats are resolved without re-probing: a duplicate
    // of a survivor is dropped, a duplicate of an abandoned set is
    // abandoned again.
    size_t seenCount = 0;
    ws.seenAbandoned.clear();
    // A clique whose members are all covered can never intersect a ready
    // set again (ready ⊆ uncovered), so the scan drops it for later steps
    // and the lookahead. The compaction is stable: it keeps the
    // enumeration order — and with it every tie-break — unchanged.
    size_t alive = 0;
    ws.touching.clear();
    ws.touchingReady.clear();
    for (size_t ci = 0; ci < cliques.size(); ++ci) {
      // ready excludes covered by construction, so clique ∩ ready equals
      // the old clique ∩ ~covered ∩ ready. Most cliques miss the ready set
      // entirely; the intersects probe skips them without copying.
      const bool touchesReady = cliques[ci].intersects(ready);
      if (!touchesReady && cliques[ci].isSubsetOf(covered)) continue;
      if (alive != ci) cliques[alive] = std::move(cliques[ci]);
      const DynBitset& clique = cliques[alive++];
      if (!touchesReady) continue;
      DynBitset& eligible = ws.eligible;
      eligible = clique;
      eligible &= ready;
      anyReadyClique = true;
      ++st.candidatesEvaluated;
      const size_t size = eligible.count();
      ws.touching.push_back(static_cast<uint32_t>(alive - 1));
      ws.touchingReady.push_back(static_cast<uint32_t>(size));
      // The step takes a set of the best score, and a set scores at most
      // its size: one smaller than the best so far cannot tie, so it is
      // neither probed nor fitted. While that best is 0 nothing is skipped,
      // so the spill decision is unchanged. A later duplicate of a skipped
      // set is skipped too, as the best only grows.
      if (size < bestScore) continue;

      bool duplicate = false;
      for (size_t j = 0; j < seenCount; ++j) {
        if (ws.seenEligible[j] != eligible) continue;
        duplicate = true;
        if (ws.seenAbandoned[j] != 0) ++st.candidatesAbandoned;
        break;
      }
      if (duplicate) continue;
      if (seenCount < ws.seenEligible.size())
        ws.seenEligible[seenCount] = eligible;
      else
        ws.seenEligible.push_back(eligible);
      ws.seenAbandoned.push_back(0);
      const size_t seenIdx = seenCount++;

      const DynBitset* members = &eligible;
      if (!probePressure(graph_, step, covered, liveOut, eligible, ws.probe)) {
        // A set that does not fit whole fits at most size - 1 members.
        if (size - 1 < bestScore) continue;
        // Greedy fit: ops first (they retire operand values), then
        // transfers, in id order.
        ws.tryOrder.clear();
        eligible.forEach([&](size_t i) {
          if (graph_.node(static_cast<AgId>(i)).kind == AgKind::kOp)
            ws.tryOrder.push_back(static_cast<uint32_t>(i));
        });
        eligible.forEach([&](size_t i) {
          if (graph_.node(static_cast<AgId>(i)).kind != AgKind::kOp)
            ws.tryOrder.push_back(static_cast<uint32_t>(i));
        });
        DynBitset& fit = ws.members;
        fit.clearAndResize(graph_.size());
        for (uint32_t id : ws.tryOrder) {
          fit.set(id);
          if (!probePressure(graph_, step, covered, liveOut, fit, ws.probe))
            fit.reset(id);
        }
        members = &fit;
      }
      const size_t memberBegin = ws.memberPool.size();
      members->forEach(
          [&](size_t i) { ws.memberPool.push_back(static_cast<uint32_t>(i)); });
      const size_t score = ws.memberPool.size() - memberBegin;
      if (score == 0) {
        // No member subset fits the register banks: the candidate is
        // abandoned and the spill path may have to fire this round.
        ++st.candidatesAbandoned;
        ws.seenAbandoned[seenIdx] = 1;
        continue;
      }
      candidates.push_back({memberBegin, score});
      bestScore = std::max(bestScore, score);
    }
    cliques.erase(cliques.begin() + static_cast<std::ptrdiff_t>(alive),
                  cliques.end());

    if (!candidates.empty()) {
      // Max score first.
      std::vector<uint32_t>& tied = ws.tied;
      tied.clear();
      for (size_t c = 0; c < candidates.size(); ++c)
        if (candidates[c].score == bestScore)
          tied.push_back(static_cast<uint32_t>(c));

      // Section IV-D tie-break: a one-step lookahead estimating how well the
      // rest can be covered, refined by critical-path height so operand
      // chains that gate the most downstream work are started first.
      const size_t readyCount = ready.count();
      auto lookaheadScore = [&](const CoverCandidate& cand) -> size_t {
        // Simulate covering the members in place (`covered` is restored
        // before returning). Ready-set delta: the members leave it, and the
        // only nodes that can join are their successors — everyone else's
        // predecessors are untouched.
        DynBitset& readyAfter = ws.readyAfter;
        readyAfter = ready;
        for (size_t k = 0; k < cand.score; ++k) {
          const uint32_t m = ws.memberPool[cand.memberBegin + k];
          covered.set(m);
          readyAfter.reset(m);
        }
        for (size_t k = 0; k < cand.score; ++k) {
          const uint32_t m = ws.memberPool[cand.memberBegin + k];
          for (AgId succ : graph_.node(m).succs) {
            if (covered.test(succ)) continue;
            bool allPreds = true;
            for (AgId pred : graph_.node(succ).preds)
              allPreds &= covered.test(pred);
            if (allPreds) readyAfter.set(succ);
          }
        }
        // readyAfter excludes covered-after by construction, so the old
        // clique ∩ ~coveredAfter ∩ readyAfter count is a plain intersection
        // — and no clique can beat |readyAfter| itself. readyAfter is the
        // ready set without the members plus `fresh` newly ready nodes, so a
        // clique counts at most its ready count plus `fresh`, and one that
        // misses the ready set at most `fresh`: the cliques that touch the
        // ready set are counted first, the rest only while the best count
        // is below `fresh`.
        const size_t cap = readyAfter.count();
        const size_t fresh = cap - (readyCount - cand.score);
        size_t next = 0;
        for (size_t t = 0; t < ws.touching.size() && next < cap; ++t) {
          if (ws.touchingReady[t] + fresh <= next) continue;
          next = std::max(
              next, cliques[ws.touching[t]].intersectCount(readyAfter));
        }
        for (size_t ci = 0; ci < cliques.size() && next < fresh; ++ci)
          next = std::max(next, cliques[ci].intersectCount(readyAfter));
#if AVIV_DCHECKS_ENABLED
        size_t full = 0;
        for (const DynBitset& clique : cliques)
          full = std::max(full, clique.intersectCount(readyAfter));
        AVIV_DCHECK_MSG(next == full,
                        "lookahead count differs from a scan of every clique");
#endif
        for (size_t k = 0; k < cand.score; ++k)
          covered.reset(ws.memberPool[cand.memberBegin + k]);
        return next;
      };
      auto heightKey = [&](const CoverCandidate& cand) {
        int maxHeight = 0;
        long sumHeight = 0;
        for (size_t k = 0; k < cand.score; ++k) {
          const uint32_t i = ws.memberPool[cand.memberBegin + k];
          maxHeight = std::max(maxHeight, heights[i]);
          sumHeight += heights[i];
        }
        return std::make_pair(maxHeight, sumHeight);
      };

      const CoverCandidate* chosen = &candidates[tied.front()];
      if (tied.size() > 1) {
        size_t bestNext = options_.coverLookahead ? lookaheadScore(*chosen) : 0;
        auto bestHeight = heightKey(*chosen);
        for (size_t t = 1; t < tied.size(); ++t) {
          const CoverCandidate* cand = &candidates[tied[t]];
          const size_t next =
              options_.coverLookahead ? lookaheadScore(*cand) : 0;
          const auto height = heightKey(*cand);
          if (std::tie(next, height) > std::tie(bestNext, bestHeight)) {
            bestNext = next;
            bestHeight = height;
            chosen = cand;
          }
        }
      }

      const Span<const uint32_t> members(
          ws.memberPool.data() + chosen->memberBegin, chosen->score);
      for (const uint32_t id : members) covered.set(id);
      schedule.instrs.emplace_back(members.begin(), members.end());
      advanceStepState(graph_, members, covered, liveOut, heights, step);
#if AVIV_DCHECKS_ENABLED
      computeStepState(graph_, covered, liveOut, heights, ws.stepCheck);
      AVIV_DCHECK_MSG(ws.stepCheck == step,
                      "incremental covering step state diverged from a "
                      "from-scratch recomputation");
#endif
      continue;
    }

    // No selectable clique: all remaining groupings would exceed register
    // resources (Section IV-D spill path).
    AVIV_REQUIRE_MSG(anyReadyClique,
                     "ready nodes exist but no clique contains one");
    if (st.spillsInserted >= static_cast<int>(spillGuard))
      throw Error("block '" + graph_.ir().name() + "' on machine '" +
                  graph_.machine().name() +
                  "': this functional-unit assignment cannot satisfy the "
                  "register limits (spill limit reached)");

    trace::instant("search", "cover.spill", {}, "spillsSoFar",
                   st.spillsInserted, "covered",
                   static_cast<int64_t>(covered.count()), "ready",
                   static_cast<int64_t>(ready.count()));
    const AgId victim = performSpill(graph_, xferDb_, covered, spillState,
                                     step.basePressure, liveOut);
    st.spillsInserted += 1;
    if (graph_.node(victim).kind == AgKind::kSpillLoad) st.reloadsEvicted += 1;

    // Graph grew: extend the bookkeeping (scheduled bits are preserved by
    // the resize; new nodes start uncovered; deletions become covered).
    // performSpill has verified the mutated graph's nodes; the rebuild's
    // topological sort checks it stays acyclic.
    covered.resize(graph_.size(), false);
    liveOut.resize(graph_.size(), false);
    for (AgId id = 0; id < graph_.size(); ++id)
      if (graph_.node(id).deleted()) covered.set(id);
    rebuild = true;
  }

  verifySchedule(graph_, schedule, constraints_);
  return schedule;
}

void verifySchedule(const AssignedGraph& graph, const Schedule& schedule,
                    const ConstraintDatabase& constraints) {
  const Machine& machine = graph.machine();
  const auto cycle = schedule.cycles(graph.size());

  // Every active node exactly once.
  std::vector<int> seen(graph.size(), 0);
  for (const auto& instr : schedule.instrs)
    for (AgId id : instr) seen[id] += 1;
  for (AgId id = 0; id < graph.size(); ++id) {
    const bool active = !graph.node(id).deleted();
    AVIV_REQUIRE_MSG(seen[id] == (active ? 1 : 0),
                   graph.describe(id) << " scheduled " << seen[id]
                                      << " times");
  }

  InstrScratch legality;
  for (size_t c = 0; c < schedule.instrs.size(); ++c) {
    const auto& instr = schedule.instrs[c];
    // Dependencies strictly earlier.
    for (AgId id : instr) {
      for (AgId pred : graph.node(id).preds) {
        AVIV_REQUIRE_MSG(cycle[pred] >= 0 &&
                           cycle[pred] < static_cast<int>(c),
                       graph.describe(id) << " scheduled before its operand "
                                          << graph.describe(pred));
      }
    }
    const InstrFault fault =
        firstInstrFault(graph, instr, kNoAg, constraints, legality);
    AVIV_REQUIRE_MSG(fault.kind != InstrFault::Kind::kUnit,
                     "two ops on unit " << machine.unit(fault.unit).name
                                        << " in instruction " << c);
    AVIV_REQUIRE_MSG(fault.kind != InstrFault::Kind::kBus,
                     "bus " << machine.bus(fault.bus).name
                            << " oversubscribed in " << c);
    AVIV_REQUIRE_MSG(!fault, "ISDL constraint violated in instruction " << c);
  }

  // Register pressure: per-bank live counts after each instruction.
  PressureScratch scratch;
  const std::optional<PressureOverflow> overflow = firstPressureOverflow(
      graph, cycle, schedule.instrs.size(), scratch);
  AVIV_REQUIRE_MSG(!overflow,
                   "bank " << machine.regFile(overflow->bank).name
                           << " exceeds its registers after instruction "
                           << overflow->instr);
}

std::optional<PressureOverflow> firstPressureOverflow(
    const AssignedGraph& graph, const std::vector<int>& cycle,
    size_t numInstructions, PressureScratch& scratch, AgId renamedFrom,
    AgId renamedTo) {
  const Machine& machine = graph.machine();
  const size_t n = graph.size();
  DynBitset& liveOut = scratch.liveOut;
  graph.liveOutInto(liveOut);
  std::vector<int>& lastUse = scratch.lastUse;
  lastUse.assign(n, -1);
  for (AgId id = 0; id < n; ++id) {
    const int c = cycle[id];
    if (c < 0) continue;
    for (AgId pred : graph.node(id).preds) {
      const AgId read = pred == renamedFrom ? renamedTo : pred;
      lastUse[read] = std::max(lastUse[read], c);
    }
  }
  // Each value adds +1 at the start of its interval and -1 after it.
  const size_t banks = machine.regFiles().size();
  std::vector<int>& delta = scratch.delta;
  delta.assign((numInstructions + 1) * banks, 0);
  for (AgId id = 0; id < n; ++id) {
    const int born = cycle[id];
    if (born < 0) continue;
    const AgNode& node = graph.node(id);
    if (!node.definesRegister()) continue;
    const int freed = liveOut.test(id) ? static_cast<int>(numInstructions)
                      : lastUse[id] < 0 ? born + 1
                                        : lastUse[id];
    if (freed <= born) continue;
    delta[static_cast<size_t>(born) * banks + node.defLoc.index] += 1;
    delta[static_cast<size_t>(freed) * banks + node.defLoc.index] -= 1;
  }
  std::vector<int>& pressure = scratch.pressure;
  pressure.assign(banks, 0);
  for (size_t c = 0; c < numInstructions; ++c) {
    for (size_t bank = 0; bank < banks; ++bank) {
      pressure[bank] += delta[c * banks + bank];
      if (pressure[bank] >
          machine.regFile(static_cast<RegFileId>(bank)).numRegs)
        return PressureOverflow{static_cast<int>(c),
                                static_cast<RegFileId>(bank)};
    }
  }
  return std::nullopt;
}

}  // namespace aviv
