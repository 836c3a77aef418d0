#include "core/cover.h"

#include <algorithm>
#include <map>
#include <set>
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

// Live-out values (block outputs) never die.
DynBitset liveOutSet(const AssignedGraph& graph) {
  DynBitset liveOut(graph.size());
  for (const auto& [name, def] : graph.outputDefs())
    if (def != kNoAg) liveOut.set(def);
  return liveOut;
}

// Lower bound on the instructions a covering still has to emit once the
// nodes in `covered` are scheduled: the larger of
//   * the most uncovered operations waiting on one functional unit (each
//     instruction issues at most one operation per unit), and
//   * the longest dependency chain starting at an uncovered operation, plus
//     one when that operation still waits on an uncovered predecessor
//     (every node on a chain needs its own, later instruction).
// `heights` is AssignedGraph::levelsFromTop() of the current graph;
// `unitLoad` is scratch. Spills keep the bound valid: they never delete or
// re-unit an operation and only rewire consumers of covered values (onto
// reload chains, deleting those values' transfers). Every descendant of an
// uncovered operation is uncovered and carries an uncovered value, so no
// chain below an uncovered operation ever shortens, and a rewired
// operation still waits on its reload.
int remainingInstructionsBound(const AssignedGraph& graph,
                               const DynBitset& covered,
                               const std::vector<int>& heights,
                               std::vector<int>& unitLoad) {
  unitLoad.assign(graph.machine().units().size(), 0);
  int bound = 0;
  for (AgId id = 0; id < graph.size(); ++id) {
    const AgNode& n = graph.node(id);
    if (n.kind != AgKind::kOp || covered.test(id)) continue;
    bound = std::max(bound, ++unitLoad[n.unit]);
    bool waits = false;
    for (AgId pred : n.preds) waits |= !covered.test(pred);
    bound = std::max(bound, heights[id] + 1 + (waits ? 1 : 0));
  }
  return bound;
}

}  // namespace

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
  liveOut.clearAndResize(graph_.size());
  for (const auto& [name, def] : graph_.outputDefs())
    if (def != kNoAg) liveOut.set(def);

  SpillState spillState;
  std::vector<DynBitset> cliques;
  std::vector<int> heights;  // level from top: critical-path priority
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

    if (rebuild) heights = graph_.levelsFromTop();
    // The bound is checked before the first round and after every emitted
    // instruction or spill; without a cutoff only the round-0 value is
    // recorded.
    if (cutoff != nullptr || st.cliqueRounds == 0) {
      const int bound =
          schedule.numInstructions() +
          remainingInstructionsBound(graph_, covered, heights, ws.unitLoad);
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
      ws.matrix.rebuild(graph_, options_.cliqueLevelWindow, ws);
      DynBitset& active = ws.active;
      active.clearAndResize(graph_.size());
      active.setAll();
      active.andNot(covered);
      CliqueGenStats genStats;
      cliques = enforceLegality(
          generateMaximalCliques(ws.matrix, active,
                                 options_.maxCliquesPerRound, &genStats,
                                 &ws.arena),
          graph_, constraints_);
      st.cliqueRecursions += genStats.recursions;
      roundSpan.arg("cliques", static_cast<int64_t>(genStats.emitted));
      roundSpan.arg("recursions", static_cast<int64_t>(genStats.recursions));
      if (metrics::on()) {
        auto& registry = metrics::Registry::instance();
        auto& sizes = registry.histogram("cover.clique.size");
        for (const DynBitset& clique : cliques)
          sizes.record(static_cast<int64_t>(clique.count()));
        registry.counter("search.cliqueRecursions")
            .add(static_cast<int64_t>(genStats.recursions));
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

    // A clique whose members are all covered can never intersect a ready
    // set again (ready ⊆ uncovered), so later rounds and the lookahead need
    // not rescan it. Stable removal keeps the enumeration order — and with
    // it every tie-break — unchanged.
    std::erase_if(cliques, [&](const DynBitset& clique) {
      return clique.isSubsetOf(covered);
    });

    // Ready nodes: uncovered with all predecessors covered.
    DynBitset& ready = ws.ready;
    ready.clearAndResize(graph_.size());
    for (AgId id = 0; id < graph_.size(); ++id) {
      if (covered.test(id)) continue;
      bool allPreds = true;
      for (AgId pred : graph_.node(id).preds) allPreds &= covered.test(pred);
      if (allPreds) ready.set(id);
    }
    AVIV_REQUIRE_MSG(ready.any(),
                     "covering deadlock: uncovered nodes but none ready");

    // Pressure baseline for this round: `covered` is fixed across the clique
    // scan below, so the live set of covered producers (and the bank
    // pressure they induce) is computed once. The per-clique probe then only
    // adjusts for the clique's own members and for the covered producers
    // whose last uncovered consumers those members are — equivalent to
    // bankPressureInto(graph_, liveOut, covered, &eligible, ...) but
    // O(clique size) instead of O(graph size) per candidate.
    DynBitset& baseLive = ws.baseLive;
    baseLive.clearAndResize(graph_.size());
    std::vector<int>& basePressure = ws.basePressure;
    basePressure.assign(graph_.machine().regFiles().size(), 0);
    for (AgId v = 0; v < graph_.size(); ++v) {
      const AgNode& n = graph_.node(v);
      if (!n.definesRegister() || !covered.test(v)) continue;
      bool live = liveOut.test(v);
      if (!live)
        for (AgId succ : n.succs)
          if (!covered.test(succ)) {
            live = true;
            break;
          }
      if (live) {
        baseLive.set(v);
        basePressure[n.defLoc.index] += 1;
      }
    }
    DynBitset& retireTouched = ws.retireTouched;
    retireTouched.clearAndResize(graph_.size());

    // Candidate selection: largest number of ready uncovered nodes whose
    // register requirements fit. A maximal clique whose full ready set
    // would exceed a bank is shrunk to its largest fitting subset (operation
    // nodes preferred — they kill operands — then transfers). Surviving
    // candidates are (offset, count) slices into ws.memberPool instead of
    // per-candidate bitsets.
    struct Candidate {
      size_t cliqueIdx;
      size_t memberBegin;  // slice into ws.memberPool (ascending ids)
      size_t score;        // slice length == member count
    };
    std::vector<Candidate> candidates;
    ws.memberPool.clear();
    bool anyReadyClique = false;
    // Distinct eligible sets probed so far this round. The probe and the
    // member shrink are pure functions of (eligible, covered), and a
    // duplicate candidate can never win a strict tie-break against its
    // original — so repeats are resolved without re-probing: a duplicate
    // of a survivor is dropped, a duplicate of an abandoned set is
    // abandoned again.
    size_t seenCount = 0;
    ws.seenAbandoned.clear();
    for (size_t ci = 0; ci < cliques.size(); ++ci) {
      // ready excludes covered by construction, so clique ∩ ready equals
      // the old clique ∩ ~covered ∩ ready. Most cliques miss the ready set
      // entirely; the intersects probe skips them without copying.
      if (!cliques[ci].intersects(ready)) continue;
      DynBitset& eligible = ws.eligible;
      eligible = cliques[ci];
      eligible &= ready;
      anyReadyClique = true;
      ++st.candidatesEvaluated;

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
      // Incremental pressure probe (see the baseline above): start from the
      // round's base pressure, add the clique's own register-defining
      // members, and retire covered producers whose every remaining
      // consumer sits in the clique.
      ws.pressure = basePressure;
      ws.retireList.clear();
      eligible.forEach([&](size_t i) {
        const auto m = static_cast<AgId>(i);
        const AgNode& n = graph_.node(m);
        if (n.definesRegister()) {
          bool live = liveOut.test(m);
          if (!live)
            for (AgId succ : n.succs)
              if (!covered.test(succ) && !eligible.test(succ)) {
                live = true;
                break;
              }
          if (live) ws.pressure[n.defLoc.index] += 1;
        }
        for (AgId pred : n.preds) {
          // Only covered producers counted live via an uncovered consumer
          // can flip; liveOut producers never retire.
          if (!baseLive.test(pred) || liveOut.test(pred)) continue;
          if (retireTouched.test(pred)) continue;
          retireTouched.set(pred);
          ws.retireList.push_back(pred);
          bool stillLive = false;
          for (AgId succ : graph_.node(pred).succs)
            if (!covered.test(succ) && !eligible.test(succ)) {
              stillLive = true;
              break;
            }
          if (!stillLive) ws.pressure[graph_.node(pred).defLoc.index] -= 1;
        }
      });
      for (const uint32_t pred : ws.retireList) retireTouched.reset(pred);
      if (!pressureWithinLimits(graph_, ws.pressure)) {
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
          bankPressureInto(graph_, liveOut, covered, &fit, ws.pressure);
          if (!pressureWithinLimits(graph_, ws.pressure)) fit.reset(id);
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
      candidates.push_back({ci, memberBegin, score});
    }

    if (!candidates.empty()) {
      // Max score first.
      size_t bestScore = 0;
      for (const Candidate& c : candidates)
        bestScore = std::max(bestScore, c.score);
      std::vector<const Candidate*> tied;
      for (const Candidate& c : candidates)
        if (c.score == bestScore) tied.push_back(&c);

      // Section IV-D tie-break: a one-step lookahead estimating how well the
      // rest can be covered, refined by critical-path height so operand
      // chains that gate the most downstream work are started first.
      auto lookaheadScore = [&](const Candidate& cand) -> size_t {
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
        // — and no clique can beat |readyAfter| itself.
        size_t next = 0;
        const size_t cap = readyAfter.count();
        for (const DynBitset& clique : cliques) {
          next = std::max(next, clique.intersectCount(readyAfter));
          if (next == cap) break;
        }
        for (size_t k = 0; k < cand.score; ++k)
          covered.reset(ws.memberPool[cand.memberBegin + k]);
        return next;
      };
      auto heightKey = [&](const Candidate& cand) {
        int maxHeight = 0;
        long sumHeight = 0;
        for (size_t k = 0; k < cand.score; ++k) {
          const uint32_t i = ws.memberPool[cand.memberBegin + k];
          maxHeight = std::max(maxHeight, heights[i]);
          sumHeight += heights[i];
        }
        return std::make_pair(maxHeight, sumHeight);
      };

      const Candidate* chosen = tied.front();
      if (tied.size() > 1) {
        size_t bestNext = options_.coverLookahead ? lookaheadScore(*chosen) : 0;
        auto bestHeight = heightKey(*chosen);
        for (size_t t = 1; t < tied.size(); ++t) {
          const Candidate* cand = tied[t];
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

      std::vector<AgId> instr;
      instr.reserve(chosen->score);
      for (size_t k = 0; k < chosen->score; ++k) {
        const AgId id = ws.memberPool[chosen->memberBegin + k];
        instr.push_back(id);
        covered.set(id);
      }
      schedule.instrs.push_back(std::move(instr));
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
    performSpill(graph_, xferDb_, covered, spillState);
    st.spillsInserted += 1;

    // Graph grew: extend the bookkeeping (scheduled bits are preserved by
    // the resize; new nodes start uncovered; deletions become covered).
    covered.resize(graph_.size(), false);
    liveOut.resize(graph_.size(), false);
    for (AgId id = 0; id < graph_.size(); ++id)
      if (graph_.node(id).deleted()) covered.set(id);
    graph_.verify();
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
    // Unit exclusivity.
    std::set<UnitId> units;
    std::map<BusId, int> busLoad;
    std::vector<OpSel> sels;
    for (AgId id : instr) {
      const AgNode& n = graph.node(id);
      if (n.kind == AgKind::kOp) {
        AVIV_REQUIRE_MSG(units.insert(n.unit).second,
                       "two ops on unit " << machine.unit(n.unit).name
                                          << " in instruction " << c);
        sels.push_back({n.unit, n.machineOp});
      } else if (n.isTransferish()) {
        busLoad[graph.busOf(id)] += 1;
      }
    }
    for (const auto& [bus, load] : busLoad)
      AVIV_REQUIRE_MSG(load <= machine.bus(bus).capacity,
                     "bus " << machine.bus(bus).name << " oversubscribed in "
                            << c);
    AVIV_REQUIRE_MSG(constraints.allows(sels),
                   "ISDL constraint violated in instruction " << c);
  }

  // Register pressure: per-bank live counts after each cycle.
  DynBitset liveOut = liveOutSet(graph);
  std::vector<int> lastUse(graph.size(), -1);
  for (AgId id = 0; id < graph.size(); ++id) {
    for (AgId pred : graph.node(id).preds)
      lastUse[pred] = std::max(lastUse[pred], cycle[id]);
  }
  for (size_t c = 0; c < schedule.instrs.size(); ++c) {
    std::vector<int> pressure(machine.regFiles().size(), 0);
    for (AgId id = 0; id < graph.size(); ++id) {
      const AgNode& n = graph.node(id);
      if (!n.definesRegister() || cycle[id] < 0) continue;
      const bool born = cycle[id] <= static_cast<int>(c);
      const bool aliveLater =
          liveOut.test(id) || lastUse[id] > static_cast<int>(c);
      // Dead defs (evicted reloads) occupy a register at their write
      // instant even though nothing reads them afterwards.
      const bool deadDefHere = cycle[id] == static_cast<int>(c) &&
                               lastUse[id] < 0 && !liveOut.test(id);
      if ((born && aliveLater) || deadDefHere)
        pressure[n.defLoc.index] += 1;
    }
    for (size_t bank = 0; bank < pressure.size(); ++bank)
      AVIV_REQUIRE_MSG(
          pressure[bank] <=
              machine.regFile(static_cast<RegFileId>(bank)).numRegs,
          "bank " << machine.regFile(static_cast<RegFileId>(bank)).name
                  << " exceeds its registers after instruction " << c);
  }
}

}  // namespace aviv
