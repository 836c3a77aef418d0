#include "baseline/optimal.h"

#include <algorithm>
#include <map>

#include "core/assign_explore.h"
#include "core/assigned.h"
#include "core/cover.h"
#include "core/legality.h"
#include "core/workspace.h"
#include "support/error.h"
#include "support/timer.h"

namespace aviv {

namespace {

// Cap on the functional-unit assignments enumerated (heuristics off grows
// them multiplicatively, Section IV-A); a capped space is not proven.
constexpr size_t kMaxAssignments = 1u << 20;

struct BitsetLess {
  bool operator()(const DynBitset& a, const DynBitset& b) const {
    return a.lexLess(b);
  }
};

// Branch-and-bound over schedules of one assignment.
class ScheduleSearch {
 public:
  ScheduleSearch(const AssignedGraph& graph, const ConstraintDatabase& cons,
                 const WallTimer& timer, double deadline, int* best,
                 size_t* statesVisited)
      : graph_(graph),
        cons_(cons),
        timer_(timer),
        deadline_(deadline),
        best_(best),
        states_(statesVisited),
        heights_(graph.levelsFromTop()) {
    graph.liveOutInto(liveOut_);
  }

  // True when the search space was exhausted (not cut by the deadline).
  bool run() {
    DynBitset covered(graph_.size());
    for (AgId id = 0; id < graph_.size(); ++id)
      if (graph_.node(id).deleted()) covered.set(id);
    expired_ = false;
    dfs(covered, 0);
    return !expired_;
  }

 private:
  int lowerBound(const DynBitset& covered) const {
    std::map<UnitId, int> unitLeft;
    std::map<BusId, int> busLeft;
    int critical = 0;
    for (AgId id = 0; id < graph_.size(); ++id) {
      if (graph_.node(id).deleted() || covered.test(id)) continue;
      const AgNode& n = graph_.node(id);
      if (n.kind == AgKind::kOp) unitLeft[n.unit] += 1;
      if (n.isTransferish()) busLeft[graph_.busOf(id)] += 1;
      critical = std::max(critical, heights_[id] + 1);
    }
    int bound = critical;
    for (const auto& [unit, left] : unitLeft) bound = std::max(bound, left);
    for (const auto& [bus, left] : busLeft) {
      const int cap = graph_.machine().bus(bus).capacity;
      bound = std::max(bound, (left + cap - 1) / cap);
    }
    return bound;
  }

  void dfs(const DynBitset& covered, int depth) {
    if (expired_) return;
    if ((++*states_ & 0x3ff) == 0 && timer_.seconds() > deadline_) {
      expired_ = true;
      return;
    }
    size_t coveredCount = covered.count();
    if (coveredCount == graph_.size()) {
      *best_ = std::min(*best_, depth);
      return;
    }
    if (depth + lowerBound(covered) >= *best_) return;

    // Dominance: a state reached at equal-or-smaller depth before subsumes
    // this one.
    if (const auto it = memo_.find(covered);
        it != memo_.end() && it->second <= depth)
      return;
    memo_[covered] = depth;

    // Ready nodes, and the live values the leaves' pressure probes start
    // from. The subsets are enumerated before any child search overwrites
    // the shared step state.
    computeStepState(graph_, covered, liveOut_, heights_, step_);
    std::vector<AgId> ready;
    step_.ready.forEach(
        [&](size_t i) { ready.push_back(static_cast<AgId>(i)); });
    AVIV_CHECK(!ready.empty());

    // Enumerate every legal nonempty subset of ready nodes, larger first.
    std::vector<DynBitset> subsets;
    DynBitset current(graph_.size());
    enumerateSubsets(ready, 0, current, covered, subsets);
    std::sort(subsets.begin(), subsets.end(),
              [](const DynBitset& a, const DynBitset& b) {
                return a.count() > b.count();
              });
    for (const DynBitset& subset : subsets) {
      DynBitset next = covered;
      next |= subset;
      dfs(next, depth + 1);
      if (expired_) return;
    }
  }

  // A node joins `current` only while firstInstrFault finds no fault. Its
  // rules are monotone (a faulty group stays faulty as members join), so
  // this drops exactly the subsets that would fail at the leaf. Pressure is
  // not monotone (a member can retire an operand), so the leaf checks it.
  void enumerateSubsets(const std::vector<AgId>& ready, size_t idx,
                        DynBitset& current, const DynBitset& covered,
                        std::vector<DynBitset>& out) {
    if (idx == ready.size()) {
      if (members_.empty()) return;
      if (!probePressure(graph_, step_, covered, liveOut_, current, probe_))
        return;
      out.push_back(current);
      return;
    }
    // Exclude ready[idx].
    enumerateSubsets(ready, idx + 1, current, covered, out);
    // Include ready[idx].
    if (firstInstrFault(graph_, members_, ready[idx], cons_, legality_))
      return;
    current.set(ready[idx]);
    members_.push_back(ready[idx]);
    enumerateSubsets(ready, idx + 1, current, covered, out);
    members_.pop_back();
    current.reset(ready[idx]);
  }

  const AssignedGraph& graph_;
  const ConstraintDatabase& cons_;
  const WallTimer& timer_;
  double deadline_;
  int* best_;
  size_t* states_;
  std::vector<int> heights_;
  DynBitset liveOut_;
  CoverStepState step_;
  ProbeScratch probe_;
  InstrScratch legality_;
  std::vector<AgId> members_;  // `current`'s members, in inclusion order
  bool expired_ = false;
  std::map<DynBitset, int, BitsetLess> memo_;
};

}  // namespace

OptimalResult optimalCodeSize(const BlockDag& ir, const Machine& machine,
                              const MachineDatabases& dbs,
                              const OptimalOptions& options) {
  WallTimer timer;
  OptimalResult result;

  CodegenOptions coreOptions = CodegenOptions::heuristicsOff();
  coreOptions.maxAssignments = kMaxAssignments;

  const SplitNodeDag snd = SplitNodeDag::build(ir, machine, dbs, coreOptions);
  AssignmentExplorer explorer(snd, coreOptions);
  ExploreStats exploreStats;
  const std::vector<Assignment> assignments = explorer.explore(&exploreStats);

  int best = options.incumbent;
  bool allExhausted = !exploreStats.capped;
  for (const Assignment& assignment : assignments) {
    if (timer.seconds() > options.timeLimitSeconds) {
      allExhausted = false;
      break;
    }
    AssignedGraph graph =
        AssignedGraph::materialize(snd, assignment, coreOptions);
    ScheduleSearch search(graph, dbs.constraints, timer,
                          options.timeLimitSeconds, &best,
                          &result.statesVisited);
    allExhausted &= search.run();
    result.assignmentsSearched += 1;
  }

  result.instructions = best == INT32_MAX ? -1 : best;
  // "Proven" requires exhausting the space; an unprimed incumbent that was
  // never beaten means infeasible-without-spills, which is also a proof
  // when the space was exhausted.
  result.proven = allExhausted;
  result.seconds = timer.seconds();
  return result;
}

}  // namespace aviv
