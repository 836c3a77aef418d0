#include "core/codegen.h"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "core/workspace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/timer.h"

namespace aviv {

namespace {

// What covering one candidate assignment did. Every candidate of a wave
// writes its own slot, so workers share nothing; the serial walk after the
// wave reads the slots in candidate order. A slot's contents depend only on
// its candidate and the wave's cutoff, never on the worker that filled it.
struct Outcome {
  enum class Kind : uint8_t { kSkipped, kCompleted, kCut, kInfeasible };
  Kind kind = Kind::kSkipped;  // kSkipped: the deadline expired first
  CoverStats cover;            // the covering's work, partial unless done
  uint64_t arenaCalls = 0;     // workspace-arena delta of this candidate
  uint64_t arenaBytes = 0;
  uint64_t arenaPeak = 0;
  std::string failure;    // kInfeasible: why the register limits failed
  double seconds = 0.0;   // kCompleted: wall time since covering started
  int64_t tsNanos = 0;    // kCompleted: trace timestamp of the finish
  Assignment assignment;  // kCompleted: the covering itself
  AssignedGraph graph;
  Schedule schedule;
};

}  // namespace

void requireCompilableBlock(const BlockDag& ir, const Machine& machine) {
  std::vector<bool> live(ir.size(), false);
  for (const auto& [name, id] : ir.outputs()) live[id] = true;
  for (NodeId id = ir.size(); id-- > 0;) {
    for (NodeId operand : ir.node(id).operands)
      if (live[id]) live[operand] = true;
  }
  for (NodeId id = 0; id < ir.size(); ++id) {
    if (isMachineOp(ir.node(id).op) && !live[id])
      throw Error("block '" + ir.name() + "': " + ir.describe(id) +
                  " is dead (not reachable from any output) — run "
                  "eliminateDeadCode before compiling");
  }
  for (const RegFile& rf : machine.regFiles()) {
    if (rf.numRegs < 2)
      throw Error("machine '" + machine.name() + "': register file " +
                  rf.name + " has fewer than 2 registers");
  }
}

CodegenOptions explorationOptions(const SplitNodeDag& snd,
                                  const CodegenOptions& options) {
  const BlockDag& ir = snd.ir();
  size_t space = 1;
  for (NodeId id = 0; id < ir.size(); ++id) {
    if (isLeafOp(ir.node(id).op)) continue;
    space *= snd.altsOf(id).size();
    if (space > CodegenOptions::smallSpaceExhaustive) return options;
  }
  CodegenOptions exhaustive = options;
  exhaustive.assignPruneIncremental = false;
  exhaustive.assignBeamWidth = 0;
  exhaustive.assignKeepBest = 1 << 30;
  return exhaustive;
}

CoreResult coverBlock(const BlockDag& ir, const Machine& machine,
                      const MachineDatabases& dbs,
                      const CodegenOptions& options, ThreadPool* pool,
                      TelemetryNode* phase, const Deadline* deadline) {
  WallTimer timer;
  TelemetryNode scratch("block:" + ir.name());
  TelemetryNode& tel = phase != nullptr ? *phase : scratch;

  // Deadline-free callers still honor the legacy timeLimitSeconds knob: the
  // budget clock starts here, exactly as the old ad-hoc timer did.
  Deadline localDeadline;
  if (deadline == nullptr) {
    localDeadline.arm(options.timeLimitSeconds);
    deadline = &localDeadline;
  }

  // Fault-injection site for the daemon's isolation tests: a covering that
  // dies mid-request must degrade, not take the process down.
  if (FailPoints::instance().shouldFail("cover-internal"))
    throw InternalError("block '" + ir.name() +
                        "': fail point 'cover-internal' fired");

  requireCompilableBlock(ir, machine);

  deadline->check("split-node construction");
  const SplitNodeDag snd = [&] {
    PhaseScope ph(tel, "splitnode");
    return SplitNodeDag::build(ir, machine, dbs, options);
  }();

  CoreStats stats;
  stats.irNodes = ir.size();
  stats.sndNodes = snd.size();

  const bool parallel = pool != nullptr && options.jobs > 1;
  const int numWorkers = parallel ? pool->parallelism() : 1;
  // One covering workspace per worker, shared by exploration (worker 0's
  // arena) and both covering passes.
  std::vector<CoverWorkspace> workspaces(static_cast<size_t>(numWorkers));

  const CodegenOptions exploreOptions = explorationOptions(snd, options);
  const std::vector<Assignment> assignments = [&] {
    PhaseScope ph(tel, "explore");
    AssignmentExplorer explorer(snd, exploreOptions, deadline,
                                &workspaces[0].arena);
    return explorer.explore(&stats.explore);
  }();
  AVIV_REQUIRE(!assignments.empty());

  if (metrics::on()) {
    auto& registry = metrics::Registry::instance();
    registry.histogram("core.snd.nodes")
        .record(static_cast<int64_t>(snd.size()));
    registry.histogram("core.ir.nodes")
        .record(static_cast<int64_t>(ir.size()));
  }

  // Exploration's contribution to the search totals; every candidate's
  // covering adds its own in the walk below.
  stats.search.nodesVisited += stats.explore.statesExpanded;
  stats.search.prunedByBound += stats.explore.prunedByBound;
  stats.search.backtracks += stats.explore.beamDropped;

  // The winner so far: the candidate of stats.trajectory.back().
  std::optional<Outcome> best;
  std::string lastFailure;

  // Covers the candidates in waves — candidate 0 alone, then fixed index
  // ranges of kCoverWave — each candidate of a wave against the best
  // covering of the earlier waves: CoveringEngine cuts it as soon as its
  // lower bound shows it cannot beat that cutoff. After each wave one
  // serial walk in candidate order sums the search totals, keeps the last
  // failure and extends the prefix minimum of (instructions, spills). Each
  // improvement is at once a trajectory point, the next wave's cutoff and
  // the winner, so the first candidate reaching the minimum wins, as in a
  // serial loop. A cut candidate could at best have tied the cutoff, so it
  // could neither win nor improve the trajectory; the walk reads only the
  // slots, so output and every counter are identical at any worker count.
  constexpr size_t kCoverWave = 8;
  auto tryAssignments = [&](const std::vector<Assignment>& candidates) {
    PhaseScope ph(tel, "cover");
    SearchStats& search = stats.search;
    std::optional<CoverCutoff> cutoff;  // fixed for the running wave

    auto coverOne = [&](size_t index, Outcome& out, CoverWorkspace& ws) {
      if (deadline->expired()) return;
      trace::Span span("search", "cover.candidate");
      span.arg("index", static_cast<int64_t>(index));
      // Everything a candidate allocates in the workspace arena is released
      // here; the graph's own pools are untouched (the winner escapes).
      const ArenaScope candidateScope(ws.arena);
      ws.arena.resetHighWater();
      const ArenaStats arenaBefore = ws.arena.stats();
      AssignedGraph graph =
          AssignedGraph::materialize(snd, candidates[index], options, &ws);
      CoveringEngine engine(graph, dbs.transfers, dbs.constraints, options,
                            deadline, &ws);
      std::optional<Schedule> schedule;
      try {
        schedule = cutoff.has_value() ? engine.run(&out.cover, *cutoff)
                                      : engine.run(&out.cover);
        out.kind = schedule.has_value() ? Outcome::Kind::kCompleted
                                        : Outcome::Kind::kCut;
      } catch (const DeadlineExceeded&) {
        // Budget ran out mid-covering: the partial schedule is unusable,
        // but an earlier candidate's complete covering (if any) still wins.
        return;
      } catch (const Error& e) {
        // This assignment cannot satisfy the register limits; try others.
        out.kind = Outcome::Kind::kInfeasible;
        out.failure = e.what();
      }
      // Arena deltas are exact sums and peaks independent of worker
      // placement (see SearchStats).
      const ArenaStats& after = ws.arena.stats();
      out.arenaCalls = after.allocCalls - arenaBefore.allocCalls;
      out.arenaBytes = after.bytesRequested - arenaBefore.bytesRequested;
      out.arenaPeak = after.highWater - arenaBefore.inUse;
      if (out.kind != Outcome::Kind::kCompleted) return;
      out.seconds = timer.seconds();
      if (trace::on()) out.tsNanos = trace::Tracer::instance().nowNanos();
      span.arg("instructions", schedule->numInstructions());
      out.assignment = candidates[index];
      out.graph = std::move(graph);
      out.schedule = std::move(*schedule);
    };

    for (size_t begin = 0; begin < candidates.size();) {
      const size_t end =
          begin == 0 ? 1 : std::min(candidates.size(), begin + kCoverWave);
      std::vector<Outcome> slots(end - begin);
      auto coverSlot = [&](size_t k, int worker) {
        coverOne(begin + k, slots[k],
                 workspaces[static_cast<size_t>(worker)]);
      };
      if (parallel && slots.size() > 1) {
        pool->parallelFor(slots.size(), coverSlot);
      } else {
        for (size_t k = 0; k < slots.size(); ++k) coverSlot(k, 0);
      }

      for (size_t k = 0; k < slots.size(); ++k) {
        Outcome& out = slots[k];
        if (out.kind == Outcome::Kind::kSkipped) {
          stats.timedOut = true;
          continue;
        }
        // Completed, cut and register-infeasible candidates all count
        // their covering work.
        search.cliqueRecursions += out.cover.cliqueRecursions;
        search.nodesVisited += out.cover.cliqueRecursions;
        search.candidatesEvaluated += out.cover.candidatesEvaluated;
        search.candidatesAbandoned += out.cover.candidatesAbandoned;
        search.backtracks += static_cast<size_t>(out.cover.spillsInserted);
        search.arenaCalls += out.arenaCalls;
        search.arenaBytes += out.arenaBytes;
        search.arenaHighWater = std::max(search.arenaHighWater, out.arenaPeak);
        if (out.kind == Outcome::Kind::kCut) {
          search.prunedByBound += 1;
          search.candidatesCut += 1;
          continue;
        }
        if (out.kind == Outcome::Kind::kInfeasible) {
          search.backtracks += 1;
          lastFailure = std::move(out.failure);
          continue;
        }
        stats.assignmentsCovered += 1;
        const TrajectoryPoint point{begin + k, out.schedule.numInstructions(),
                                    out.cover.spillsInserted, out.seconds};
        if (!stats.trajectory.empty() &&
            !(std::pair{point.instructions, point.spills} <
              std::pair{stats.trajectory.back().instructions,
                        stats.trajectory.back().spills}))
          continue;
        stats.trajectory.push_back(point);
        trace::counterAt("search", "cover.best-cost", "instructions",
                         point.instructions, out.tsNanos);
        best = std::move(out);
      }
      if (best.has_value())
        cutoff = CoverCutoff{stats.trajectory.back().instructions,
                             stats.trajectory.back().spills};
      begin = end;
    }
    ph.node().addCounter("candidates",
                         static_cast<int64_t>(candidates.size()));
  };
  tryAssignments(assignments);

  if (!best.has_value() && !stats.timedOut) {
    // Every selected assignment was register-infeasible (the paper's cost
    // function does not see register limits; Section VI names this as
    // ongoing work). Widen the search before giving up.
    CodegenOptions wide = options;
    wide.assignPruneIncremental = false;
    wide.assignBeamWidth = 256;
    wide.assignKeepBest = 64;
    AssignmentExplorer wideExplorer(snd, wide, deadline,
                                    &workspaces[0].arena);
    ExploreStats wideStats;
    const std::vector<Assignment> wideAssignments =
        wideExplorer.explore(&wideStats);
    stats.search.nodesVisited += wideStats.statesExpanded;
    stats.search.prunedByBound += wideStats.prunedByBound;
    stats.search.backtracks += wideStats.beamDropped;
    tryAssignments(wideAssignments);
  }
  if (!best.has_value()) {
    const std::string where =
        "block '" + ir.name() + "' on machine '" + machine.name() + "': ";
    if (stats.timedOut)
      throw DeadlineExceeded(where +
                             "deadline expired before any assignment was "
                             "covered");
    throw Error(where + "no feasible schedule found (" + lastFailure + ")");
  }

  // The winner's covers/operandIr spans still alias the SND's pools; re-home
  // them into graph-owned storage before the result outlives `snd`.
  best->graph.detachPayloads();

  stats.cover = best->cover;
  stats.seconds = timer.seconds();

  if (metrics::on()) {
    auto& registry = metrics::Registry::instance();
    const SearchStats& search = stats.search;
    const std::pair<const char*, uint64_t> counters[] = {
        {"search.nodesVisited", search.nodesVisited},
        {"search.prunedByBound", search.prunedByBound},
        {"search.backtracks", search.backtracks},
        {"search.candidatesAbandoned", search.candidatesAbandoned},
        {"search.candidatesCut", search.candidatesCut},
        {"search.cliqueRecursions", search.cliqueRecursions},
        {"search.candidatesEvaluated", search.candidatesEvaluated},
        {"alloc.arena.calls", search.arenaCalls},
        {"alloc.arena.bytes", search.arenaBytes}};
    for (const auto& [name, value] : counters)
      registry.counter(name).add(static_cast<int64_t>(value));
    registry.histogram("alloc.arena.highWater")
        .record(static_cast<int64_t>(search.arenaHighWater));
  }

  CoreResult result{std::move(best->assignment), std::move(best->graph),
                    std::move(best->schedule), stats};
  tel.child("cover").setCounter("jobs", numWorkers);
  recordCoreStats(result.stats, tel);
  tel.addSeconds(stats.seconds);
  return result;
}

void recordCoreStats(const CoreStats& stats, TelemetryNode& phase) {
  phase.setCounter("irNodes", static_cast<int64_t>(stats.irNodes));
  phase.setCounter("sndNodes", static_cast<int64_t>(stats.sndNodes));
  TelemetryNode& explore = phase.child("explore");
  explore.setCounter("completeAssignments",
                     static_cast<int64_t>(stats.explore.completeAssignments));
  explore.setCounter("statesExpanded",
                     static_cast<int64_t>(stats.explore.statesExpanded));
  explore.setCounter("prunedByBound",
                     static_cast<int64_t>(stats.explore.prunedByBound));
  explore.setCounter("beamDropped",
                     static_cast<int64_t>(stats.explore.beamDropped));
  explore.setCounter("capped", stats.explore.capped ? 1 : 0);
  TelemetryNode& cover = phase.child("cover");
  cover.setCounter("assignmentsCovered",
                   static_cast<int64_t>(stats.assignmentsCovered));
  cover.setCounter("cliquesGenerated",
                   static_cast<int64_t>(stats.cover.cliquesGenerated));
  cover.setCounter("cliqueRounds",
                   static_cast<int64_t>(stats.cover.cliqueRounds));
  cover.setCounter("cliqueRecursions",
                   static_cast<int64_t>(stats.cover.cliqueRecursions));
  cover.setCounter("candidatesEvaluated",
                   static_cast<int64_t>(stats.cover.candidatesEvaluated));
  cover.setCounter("candidatesAbandoned",
                   static_cast<int64_t>(stats.cover.candidatesAbandoned));
  cover.setCounter("spillsInserted", stats.cover.spillsInserted);
  cover.setCounter("timedOut", stats.timedOut ? 1 : 0);
  for (size_t k = 0; k < stats.trajectory.size(); ++k) {
    const TrajectoryPoint& point = stats.trajectory[k];
    TelemetryNode& node = cover.child("best:" + std::to_string(k));
    node.setCounter("candidate", static_cast<int64_t>(point.candidate));
    node.setCounter("instructions", point.instructions);
    node.setCounter("spills", point.spills);
    node.addSeconds(point.seconds - node.seconds());  // set, not accumulate
  }
  TelemetryNode& search = phase.child("search");
  search.setCounter("nodesVisited",
                    static_cast<int64_t>(stats.search.nodesVisited));
  search.setCounter("prunedByBound",
                    static_cast<int64_t>(stats.search.prunedByBound));
  search.setCounter("backtracks",
                    static_cast<int64_t>(stats.search.backtracks));
  search.setCounter("candidatesAbandoned",
                    static_cast<int64_t>(stats.search.candidatesAbandoned));
  search.setCounter("candidatesCut",
                    static_cast<int64_t>(stats.search.candidatesCut));
  search.setCounter("arenaCalls",
                    static_cast<int64_t>(stats.search.arenaCalls));
  search.setCounter("arenaBytes",
                    static_cast<int64_t>(stats.search.arenaBytes));
  search.setCounter("arenaHighWater",
                    static_cast<int64_t>(stats.search.arenaHighWater));
}

}  // namespace aviv
