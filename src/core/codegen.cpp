#include "core/codegen.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/timer.h"

namespace aviv {

namespace {

// The covering/allocation machinery assumes every operation's value is
// consumed or live-out (the front end's DCE guarantees it; Section II).
void requireNoDeadOps(const BlockDag& ir) {
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
}

// One fully-covered candidate assignment, with the keys the winner
// reduction orders by. The serial loop keeps the first candidate achieving
// the minimal (instructions, spills); the lexicographic minimum over
// (instructions, spills, index) reproduces that winner under any execution
// order, so jobs=1 and jobs=N are bit-identical.
struct Candidate {
  int instructions = 0;
  int spills = 0;
  size_t index = 0;
  Assignment assignment;
  AssignedGraph graph;
  Schedule schedule;
  CoverStats cover;
};

bool candidateBetter(const Candidate& a, int instructions, int spills,
                     size_t index) {
  if (instructions != a.instructions) return instructions < a.instructions;
  if (spills != a.spills) return spills < a.spills;
  return index < a.index;
}

}  // namespace

CoreResult coverBlock(const BlockDag& ir, const Machine& machine,
                      const MachineDatabases& dbs,
                      const CodegenOptions& options, ThreadPool* pool,
                      TelemetryNode* phase, const Deadline* deadline,
                      WorkspaceCache* wsCache) {
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

  requireNoDeadOps(ir);
  // Register requirements below two per bank cannot even hold a binary
  // operation's operands; reject early with a clear message.
  for (const RegFile& rf : machine.regFiles()) {
    if (rf.numRegs < 2)
      throw Error("machine '" + machine.name() + "': register file " +
                  rf.name + " has fewer than 2 registers");
  }

  deadline->check("split-node construction");
  const SplitNodeDag snd = [&] {
    PhaseScope ph(tel, "splitnode");
    return SplitNodeDag::build(ir, machine, dbs, options);
  }();

  CoreStats stats;
  stats.irNodes = ir.size();
  stats.sndNodes = snd.size();

  // Adaptive shortcut: enumerate tiny assignment spaces outright.
  CodegenOptions exploreOptions = options;
  if (options.smallSpaceExhaustive > 0) {
    size_t space = 1;
    for (NodeId id = 0; id < ir.size(); ++id) {
      if (isLeafOp(ir.node(id).op)) continue;
      space *= snd.altsOf(id).size();
      if (space > options.smallSpaceExhaustive) break;
    }
    if (space <= options.smallSpaceExhaustive) {
      exploreOptions.assignPruneIncremental = false;
      exploreOptions.assignBeamWidth = 0;
      exploreOptions.assignKeepBest = 1 << 30;
    }
  }
  const bool parallel = pool != nullptr && options.jobs > 1;
  const int numWorkers = parallel ? pool->parallelism() : 1;

  // Per-worker covering workspaces, leased from the session cache (or a
  // call-local one) and shared by exploration (worker 0's arena) and both
  // tryAssignments passes. Returned to the cache on every exit path so a
  // warm session keeps its arena chunks.
  WorkspaceCache localWsCache;
  WorkspaceCache& wsPool = wsCache != nullptr ? *wsCache : localWsCache;
  struct WorkspaceLease {
    WorkspaceCache& cache;
    std::vector<std::unique_ptr<CoverWorkspace>> ws;
    WorkspaceLease(WorkspaceCache& cache, size_t n) : cache(cache), ws(n) {
      for (auto& w : ws) w = cache.acquire();
    }
    ~WorkspaceLease() {
      for (auto& w : ws) cache.release(std::move(w));
    }
  };
  WorkspaceLease lease(wsPool, static_cast<size_t>(numWorkers));

  const std::vector<Assignment> assignments = [&] {
    PhaseScope ph(tel, "explore");
    AssignmentExplorer explorer(snd, exploreOptions, deadline,
                                &lease.ws[0]->arena);
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

  // Exploration's contribution to the search totals; per-candidate covering
  // contributions are summed inside tryAssignments.
  stats.search.nodesVisited += stats.explore.statesExpanded;
  stats.search.prunedByBound += stats.explore.prunedByBound;
  stats.search.backtracks += stats.explore.beamDropped;

  std::optional<Candidate> best;
  // Prefix-minima state for the best-cost trajectory (spans both
  // tryAssignments calls; indices only collide when the first call produced
  // no completion at all). It is also the covering cutoff: the best
  // (instructions, spills) over the candidates of all earlier waves.
  std::optional<std::pair<int, int>> trajBest;
  std::string lastFailure;
  std::atomic<bool> timedOut{false};
  // Clique ∩ ready sets scored across all candidates — a metrics-registry
  // total only (search.cliqueRecursions is recorded per clique round).
  size_t candidatesEvaluated = 0;

  // Covers every selected assignment (the parallel stage): each worker
  // materializes and covers candidates independently, keeping a worker-
  // local best; the serial reduction afterwards picks the deterministic
  // global winner and the highest-index failure message (what the serial
  // loop's "last failure" ends up being).
  //
  // Candidates run in waves — candidate 0 alone, then fixed index ranges of
  // kCoverWave — and every candidate of a wave is covered against the best
  // covering of the earlier waves: CoveringEngine cuts it as soon as its
  // lower bound shows it cannot beat that cutoff. A cut candidate could
  // neither win the (instructions, spills, index) reduction nor improve the
  // trajectory, and the cutoff depends only on earlier waves, so output and
  // every counter are identical at any worker count.
  constexpr size_t kCoverWave = 8;
  auto tryAssignments = [&](const std::vector<Assignment>& candidates) {
    PhaseScope ph(tel, "cover");
    std::vector<std::optional<Candidate>> workerBest(
        static_cast<size_t>(numWorkers));
    std::vector<size_t> covered(static_cast<size_t>(numWorkers), 0);
    std::vector<std::pair<size_t, std::string>> failures(
        static_cast<size_t>(numWorkers));
    // Per-worker search-total accumulators (summed serially afterwards, so
    // the totals are independent of which worker covered which candidate).
    struct WorkerSearch {
      size_t cliqueRecursions = 0;
      size_t candidatesEvaluated = 0;
      size_t candidatesAbandoned = 0;
      size_t spills = 0;
      size_t failed = 0;
      size_t cut = 0;
      uint64_t arenaCalls = 0;
      uint64_t arenaBytes = 0;
      uint64_t arenaHighWater = 0;
    };
    std::vector<WorkerSearch> workerSearch(static_cast<size_t>(numWorkers));
    // Per-candidate completion records (disjoint slots — no contention);
    // the serial prefix-minima walk after each wave turns them into the
    // trajectory.
    struct Completion {
      bool completed = false;
      int instructions = 0;
      int spills = 0;
      double seconds = 0.0;
      int64_t tsNanos = 0;
    };
    std::vector<Completion> completions(candidates.size());
    std::optional<CoverCutoff> cutoff;  // fixed for the running wave

    auto coverOne = [&](size_t index, int workerInt) {
      const auto worker = static_cast<size_t>(workerInt);
      if (deadline->expired()) {
        timedOut.store(true, std::memory_order_relaxed);
        return;
      }
      trace::Span span("search", "cover.candidate");
      span.arg("index", static_cast<int64_t>(index));
      const Assignment& assignment = candidates[index];
      WorkerSearch& search = workerSearch[worker];
      CoverWorkspace& ws = *lease.ws[worker];
      // Everything a candidate allocates in the workspace arena is released
      // here; the graph's own pools are untouched (the winner escapes).
      const ArenaScope candidateScope(ws.arena);
      ws.arena.resetHighWater();
      const ArenaStats arenaBefore = ws.arena.stats();
      AssignedGraph graph =
          AssignedGraph::materialize(snd, assignment, options, &ws);
      CoveringEngine engine(graph, dbs.transfers, dbs.constraints, options,
                            deadline, &ws);
      CoverStats coverStats;
      // Counts the candidate's covering work — completed, cut, or
      // register-infeasible alike (not deadline-expired). The partial stats
      // are deterministic: a candidate stops at the same point regardless
      // of the worker that ran it. Arena deltas are exact sums/maxima
      // independent of worker placement (see SearchStats).
      auto recordWork = [&] {
        search.cliqueRecursions += coverStats.cliqueRecursions;
        search.candidatesEvaluated += coverStats.candidatesEvaluated;
        search.candidatesAbandoned += coverStats.candidatesAbandoned;
        search.spills += static_cast<size_t>(coverStats.spillsInserted);
        const ArenaStats& after = ws.arena.stats();
        search.arenaCalls += after.allocCalls - arenaBefore.allocCalls;
        search.arenaBytes += after.bytesRequested - arenaBefore.bytesRequested;
        const uint64_t peak = after.highWater - arenaBefore.inUse;
        search.arenaHighWater = std::max(search.arenaHighWater, peak);
      };
      std::optional<Schedule> schedule;
      try {
        if (cutoff.has_value())
          schedule = engine.run(&coverStats, *cutoff);
        else
          schedule = engine.run(&coverStats);
      } catch (const DeadlineExceeded&) {
        // Budget ran out mid-covering: the partial schedule is unusable,
        // but an earlier candidate's complete covering (if any) still wins.
        timedOut.store(true, std::memory_order_relaxed);
        return;
      } catch (const Error& e) {
        // This assignment cannot satisfy the register limits; try others.
        recordWork();
        search.failed += 1;
        auto& fail = failures[worker];
        if (fail.second.empty() || index > fail.first)
          fail = {index, e.what()};
        return;
      }
      recordWork();
      if (!schedule.has_value()) {
        search.cut += 1;
        return;
      }
      ++covered[worker];
      std::optional<Candidate>& mine = workerBest[worker];
      const int instructions = schedule->numInstructions();
      Completion& done = completions[index];
      done.completed = true;
      done.instructions = instructions;
      done.spills = coverStats.spillsInserted;
      done.seconds = timer.seconds();
      if (trace::on())
        done.tsNanos = trace::Tracer::instance().nowNanos();
      span.arg("instructions", instructions);
      if (!mine.has_value() ||
          candidateBetter(*mine, instructions, coverStats.spillsInserted,
                          index)) {
        mine.emplace(Candidate{instructions, coverStats.spillsInserted, index,
                               assignment, std::move(graph),
                               std::move(*schedule), coverStats});
      }
    };

    for (size_t begin = 0; begin < candidates.size();) {
      const size_t end =
          begin == 0 ? 1 : std::min(candidates.size(), begin + kCoverWave);
      if (parallel && end - begin > 1) {
        pool->parallelFor(end - begin, [&](size_t k, int worker) {
          coverOne(begin + k, worker);
        });
      } else {
        for (size_t i = begin; i < end; ++i) coverOne(i, 0);
      }
      // Best-cost trajectory: the deterministic prefix-minima of
      // (instructions, spills) in candidate-index order. Equals what the
      // serial loop would have called "best so far" after each improvement;
      // only the wall-clock seconds differ between runs.
      for (size_t i = begin; i < end; ++i) {
        const Completion& done = completions[i];
        if (!done.completed) continue;
        const std::pair<int, int> key{done.instructions, done.spills};
        if (trajBest.has_value() && !(key < *trajBest)) continue;
        trajBest = key;
        stats.trajectory.push_back(
            {i, done.instructions, done.spills, done.seconds});
        trace::counterAt("search", "cover.best-cost", "instructions",
                         done.instructions, done.tsNanos);
      }
      if (trajBest.has_value())
        cutoff = CoverCutoff{trajBest->first, trajBest->second};
      begin = end;
    }

    size_t failIndex = 0;
    std::string failMessage;
    for (size_t w = 0; w < static_cast<size_t>(numWorkers); ++w) {
      stats.assignmentsCovered += covered[w];
      const WorkerSearch& search = workerSearch[w];
      stats.search.nodesVisited += search.cliqueRecursions;
      stats.search.prunedByBound += search.cut;
      stats.search.backtracks += search.spills + search.failed;
      stats.search.candidatesAbandoned += search.candidatesAbandoned;
      candidatesEvaluated += search.candidatesEvaluated;
      stats.search.candidatesCut += search.cut;
      stats.search.arenaCalls += search.arenaCalls;
      stats.search.arenaBytes += search.arenaBytes;
      stats.search.arenaHighWater =
          std::max(stats.search.arenaHighWater, search.arenaHighWater);
      if (!failures[w].second.empty() &&
          (failMessage.empty() || failures[w].first > failIndex)) {
        failIndex = failures[w].first;
        failMessage = std::move(failures[w].second);
      }
      std::optional<Candidate>& cand = workerBest[w];
      if (!cand.has_value()) continue;
      if (!best.has_value() ||
          candidateBetter(*best, cand->instructions, cand->spills,
                          cand->index))
        best = std::move(cand);
    }
    if (!failMessage.empty()) lastFailure = std::move(failMessage);
    ph.node().addCounter("candidates",
                         static_cast<int64_t>(candidates.size()));
  };
  tryAssignments(assignments);

  if (!best.has_value() && timedOut.load(std::memory_order_relaxed))
    throw DeadlineExceeded("block '" + ir.name() + "' on machine '" +
                           machine.name() +
                           "': deadline expired before any assignment was "
                           "covered");
  if (!best.has_value()) {
    // Every selected assignment was register-infeasible (the paper's cost
    // function does not see register limits; Section VI names this as
    // ongoing work). Widen the search before giving up.
    CodegenOptions wide = options;
    wide.assignPruneIncremental = false;
    wide.assignBeamWidth = 256;
    wide.assignKeepBest = 64;
    AssignmentExplorer wideExplorer(snd, wide, deadline,
                                    &lease.ws[0]->arena);
    tryAssignments(wideExplorer.explore());
  }
  if (!best.has_value() && timedOut.load(std::memory_order_relaxed))
    throw DeadlineExceeded("block '" + ir.name() + "' on machine '" +
                           machine.name() +
                           "': deadline expired before any assignment was "
                           "covered");
  if (!best.has_value())
    throw Error("block '" + ir.name() + "' on machine '" + machine.name() +
                "': no feasible schedule found (" + lastFailure + ")");

  // The winner's covers/operandIr spans still alias the SND's pools; re-home
  // them into graph-owned storage before the result outlives `snd`.
  best->graph.detachPayloads();

  stats.cover = best->cover;
  stats.timedOut = timedOut.load(std::memory_order_relaxed);
  stats.seconds = timer.seconds();

  if (metrics::on()) {
    auto& registry = metrics::Registry::instance();
    registry.counter("search.nodesVisited")
        .add(static_cast<int64_t>(stats.search.nodesVisited));
    registry.counter("search.prunedByBound")
        .add(static_cast<int64_t>(stats.search.prunedByBound));
    registry.counter("search.backtracks")
        .add(static_cast<int64_t>(stats.search.backtracks));
    registry.counter("search.candidatesAbandoned")
        .add(static_cast<int64_t>(stats.search.candidatesAbandoned));
    registry.counter("search.candidatesCut")
        .add(static_cast<int64_t>(stats.search.candidatesCut));
    registry.counter("search.candidatesEvaluated")
        .add(static_cast<int64_t>(candidatesEvaluated));
    registry.counter("alloc.arena.calls")
        .add(static_cast<int64_t>(stats.search.arenaCalls));
    registry.counter("alloc.arena.bytes")
        .add(static_cast<int64_t>(stats.search.arenaBytes));
    registry.histogram("alloc.arena.highWater")
        .record(static_cast<int64_t>(stats.search.arenaHighWater));
  }

  CoreResult result{std::move(best->assignment), std::move(best->graph),
                    std::move(best->schedule), stats};
  tel.child("cover").setCounter("jobs", numWorkers);
  recordCoreStats(result.stats, tel);
  tel.addSeconds(stats.seconds);
  return result;
}

CoreResult coverBlock(const BlockDag& ir, CodegenContext& ctx,
                      TelemetryNode* phase) {
  return coverBlock(ir, ctx, ctx.options(), phase);
}

CoreResult coverBlock(const BlockDag& ir, CodegenContext& ctx,
                      const CodegenOptions& options, TelemetryNode* phase) {
  TelemetryNode& tel = phase != nullptr
                           ? *phase
                           : ctx.telemetry().child("block:" + ir.name());
  return coverBlock(ir, ctx.machine(), ctx.databases(), options, ctx.pool(),
                    &tel, &ctx.deadline(), &ctx.workspaces());
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

CoreStats coreStatsView(const TelemetryNode& phase) {
  CoreStats stats;
  stats.irNodes = static_cast<size_t>(phase.counter("irNodes"));
  stats.sndNodes = static_cast<size_t>(phase.counter("sndNodes"));
  stats.seconds = phase.seconds();
  if (const TelemetryNode* explore = phase.findChild("explore")) {
    stats.explore.completeAssignments =
        static_cast<size_t>(explore->counter("completeAssignments"));
    stats.explore.statesExpanded =
        static_cast<size_t>(explore->counter("statesExpanded"));
    stats.explore.prunedByBound =
        static_cast<size_t>(explore->counter("prunedByBound"));
    stats.explore.beamDropped =
        static_cast<size_t>(explore->counter("beamDropped"));
    stats.explore.capped = explore->counter("capped") != 0;
  }
  if (const TelemetryNode* cover = phase.findChild("cover")) {
    stats.assignmentsCovered =
        static_cast<size_t>(cover->counter("assignmentsCovered"));
    stats.cover.cliquesGenerated =
        static_cast<size_t>(cover->counter("cliquesGenerated"));
    stats.cover.cliqueRounds =
        static_cast<size_t>(cover->counter("cliqueRounds"));
    stats.cover.cliqueRecursions =
        static_cast<size_t>(cover->counter("cliqueRecursions"));
    stats.cover.candidatesEvaluated =
        static_cast<size_t>(cover->counter("candidatesEvaluated"));
    stats.cover.candidatesAbandoned =
        static_cast<size_t>(cover->counter("candidatesAbandoned"));
    stats.cover.spillsInserted =
        static_cast<int>(cover->counter("spillsInserted"));
    stats.timedOut = cover->counter("timedOut") != 0;
    for (size_t k = 0;; ++k) {
      const TelemetryNode* node = cover->findChild("best:" + std::to_string(k));
      if (node == nullptr) break;
      stats.trajectory.push_back(
          {static_cast<size_t>(node->counter("candidate")),
           static_cast<int>(node->counter("instructions")),
           static_cast<int>(node->counter("spills")), node->seconds()});
    }
  }
  if (const TelemetryNode* search = phase.findChild("search")) {
    stats.search.nodesVisited =
        static_cast<size_t>(search->counter("nodesVisited"));
    stats.search.prunedByBound =
        static_cast<size_t>(search->counter("prunedByBound"));
    stats.search.backtracks =
        static_cast<size_t>(search->counter("backtracks"));
    stats.search.candidatesAbandoned =
        static_cast<size_t>(search->counter("candidatesAbandoned"));
    stats.search.candidatesCut =
        static_cast<size_t>(search->counter("candidatesCut"));
    stats.search.arenaCalls =
        static_cast<uint64_t>(search->counter("arenaCalls"));
    stats.search.arenaBytes =
        static_cast<uint64_t>(search->counter("arenaBytes"));
    stats.search.arenaHighWater =
        static_cast<uint64_t>(search->counter("arenaHighWater"));
  }
  return stats;
}

}  // namespace aviv
