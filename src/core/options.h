// Knobs for the AVIV covering flow. The paper's two configurations
// (Section VI) are the struct defaults, "heuristics on" (served requests,
// avivc, the Table I/II main columns), and heuristicsOff(), the
// parenthesised Table I/II column. A field exists only where a caller sets
// a second value: an ablation_heuristics row (assignPruneSlack,
// assignKeepBest, cliqueLevelWindow, coverLookahead,
// registerAwareAssignment), heuristicsOff(), Fig 6 and perfbench
// (assignPruneIncremental, assignBeamWidth), the exact search
// (maxAssignments), tests of Section III-B (enableComplexPatterns), or
// requests, avivc and the driver's fallback (the rest). Values nothing
// varies are constants where they are used.
#pragma once

#include <cstddef>

namespace aviv {

struct CodegenOptions {
  // --- Section IV-A: split-node functional-unit assignment exploration ---
  // Keep only minimum-incremental-cost alternatives at each split node
  // (the paper's pruning, Fig 6). When false every alternative is explored.
  bool assignPruneIncremental = true;
  // Slack added to the minimum incremental cost when pruning: alternatives
  // with cost <= min + slack survive. 0 is the paper's strict pruning;
  // small positive values trade exploration time for occasionally better
  // assignments (see the ablation bench).
  double assignPruneSlack = 0.0;
  // Cap on concurrently-kept partial assignments (branch-and-bound beam).
  // <= 0 disables the cap.
  int assignBeamWidth = 32;
  // How many of the lowest-cost complete assignments are explored in detail
  // ("select several lowest cost assignments").
  int assignKeepBest = 4;
  // Hard safety cap on complete assignments enumerated in heuristics-off
  // mode (the count grows multiplicatively, Section IV-A).
  size_t maxAssignments = 2'000'000;
  // When the total number of possible assignments (product of per-node
  // alternative counts) is at most this, skip the pruning and enumerate
  // them all — the pruning exists to curb multiplicative growth, and
  // covering a few hundred assignments is cheaper than mispruning.
  static constexpr size_t smallSpaceExhaustive = 512;
  // Paper Section VI "ongoing work" extension: penalize assignments likely
  // to exceed register resources already during assignment exploration.
  bool registerAwareAssignment = false;

  // --- Section III-B: complex instruction pattern matching ---
  bool enableComplexPatterns = true;

  // --- Section IV-C: maximal clique generation ---
  // Level-window heuristic (IV-C.2): only merge nodes whose levels from top
  // AND bottom differ by at most this much. < 0 disables the heuristic.
  int cliqueLevelWindow = 2;

  // --- Section IV-D: covering ---
  // Lookahead tie-break among equally-covering cliques.
  bool coverLookahead = true;

  // Wall-clock budget for the whole covering flow (0 = unlimited), backed
  // by the session Deadline (support/deadline.h) and polled inside
  // assignment exploration, every covering round, and the candidate loop.
  // Anytime semantics: when the budget runs out after at least one
  // candidate covering completed, the best solution found so far is
  // returned and stats.timedOut flags the quality loss; when it runs out
  // before any covering completed, DeadlineExceeded is thrown and the
  // driver degrades to the sequential baseline (CompiledBlock::degraded).
  double timeLimitSeconds = 0.0;

  // Materialize constants through a data-memory constant pool instead of
  // inline immediates: each distinct constant gets a pool cell and uses are
  // bus loads, like named variables. Required when immediates exceed the
  // binary encoding's field width, and models DSPs without immediate
  // operands.
  bool constantsInMemory = false;

  // --- pipeline-session parallelism ---
  // Total worker threads for the embarrassingly-parallel stages: covering
  // the selected candidate assignments inside coverBlock, and compiling
  // independent blocks inside compileProgram. Results are bit-identical to
  // jobs = 1: the candidate winner is picked by one walk in candidate order
  // after each covering wave and per-block symbol scopes are merged in
  // block order. 1 = fully serial.
  int jobs = 1;

  // --- robustness: resource ceilings ---
  // Guard rails against pathological or hostile inputs (adversarially deep
  // DAGs, dense parallelism graphs): exceeding one throws a recoverable
  // ResourceLimitExceeded (support/error.h) that the driver routes into
  // the baseline-fallback path with the ceilings lifted. 0 = unlimited.
  // Hard cap on split-node DAG nodes (leaves + splits + alternatives +
  // transfer hops) built for one block.
  size_t maxSndNodes = 1'000'000;
  // Approximate cap on bytes held by the split-node arena (node structs
  // plus their covers/operand payloads).
  size_t maxSndBytes = 512ull << 20;
  // Hard cap on cliques generated across all rounds of one covering (the
  // per-round cap in core/cover.cpp truncates softly; this one stops a
  // covering whose rounds keep regenerating huge clique sets).
  size_t maxTotalCliques = 5'000'000;

  // --- output placement ---
  // Store block outputs back to data memory (required for multi-block
  // programs whose successor blocks reload them); when false outputs stay
  // in registers and the CodeImage records their final location.
  bool outputsToMemory = false;

  // Enumerates every field that can change the compiled output, as
  // (name, value) pairs, for the service layer's canonical fingerprint
  // (src/service/fingerprint.*). The field name anchors each value, so
  // reordering or adding fields changes the fingerprint predictably.
  // Deliberately omitted:
  //   * `jobs` — parallel covering/compilation is bit-identical to serial,
  //     so a cache populated at any worker count replays at any other.
  // New covering-relevant fields MUST be added here; the fingerprint test
  // cross-checks that mutating each listed field changes the hash.
  template <class Sink>
  constexpr void forEachFingerprintField(Sink&& sink) const {
    sink("assignPruneIncremental", assignPruneIncremental);
    sink("assignPruneSlack", assignPruneSlack);
    sink("assignBeamWidth", assignBeamWidth);
    sink("assignKeepBest", assignKeepBest);
    sink("maxAssignments", maxAssignments);
    sink("registerAwareAssignment", registerAwareAssignment);
    sink("enableComplexPatterns", enableComplexPatterns);
    sink("cliqueLevelWindow", cliqueLevelWindow);
    sink("coverLookahead", coverLookahead);
    sink("timeLimitSeconds", timeLimitSeconds);
    sink("constantsInMemory", constantsInMemory);
    sink("maxSndNodes", maxSndNodes);
    sink("maxSndBytes", maxSndBytes);
    sink("maxTotalCliques", maxTotalCliques);
    sink("outputsToMemory", outputsToMemory);
  }

  // Convenience: the paper's "heuristics turned off" configuration
  // (exhaustive assignment enumeration, no level window). Note this is
  // still not an exact algorithm — the covering schedule search remains
  // greedy, exactly as the paper states.
  [[nodiscard]] static CodegenOptions heuristicsOff() {
    CodegenOptions opts;
    opts.assignPruneIncremental = false;
    opts.assignBeamWidth = 0;
    opts.assignKeepBest = 1 << 30;
    opts.cliqueLevelWindow = -1;
    return opts;
  }
};

}  // namespace aviv
