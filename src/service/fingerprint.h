// Canonical compile fingerprint — the compilation service's cache key
// (DESIGN.md System 23). A fingerprint is a self-contained 128-bit hash
// over everything that can change the compiled output of one block:
//
//   * the validated machine model — including every name and mnemonic,
//     because they appear verbatim in the emitted assembly text (a renamed
//     register file is a different output even if structurally identical);
//   * the IR DAG exactly as handed to the driver (the front end's
//     machine-independent passes run before this point, so this is the
//     post-pass DAG);
//   * every covering-relevant CodegenOptions field plus the driver flags
//     (runPeephole, outputsToMemoryFallback) that alter the result.
//
// Deliberately NOT hashed (canonicalization rules, see DESIGN.md):
//   * CodegenOptions::jobs — parallel results are bit-identical to serial;
//   * the session seed — the covering pipeline is deterministic and never
//     reads it (the seed only feeds randomized tooling layered on top);
//   * Constraint::note — diagnostic text, invisible in the output.
//
// kFingerprintVersion salts every fingerprint: bump it whenever the
// pipeline's output for unchanged inputs changes (new optimization, changed
// tie-break, ...), which invalidates all previously cached results at the
// key level.
#pragma once

#include "core/context.h"
#include "core/options.h"
#include "ir/dag.h"
#include "isdl/machine.h"
#include "support/hash.h"

namespace aviv {

// Version 2: cached statsJson gained the search-telemetry counters
// (explore prunedByBound/beamDropped, cover clique/candidate totals, the
// "search" child, and the best-cost trajectory), so version-1 entries would
// replay stale stat shapes.
// Version 3: the "search" child gained the workspace-arena accounting
// (arenaCalls/arenaBytes/arenaHighWater), so version-2 entries would replay
// without the alloc counters.
// Version 4: clique generation became pivoting Bron-Kerbosch, so a round
// the per-round cap truncates keeps a different clique subset (and may
// emit different code); the cover telemetry dropped cliquePruned and the
// "search" child gained candidatesCut.
inline constexpr uint32_t kFingerprintVersion = 4;

[[nodiscard]] Hash128 fingerprintMachine(const Machine& machine);
[[nodiscard]] Hash128 fingerprintDag(const BlockDag& dag);
[[nodiscard]] Hash128 fingerprintOptions(const CodegenOptions& core,
                                         bool runPeephole,
                                         bool outputsToMemoryFallback);

// The cache key: version salt + the three component fingerprints. Uses the
// CodegenContext's machine-fingerprint memo when present (the driver sets
// it once per session, before any parallel region) and computes the
// machine hash locally otherwise — so concurrent block compiles never
// write shared state.
//
// `verifierSalt` partitions the key space by verification regime: 0 when
// differential output verification is off, the verifier version when it is
// on. A verifier bump therefore forces verifying sessions onto fresh keys
// (recompile + recheck) without invalidating non-verifying users, and
// entries produced without verification are never mistaken for verified
// ones of an older verifier.
[[nodiscard]] Hash128 compileFingerprint(const CodegenContext& ctx,
                                         const BlockDag& dag,
                                         const CodegenOptions& core,
                                         bool runPeephole,
                                         bool outputsToMemoryFallback,
                                         uint32_t verifierSalt = 0);

}  // namespace aviv
