// Differential compile harness — the fuzzer's oracle. One machine x block
// pair is compiled on BOTH engines (the heuristic covering flow and the
// sequential baseline, DriverOptions::engine) with the degradation ladder
// disabled, and each compiled image is differentially verified against the
// reference DAG interpreter (src/verify) over the same seeded vectors.
//
// Verdict taxonomy:
//   kPass       both engines compiled and verified — the interesting case
//               is that it is boring.
//   kReject     at least one engine cleanly rejected the input (Error /
//               ResourceLimitExceeded / DeadlineExceeded) and nothing
//               failed. One-sided rejection is legitimate: the baseline is
//               the weaker engine by design.
//   kCrash      an engine escaped with InternalError — an AVIV_REQUIRE
//               invariant tripped on a valid input. A bug.
//   kEscape     an engine threw something outside the aviv::Error taxonomy
//               (std::bad_alloc, std::logic_error, ...). A bug in the error
//               discipline itself.
//   kMiscompile a compiled image disagreed with the reference interpreter.
//               The worst bug. The failing image is quarantined via the
//               standard src/verify artifact protocol, so the existing
//               replay tooling picks it up unchanged.
//
// The planted failpoint `fuzz-engine-disagree` corrupts the baseline's
// image between compile and verify (corruptImageForTesting), manufacturing
// a kMiscompile on demand — the end-to-end proof that a fuzz hit flows to
// a quarantined, minimized, replayable repro.
#pragma once

#include <cstdint>
#include <string>

#include "ir/dag.h"
#include "isdl/machine.h"

namespace aviv {

enum class DiffVerdict : uint8_t {
  kPass,
  kReject,
  kCrash,
  kEscape,
  kMiscompile,
};

[[nodiscard]] const char* verdictName(DiffVerdict verdict);
// True for kCrash / kEscape / kMiscompile — the verdicts a fuzz run must
// report, quarantine, and minimize.
[[nodiscard]] bool isFailureVerdict(DiffVerdict verdict);

// What happened on one engine.
struct EngineOutcome {
  bool compiled = false;
  bool rejected = false;      // clean taxonomy rejection
  bool crashed = false;       // InternalError
  bool escaped = false;       // non-aviv exception
  bool verifyFailed = false;  // compiled but disagreed with the reference
  std::string detail;         // error text or verify mismatch description
};

struct DiffOptions {
  // Verification vectors per compiled image (both engines use the same
  // seeded vectors, so "verified" means agreement with the reference AND
  // with each other).
  int vectors = 4;
  uint64_t vectorSeed = 0x56455249;  // "VERI", the verifier default
  // Wall-clock budget per engine compile; expiry is a clean rejection.
  double timeLimitSeconds = 5.0;
  // Where kMiscompile failures write their kind=miscompile repro bundle;
  // empty disables artifact writing (the verdict is unaffected).
  std::string quarantineDir;
};

struct DiffResult {
  DiffVerdict verdict = DiffVerdict::kPass;
  // Stable failure signature "<verdict>:<side>" (side: heuristic /
  // baseline / both), e.g. "miscompile:baseline". Deliberately excludes
  // error text: messages carry node counts and names that change while the
  // minimizer shrinks the input, the signature must not.
  std::string signature;
  std::string detail;  // human-readable one-liner
  EngineOutcome heuristic;
  EngineOutcome baseline;
  // Path of the src/verify artifact for kMiscompile (when
  // options.quarantineDir is set); empty otherwise.
  std::string quarantinePath;
  // True when the `fuzz-engine-disagree` failpoint fired on this run (the
  // baseline image was deliberately corrupted). Repro writers record an
  // always-fire spec so replays reproduce regardless of the original
  // probability/count schedule.
  bool plantedFault = false;
};

// Deterministic in (machine, dag, options): same inputs, same verdict.
[[nodiscard]] DiffResult runDifferential(const Machine& machine,
                                         const BlockDag& dag,
                                         const DiffOptions& options);

}  // namespace aviv
