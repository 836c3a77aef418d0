// Differential harness — the fuzzer's one oracle. Every fuzz input, a
// generated machine x block pair or a mutated corpus file, is raw source
// text and runs two stages:
//
//   parse    the machine (ISDL) and the block (block language or MiniC)
//            parse. A parse-stage verdict's side is `parse`.
//   compile  the parsed program compiles on BOTH engines (the heuristic
//            covering flow and the sequential baseline,
//            DriverOptions::engine) with the degradation ladder disabled,
//            and each compiled image is differentially verified against the
//            reference DAG interpreter (src/verify) over the same seeded
//            vectors. A multi-block program compiles through
//            CodeGenerator::compileProgram and verifies block by block. An
//            input with no block (an ISDL mutant) stops after parsing.
//
// Verdict taxonomy, the same in both stages:
//   kPass       everything parsed, compiled and verified — the interesting
//               case is that it is boring.
//   kReject     a clean rejection (Error / ParseError /
//               ResourceLimitExceeded / DeadlineExceeded) and nothing
//               failed. One-sided compile rejection is legitimate: the
//               baseline is the weaker engine by design.
//   kCrash      InternalError — an AVIV_REQUIRE invariant tripped. A bug.
//   kEscape     a throw outside the aviv::Error taxonomy (std::bad_alloc,
//               std::logic_error, ...). A bug in the error discipline.
//   kMiscompile a compiled image disagreed with the reference interpreter.
//               The worst bug. The failing image is quarantined via the
//               standard src/verify artifact protocol, so the existing
//               replay tooling picks it up unchanged.
//
// Two planted failpoints manufacture a failure on demand, one per stage —
// the end-to-end proof that a fuzz hit flows to a replayable repro:
// `fuzz-parse-internal` throws InternalError in the parse stage
// (crash:parse), and `fuzz-engine-disagree` corrupts the baseline's image
// between compile and verify (miscompile:baseline, quarantined and
// minimized).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ir/dag.h"
#include "ir/program.h"
#include "isdl/machine.h"

namespace aviv {

// Ordered by severity: a stage's verdict is its worst side's, and an
// escape IS more alarming than the invariant that fired on the same input.
enum class DiffVerdict : uint8_t {
  kPass,
  kReject,
  kMiscompile,
  kCrash,
  kEscape,
};

[[nodiscard]] const char* verdictName(DiffVerdict verdict);
// True for kMiscompile / kCrash / kEscape — the verdicts a fuzz run must
// report, quarantine, and minimize.
[[nodiscard]] bool isFailureVerdict(DiffVerdict verdict);

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

// One fuzz input as raw text, exactly as its kind=fuzz bundle stores it.
struct FuzzInput {
  std::string machineText;  // ISDL
  // The block source and its bundle file name: kBundleBlockFile (block
  // language) or kBundleMiniCFile (MiniC). An empty name means the input
  // is a machine alone and stops after the parse stage.
  std::string blockFile;
  std::string blockText;
};

// What one side of a stage (the parser, or one engine) did.
struct SideOutcome {
  DiffVerdict verdict = DiffVerdict::kPass;
  std::string detail;  // error text or verify mismatch description
};

// The one exception -> verdict mapping both stages share: kPass when
// `body` returns, else the verdict of what it threw (taxonomy above).
[[nodiscard]] SideOutcome guarded(const std::function<void()>& body);

struct DiffResult {
  DiffVerdict verdict = DiffVerdict::kPass;
  // Stable failure signature "<verdict>:<side>" (side: parse / heuristic /
  // baseline / both), e.g. "miscompile:baseline"; side `parse` means the
  // input never reached the compile stage. Deliberately excludes
  // error text: messages carry node counts and names that change while the
  // minimizer shrinks the input, the signature must not.
  std::string signature;
  std::string detail;  // human-readable one-liner
  // Path of the src/verify artifact for kMiscompile (when
  // options.quarantineDir is set); empty otherwise.
  std::string quarantinePath;
  // The failpoint sites that fired during the run, as an always-fire spec
  // (FailPoints::firedSince): a replay under it fires them again,
  // whatever the original probability/count schedule was.
  std::string failpoints;
};

// A fuzz input, parsed: its machine and, unless the input is a machine
// alone, its program.
struct ParsedInput {
  Machine machine{""};
  Program program{""};
};

// Parses `input`; throws whatever the parsers throw.
[[nodiscard]] ParsedInput parseInput(const FuzzInput& input);

// The oracle: parse stage, then compile stage. Deterministic in (input,
// options, failpoint schedule): same inputs, same verdict.
[[nodiscard]] DiffResult runDifferential(const FuzzInput& input,
                                         const DiffOptions& options);

// The compile stage alone, on an already parsed pair (the minimizer's
// candidate runs).
[[nodiscard]] DiffResult runDifferential(const Machine& machine,
                                         const Program& program,
                                         const DiffOptions& options);

// `dag` as a program of one returning block.
[[nodiscard]] Program singleBlockProgram(BlockDag dag);

}  // namespace aviv
