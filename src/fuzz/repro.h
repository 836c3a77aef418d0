// Fuzz repro bundles: the `kind=fuzz` bundle (docs/fuzzing.md "Reproducing
// a failure") of one failing fuzz input — its raw text (machine.isdl, plus
// block.blk or block.c unless the input is a machine alone), the diff
// options, the failpoint spec and the failure signature. Crashes, taxonomy
// escapes and parse-stage failures have no image to quarantine, so this is
// their only repro; a miscompile also gets a kind=miscompile bundle.
// `fuzz_gen --minimize` writes the shrunken pair as minimized/<name>/.
//
// Replaying re-runs the oracle on the recorded text under the recorded
// failpoint spec and succeeds iff the recorded signature reproduces.
// Nothing from the originating session is needed: the bundle IS the bug
// report.
#pragma once

#include <string>

#include "fuzz/diff.h"
#include "support/repro_bundle.h"

namespace aviv {

// A kind=fuzz bundle's contents: what replay reads.
struct FuzzRepro {
  FuzzInput input;
  DiffOptions options;
  // Failpoint spec a replay re-applies ("" = none): the always-fire spec
  // of the sites that fired in the failing run (DiffResult::failpoints).
  std::string failpoints;
  std::string signature;  // recorded failure signature
};

// Writes the bundle of the failing run `result` of `input` into `dir` and
// returns `dir`. `provenance` adds meta keys for humans only (generator
// seeds, corpus file, iteration); replay never reads them.
std::string writeFuzzRepro(const std::string& dir, const FuzzInput& input,
                           const DiffOptions& options,
                           const DiffResult& result,
                           const BundleEntries& provenance);

// Throws aviv::Error on a malformed kind=fuzz bundle.
[[nodiscard]] FuzzRepro loadFuzzRepro(const ReproBundle& bundle);

// Re-runs the oracle under the bundle's failpoint spec (ScopedFailPoints:
// the caller's registry state is restored afterwards); reproduced when the
// replay's signature equals the recorded one.
[[nodiscard]] BundleReplay replayFuzzRepro(const FuzzRepro& repro);

}  // namespace aviv
