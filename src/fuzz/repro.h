// Fuzz repro bundles: the `kind=fuzz` bundle (docs/fuzzing.md "Reproducing
// a failure") of one failing fuzz iteration — generated machine and block,
// generator seeds, diff options, failpoint spec and failure signature.
// Crashes and taxonomy escapes have no image to quarantine, so this is
// their only repro; a miscompile also gets a kind=miscompile bundle.
// `fuzz_gen --minimize` writes the shrunken pair as minimized/<name>/.
//
// Replaying re-parses machine and block, re-applies the recorded failpoint
// spec, re-runs the differential harness, and succeeds iff the recorded
// signature reproduces. Nothing from the originating session is needed:
// the bundle IS the bug report.
#pragma once

#include <cstdint>
#include <string>

#include "fuzz/diff.h"
#include "fuzz/genmachine.h"
#include "ir/dag.h"
#include "isdl/machine.h"
#include "support/repro_bundle.h"

namespace aviv {

// Generator provenance of one fuzz iteration (recorded for humans and for
// `fuzz_gen --seed` re-derivation; replay itself only needs the emitted
// sources).
struct FuzzCase {
  MachineFamily family = MachineFamily::kWideVliw;
  uint64_t machineSeed = 0;
  uint64_t blockSeed = 0;
  int iteration = -1;
  // Failpoint spec a replay must re-apply to reproduce ("" = none). When
  // the planted `fuzz-engine-disagree` fault fired, this is its
  // always-fire spec, independent of the fuzz run's probability schedule.
  std::string failpoints;
};

// Writes the bundle; returns its path. Directory name is
// "<machine>-<block>" — both names encode their generator seeds, so
// distinct cases never collide and identical cases overwrite in place.
std::string writeFuzzRepro(const std::string& outDir, const Machine& machine,
                           const BlockDag& dag, const FuzzCase& info,
                           const DiffOptions& options,
                           const DiffResult& result);

// A loaded bundle, ready to re-run or minimize.
struct FuzzRepro {
  Machine machine{""};
  BlockDag dag{""};
  FuzzCase info;
  DiffOptions options;
  std::string signature;  // recorded failure signature
};

// Throws aviv::Error on a malformed kind=fuzz bundle.
[[nodiscard]] FuzzRepro loadFuzzRepro(const ReproBundle& bundle);

// reproduced: the replay signature equals the recorded one.
struct FuzzReplayResult : BundleReplay {
  DiffResult result;
};

// Re-applies the bundle's failpoint spec (clearing the registry
// afterwards), re-runs the differential harness, and compares signatures.
[[nodiscard]] FuzzReplayResult replayFuzzRepro(const FuzzRepro& repro);

}  // namespace aviv
