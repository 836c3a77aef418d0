// Quarantine artifacts: the `kind=miscompile` bundle (docs/fuzzing.md
// "Reproducing a failure") written when a compiled block disagrees with
// the reference interpreter, as <quarantineDir>/<machine>-<block>-<hash>/.
// It holds the failing image, so replay re-verifies exactly what was
// emitted, with the recorded seed, deterministically and with nothing from
// the originating session. Writing is best-effort — quarantine I/O
// failures (including the `quarantine-write` failpoint) never escalate
// past the caller.
#pragma once

#include <string>
#include <vector>

#include "asmgen/code_image.h"
#include "ir/dag.h"
#include "isdl/machine.h"
#include "support/repro_bundle.h"
#include "verify/verify.h"

namespace aviv {

// Writes the artifact directory; returns its path, or "" when writing
// failed or `quarantineDir` is empty (failures are swallowed — quarantine
// is diagnostics, not control flow).
std::string writeQuarantineArtifact(const std::string& quarantineDir,
                                    const Machine& machine,
                                    const BlockDag& dag,
                                    const CodeImage& image,
                                    const std::vector<std::string>& symbolNames,
                                    const VerifyOptions& options,
                                    const VerifyReport& report);

// reproduced: the replay also failed verification; detail: its report.
struct ReplayResult : BundleReplay {
  VerifyReport report;
};

// Re-runs the recorded verification of a kind=miscompile bundle on the
// recorded image. Throws aviv::Error when the bundle is malformed.
[[nodiscard]] ReplayResult replayQuarantineArtifact(const ReproBundle& bundle);

}  // namespace aviv
