// Crash repro bundles (DESIGN.md §6.9): the supervisor writes a worker's
// abnormal death (SIGSEGV, SIGABRT, torn-write exit) as a `kind=crash`
// bundle and its SIGKILL of a hung or heartbeat-silent worker as `kind=kill`,
// in <crash-dir>/crash-<seq>-<cause>/ (files and keys: docs/fuzzing.md
// "Reproducing a failure"). Replay re-runs the request in a sandboxed child
// under the recorded failpoint spec and rlimits: a crash reproduces iff the
// child dies abnormally, a kill iff it outlives the recorded deadline.
// loadCrashRepro points machine=/block= at the bundle's own copies.
#pragma once

#include <cstdint>
#include <string>

#include "support/repro_bundle.h"

namespace aviv::proc {

// Everything the supervisor knows at capture time. writeCrashRepro is
// best-effort and never throws — losing a bundle must not lose the
// response, let alone the supervisor.
struct CrashCapture {
  std::string crashDir;      // parent directory; "" disables capture
  std::string requestLine;   // original request text
  bool wantAsm = false;
  int exitStatus = 0;        // raw waitpid status
  bool killedByDeadline = false;  // true -> kind=kill
  // Site name the firing crash fail point noted before dying ("" when the
  // crash had no fail point behind it); becomes the replay's always-fire
  // spec.
  std::string failpointSite;
  uint64_t rssLimitBytes = 0;
  uint64_t cpuLimitSeconds = 0;
  int deadlineMs = 0;
  // Flight-recorder dump the worker's crash handler wrote, moved into the
  // bundle ("" or missing file = no tail captured).
  std::string flightRecordPath;
  uint64_t sequence = 0;  // unique bundle naming
};

// Writes one bundle; returns its directory, or "" when capture failed or
// crashDir is empty. Never throws.
[[nodiscard]] std::string writeCrashRepro(const CrashCapture& capture);

struct CrashRepro {
  BundleKind kind = BundleKind::kCrash;  // kCrash | kKill
  std::string requestLine;  // rewritten to bundle-local machine/block paths
  bool wantAsm = false;
  std::string failpointSite;
  uint64_t rssLimitBytes = 0;
  uint64_t cpuLimitSeconds = 0;
  int deadlineMs = 0;
};

// Throws aviv::Error on a malformed kind=crash|kill bundle.
[[nodiscard]] CrashRepro loadCrashRepro(const ReproBundle& bundle);

// Forks a sandboxed child that re-applies the recorded failpoint spec and
// rlimits, then runs the recorded request exactly as a worker would.
// Never throws; a replay harness failure reports reproduced=false with the
// reason in `detail`.
[[nodiscard]] BundleReplay replayCrashRepro(const CrashRepro& repro);

}  // namespace aviv::proc
