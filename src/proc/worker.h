// Compile-worker process body (DESIGN.md System 29 / §6.9). The supervisor
// (proc/pool.h) forks; the child calls runWorkerProcess() and never
// returns: it reads request frames (net/frame.h, the PR 7 codec) off its
// end of the socketpair, executes each through the shared request dispatch
// (service/request.h) against a worker-private ResultCache, and writes one
// typed response frame back. A busy worker additionally emits kHeartbeat
// frames every 100 ms from a watchdog thread so the supervisor can tell a
// slow compile from a wedged process.
//
// The worker is the sandbox: before serving it resets inherited signal
// dispositions, applies the configured RLIMIT_AS memory ceiling, installs
// crash handlers that dump the flight-recorder tail (obs/trace.h) for the
// repro bundle, and closes every inherited fd except its socketpair. A
// SIGSEGV, abort(), OOM, or SIGKILL here takes down ONE request's process,
// never the daemon.
//
// Crash-class fail points (support/failpoint.h), evaluated once per
// request before compile work so the whole supervision path is
// deterministically testable:
//   worker-segv        null-pointer write            -> SIGSEGV
//   worker-abort       std::abort()                  -> SIGABRT
//   worker-oom         allocate until rlimit, abort  -> SIGABRT (OOM model)
//   worker-hang        spin forever                  -> supervisor SIGKILL
//   worker-torn-write  half a response frame, _exit  -> torn frame at the
//                                                       supervisor decoder
#pragma once

#include <cstdint>
#include <string>

#include "service/request.h"

namespace aviv::proc {

// Everything a worker needs, inherited through fork() — nothing is
// serialized. Built once by the supervisor from the daemon flags.
struct WorkerEnv {
  RequestDefaults defaults;
  // Worker-private cache over the shared on-disk store: the memory tier is
  // per-process, the `cacheDir` tier (when set) is shared with the
  // supervisor and the sibling workers.
  std::string cacheDir;
  bool cacheEnabled = true;
  size_t memEntries = 1024;
  // RLIMIT_AS cap; 0 = inherit (unlimited). A runaway search is bounded
  // by the supervisor's per-request hard deadline instead.
  uint64_t rssLimitBytes = 0;
  // Crash-handler flight-record dump target ("" disables); the supervisor
  // moves it into the crash repro bundle. Enabling implies enabling the
  // tracer in the worker so there is a tail to dump.
  std::string flightRecordPath;
  // Where a firing crash fail point notes its site name just before dying,
  // so the repro bundle can record an exact always-fire replay spec.
  std::string crashNotePath;
};

// Child-process entry point: serves requests on `fd` until EOF (supervisor
// closed its end -> clean _exit(0)). Never returns.
[[noreturn]] void runWorkerProcess(int fd, const WorkerEnv& env);

// Evaluates the worker crash-class fail points, performing the crash when
// one fires (after best-effort noting the site into `crashNotePath`).
// Shared between the worker request loop and the crash-repro replay child
// (proc/crash_repro.h) so a recorded spec reproduces the same death.
void evalWorkerCrashPoints(const std::string& crashNotePath);

// Applies the RLIMIT_AS cap (0 = leave untouched). Best-effort: a refused
// setrlimit is not fatal (the supervisor's hard deadline still backstops).
// Shared with the replay child.
void applyWorkerLimits(uint64_t rssLimitBytes);

// Formats "signal 11 (Segmentation fault)" / "exit code 3" from a waitpid
// status, for crash bundles and log lines.
[[nodiscard]] std::string describeExitStatus(int status);

}  // namespace aviv::proc
