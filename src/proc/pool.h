// Supervised compile-worker pool (DESIGN.md System 29 / §6.9): the
// `avivd --isolate-workers N` crash-isolation layer. The supervisor forks N
// sandboxed worker processes (proc/worker.h), each on its own socketpair
// speaking the PR 7 frame codec, and routes every request through one:
//
//   execute(line) -> pick idle worker -> kRequest frame -> poll:
//     kHeartbeat        liveness; resets the silent-worker clock
//     response frame    done — typed result back to the caller
//     EOF / torn frame  worker died mid-request
//     hard deadline     SIGKILL — hung or runaway worker
//     heartbeat silence SIGKILL — wedged worker (alive but not serving)
//
// The contract is ZERO LOST RESPONSES: a request whose worker dies is
// retried exactly once on a healthy worker; a second death maps to a typed
// kError response. The caller always gets exactly one answer — a worker
// crash never surfaces as a dropped connection or a missing batch line.
//
// Every crash additionally:
//   * is captured as a standalone repro bundle (proc/crash_repro.h) when
//     `crashDir` is set — request, resolved sources, exit signal, rlimits,
//     failpoint site, flight-recorder tail;
//   * triggers the `onCrash` hook (avivd points it at the result cache's
//     stale-temp sweep: a worker SIGKILLed mid-store leaves a torn *.tmp);
//   * feeds a per-request-line crash-loop breaker: K crashes within the
//     window blacklists that line — further arrivals are served in-process
//     by the baseline engine (a deliberately different code path from the
//     covering flow that keeps killing workers), never by another worker.
//
// Dead workers respawn with exponential backoff (a crash-looping fleet
// must not fork-bomb); the supervisor itself never dies on any worker
// behavior.
//
// Thread-safety: execute() is safe from many threads (the server's handler
// pool); each in-flight request exclusively owns one worker slot.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "net/frame.h"
#include "net/socket.h"
#include "proc/worker.h"

namespace aviv::proc {

struct PoolConfig {
  int workers = 2;
  // Hard per-request ceiling; past it the worker is SIGKILLed. 0 disables
  // (heartbeat silence still catches wedged workers).
  int hardDeadlineMs = 30000;
  // SIGKILL a busy worker that has not produced a heartbeat or response
  // for this long. Must be comfortably larger than env.heartbeatMs.
  int heartbeatTimeoutMs = 2000;
  // Crash-loop breaker: K crashes of one request line within the window
  // opens the breaker for that line.
  int crashLoopK = 3;
  double crashLoopWindowSeconds = 60.0;
  // Respawn backoff: doubles per consecutive crash of a slot, resets on a
  // served response.
  int respawnBackoffMs = 50;
  int respawnBackoffMaxMs = 2000;
  // Crash repro bundles land here; "" disables capture.
  std::string crashDir;
  // Invoked (on the executing thread) after every worker crash, before the
  // retry. avivd wires the cache stale-temp sweep here.
  std::function<void()> onCrash;
  WorkerEnv env;
};

struct PoolStats {
  uint64_t requests = 0;
  uint64_t crashes = 0;         // worker deaths observed mid-request
  uint64_t deadlineKills = 0;   // hard-deadline SIGKILLs (subset of crashes)
  uint64_t heartbeatKills = 0;  // silent-worker SIGKILLs (subset of crashes)
  uint64_t respawns = 0;
  uint64_t crashRetried = 0;    // requests that survived via the one retry
  uint64_t crashFailed = 0;     // requests that crashed twice -> kError
  uint64_t breakerOpens = 0;
  uint64_t breakerServed = 0;
  uint64_t reproBundles = 0;
};

class WorkerPool {
 public:
  // Forks the initial fleet. Throws aviv::Error when no worker can be
  // spawned at all.
  explicit WorkerPool(PoolConfig config);
  // SIGKILLs and reaps every worker.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Runs one request line to a typed answer. Never throws; every failure
  // mode (crash, double crash, breaker) is a typed response. crashRetries
  // counts the worker deaths it consumed: 0 clean, 1 retried onto a healthy
  // worker, 2 gave up (kError); nonzero also appends " crashed=K" to the
  // detail.
  [[nodiscard]] net::NetResponse execute(const std::string& line,
                                         bool wantAsm);

  [[nodiscard]] PoolStats stats() const;
  [[nodiscard]] const PoolConfig& config() const { return config_; }
  // Live (spawned, not known-dead) workers right now — for tests.
  [[nodiscard]] int aliveWorkers() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Slot {
    pid_t pid = -1;
    net::Fd fd;          // supervisor end of the socketpair
    bool busy = false;   // exclusively owned by one execute()
    bool dead = true;    // needs (re)spawn before next use
    Clock::time_point respawnAt{};  // earliest next spawn (backoff)
    int backoffMs = 0;
    std::string flightPath;  // per-slot crash-handler dump target
    std::string notePath;    // per-slot crash fail-point note
  };

  struct Breach {
    int count = 0;
    Clock::time_point windowStart{};
    bool open = false;
    Clock::time_point openedAt{};
  };

  // What one dispatch attempt on a worker ended as.
  struct Attempt {
    bool crashed = false;
    bool gotResponse = false;  // full response decoded (even if then reaped)
    bool killedByDeadline = false;
    bool killedByHeartbeat = false;
    int exitStatus = 0;
    net::ResponsePayload response;
    net::FrameType type = net::FrameType::kError;
  };

  // Slot lifecycle (slots_ guarded by mu_; a busy slot's pid/fd belong to
  // the executing thread).
  int acquireSlot();            // blocks; -1 only after shutdown
  void releaseSlot(int index, bool healthy);
  bool spawnSlot(int index);    // mu_ held; false when fork fails
  void killAndReap(Slot& slot);

  Attempt runOnWorker(int index, const std::string& line, bool wantAsm,
                      uint64_t id);
  // Crash bookkeeping: reap, bundle, hook, breaker. Fills in the attempt's
  // exit status.
  void handleCrash(int index, const std::string& line, bool wantAsm,
                   Attempt* attempt);

  bool breakerOpenFor(const std::string& line);
  void breakerRecordCrash(const std::string& line);
  void breakerRecordSuccess(const std::string& line);
  net::NetResponse serveBreaker(const std::string& line, bool wantAsm);

  PoolConfig config_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Slot> slots_;
  bool shutdown_ = false;
  std::atomic<uint64_t> nextId_{1};
  std::atomic<uint64_t> crashSeq_{0};

  std::mutex breakerMu_;
  std::map<std::string, Breach> breaker_;

  mutable std::mutex statsMu_;
  PoolStats stats_;
};

}  // namespace aviv::proc
