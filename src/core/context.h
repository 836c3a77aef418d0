// CodegenContext — one pipeline session of the AVIV back end. A session
// holds everything the stages share: the resolved target machine (the
// validated Machine, the databases derived from it — op correlation,
// expanded transfers, constraints — and its fingerprint), shared immutably
// with any other session resolved from the same machine; and, of its own,
// the session options (including the worker count `jobs`), a deterministic
// per-session RNG seed, the phase-telemetry tree every stage reports into,
// and the thread pool the parallel stages draw workers from.
//
// The context must outlive every result produced through it (compiled
// blocks reference its machine). TelemetryNode is not thread-safe: parallel
// stages write to disjoint per-block subtrees created before fanning out.
#pragma once

#include <cstdint>
#include <memory>

#include "core/options.h"
#include "core/resolved_machine.h"
#include "core/workspace.h"
#include "isdl/databases.h"
#include "isdl/machine.h"
#include "support/deadline.h"
#include "support/hash.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"

namespace aviv {

class CodegenContext {
 public:
  static constexpr uint64_t kDefaultSeed = 0x41564956ull;  // "AVIV"

  // Shares the already-resolved `machine` and (when options.jobs > 1)
  // spawns the session thread pool up front so parallel stages never race
  // on its creation.
  explicit CodegenContext(std::shared_ptr<const ResolvedMachine> machine,
                          CodegenOptions options = {},
                          uint64_t seed = kDefaultSeed);
  // Resolves `machine` into a private bundle (validate, databases,
  // fingerprint), then as above.
  explicit CodegenContext(Machine machine, CodegenOptions options = {},
                          uint64_t seed = kDefaultSeed);

  [[nodiscard]] const Machine& machine() const { return resolved_->machine; }
  [[nodiscard]] const MachineDatabases& databases() const {
    return resolved_->databases;
  }
  // The service layer's canonical machine fingerprint
  // (src/service/fingerprint.*), computed once per resolved machine.
  [[nodiscard]] const Hash128& machineFingerprint() const {
    return resolved_->fingerprint;
  }
  [[nodiscard]] uint64_t seed() const { return seed_; }
  [[nodiscard]] int jobs() const { return options_.jobs > 1 ? options_.jobs : 1; }

  // Session thread pool; nullptr when the session is single-threaded.
  [[nodiscard]] ThreadPool* pool() { return pool_.get(); }

  // The session's wall-clock budget / cancellation token, polled
  // cooperatively by the covering stages (assign_explore, CoveringEngine,
  // coverBlock's candidate loop). The constructor arms it from
  // options.timeLimitSeconds; the driver re-arms it at every
  // compileBlock/compileProgram entry so the budget is per compile, not
  // per session. Unarmed (timeLimitSeconds <= 0) it never expires.
  [[nodiscard]] Deadline& deadline() { return deadline_; }
  [[nodiscard]] const Deadline& deadline() const { return deadline_; }

  [[nodiscard]] TelemetryNode& telemetry() { return telemetry_; }
  [[nodiscard]] const TelemetryNode& telemetry() const { return telemetry_; }

  // Session-lifetime pool of covering workspaces (arenas, bitsets, matrix
  // rows). Only perfbench's replay leases from it. coverBlock owns its own
  // per-worker scratch for each call, and avivd builds a new CodeGenerator
  // (hence a new session, sharing the process's resolved machine) per
  // request.
  [[nodiscard]] WorkspaceCache& workspaces() { return workspaces_; }

  // Kept for perfbench/replay.cpp, which predates the resolved machine
  // and still hands the session a fingerprint. The bundle already carries
  // it, so this only checks that `fp` agrees (InternalError otherwise).
  void setMachineFingerprint(Hash128 fp) const;

 private:
  std::shared_ptr<const ResolvedMachine> resolved_;
  CodegenOptions options_;
  uint64_t seed_;
  TelemetryNode telemetry_;
  Deadline deadline_;
  std::unique_ptr<ThreadPool> pool_;
  WorkspaceCache workspaces_;
};

}  // namespace aviv
