// CodegenContext — one pipeline session of the AVIV back end. A session owns
// everything the stages share: a validated copy of the target machine, the
// databases derived from it (op correlation, expanded transfers,
// constraints), the session options (including the worker count `jobs`), a
// deterministic per-session RNG seed, the phase-telemetry tree every stage
// reports into, and the thread pool the parallel stages draw workers from.
//
// The context must outlive every result produced through it (compiled
// blocks reference its machine). TelemetryNode is not thread-safe: parallel
// stages write to disjoint per-block subtrees created before fanning out.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "core/options.h"
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

  // Validates and takes ownership of `machine`, builds the databases, and
  // (when options.jobs > 1) spawns the session thread pool up front so
  // parallel stages never race on its creation.
  explicit CodegenContext(Machine machine, CodegenOptions options = {},
                          uint64_t seed = kDefaultSeed);

  [[nodiscard]] const Machine& machine() const { return machine_; }
  [[nodiscard]] const MachineDatabases& databases() const { return dbs_; }
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
  // rows). Only perfbench's replay leases from it. The driver's coverBlock
  // calls pass no cache, so each compile uses its own call-local scratch,
  // and avivd builds a new CodeGenerator (hence a new session) per request.
  [[nodiscard]] WorkspaceCache& workspaces() { return workspaces_; }

  // Memo slot for the service layer's canonical machine fingerprint
  // (src/service/fingerprint.*). The machine is immutable after
  // validation, so the fingerprint is computed once per session. Set it
  // before any parallel region; reads afterwards are lock-free.
  [[nodiscard]] const std::optional<Hash128>& machineFingerprint() const {
    return machineFp_;
  }
  void setMachineFingerprint(Hash128 fp) { machineFp_ = fp; }

 private:
  Machine machine_;
  MachineDatabases dbs_;
  CodegenOptions options_;
  uint64_t seed_;
  TelemetryNode telemetry_;
  Deadline deadline_;
  std::unique_ptr<ThreadPool> pool_;
  WorkspaceCache workspaces_;
  std::optional<Hash128> machineFp_;
};

}  // namespace aviv
