// ResolvedMachine — a target machine taken once through everything AVIV
// derives from its description before any Split-Node DAG is built (paper
// Section II): validation, the operation/transfer/constraint databases, and
// the canonical machine fingerprint the compile cache keys on. The bundle
// is immutable after construction, so sessions (CodegenContext) and threads
// share one through a shared_ptr<const ResolvedMachine> instead of each
// owning a copy; the avivd request path memoizes bundles per machine file
// (src/service/request.cpp, DESIGN.md §6.3).
#pragma once

#include "isdl/databases.h"
#include "isdl/machine.h"
#include "support/hash.h"

namespace aviv {

// Canonical 128-bit hash of the machine model: all structure and every
// name and mnemonic, but not Constraint::note (diagnostic text). The
// machine component of the compile fingerprint (src/service/fingerprint.h).
[[nodiscard]] Hash128 fingerprintMachine(const Machine& machine);

struct ResolvedMachine {
  // Validates `machine` (throws its validation Error), builds the
  // databases and fingerprints it.
  explicit ResolvedMachine(Machine machine);

  const Machine machine;
  const MachineDatabases databases;
  const Hash128 fingerprint;
};

}  // namespace aviv
