// The databases AVIV derives from an ISDL description before building any
// Split-Node DAG (paper Section II):
//
//   * OpDatabase — correlates each SUIF-style basic operation with the
//     target-processor operations (unit, op-index pairs) that implement it.
//   * TransferDatabase — all possible data transfers: the explicit single
//     paths from the description, "subsequently expanded to include
//     multiple-step data transfers as well" via breadth-first search. For
//     architectures with multiple transfer paths it retains every distinct
//     minimal-hop route so the Section IV-B route selector has options.
//   * ConstraintDatabase — the illegal operation combinations used to
//     split illegal maximal cliques (Section IV-C.3).
#pragma once

#include <optional>
#include <vector>

#include "isdl/machine.h"
#include "support/arena.h"

namespace aviv {

// One candidate implementation of an operation.
struct OpImpl {
  UnitId unit = kNoId16;
  int opIndex = 0;  // index into FunctionalUnit::ops
};

class OpDatabase {
 public:
  OpDatabase() = default;
  explicit OpDatabase(const Machine& machine);

  // Candidate implementations for `op` (possibly empty).
  [[nodiscard]] const std::vector<OpImpl>& implsFor(Op op) const;
  // True if at least one unit implements `op`.
  [[nodiscard]] bool isImplementable(Op op) const {
    return !implsFor(op).empty();
  }

 private:
  std::vector<std::vector<OpImpl>> byOp_;  // indexed by Op
};

// A multi-hop route: the sequence of TransferPath indices (into
// Machine::transfers()) a value follows from one storage to another.
struct TransferRoute {
  std::vector<int> pathIds;

  [[nodiscard]] int hops() const { return static_cast<int>(pathIds.size()); }
};

class TransferDatabase {
 public:
  // Cost reported for unreachable pairs; large but safely summable.
  static constexpr int kUnreachable = 1 << 20;

  TransferDatabase() = default;
  // `maxRoutesPerPair` caps how many distinct minimal routes are kept.
  explicit TransferDatabase(const Machine& machine, int maxRoutesPerPair = 8);

  // All minimal-hop routes from -> to. Empty if from == to (no transfer
  // needed) or unreachable (distinguish with cost()).
  [[nodiscard]] const std::vector<TransferRoute>& routes(Loc from,
                                                         Loc to) const;
  // Minimal hop count; 0 if from == to; kUnreachable if no route exists.
  [[nodiscard]] int cost(Loc from, Loc to) const;
  [[nodiscard]] bool reachable(Loc from, Loc to) const {
    return cost(from, to) < kUnreachable;
  }

  [[nodiscard]] size_t numLocs() const { return numLocs_; }

 private:
  [[nodiscard]] size_t locIndex(Loc loc) const;

  size_t numRegFiles_ = 0;
  size_t numLocs_ = 0;
  std::vector<int> cost_;                           // numLocs^2
  std::vector<std::vector<TransferRoute>> routes_;  // numLocs^2
  std::vector<TransferRoute> empty_;
};

class ConstraintDatabase {
 public:
  ConstraintDatabase() = default;
  explicit ConstraintDatabase(const Machine& machine);

  // Returns the first constraint violated by an instruction containing
  // exactly the given op-selections, or nullptr if the grouping is legal.
  // Duplicate OpSels in `sels` are allowed and treated as present-once.
  [[nodiscard]] const Constraint* firstViolated(Span<const OpSel> sels) const;
  [[nodiscard]] const Constraint* firstViolated(
      const std::vector<OpSel>& sels) const {
    return firstViolated(Span<const OpSel>(sels.data(), sels.size()));
  }

  [[nodiscard]] bool allows(const std::vector<OpSel>& sels) const {
    return firstViolated(sels) == nullptr;
  }

  [[nodiscard]] size_t size() const { return constraints_.size(); }
  // Every constraint, in the order firstViolated checks them.
  [[nodiscard]] const std::vector<Constraint>& all() const {
    return constraints_;
  }

 private:
  std::vector<Constraint> constraints_;
};

// Convenience bundle: everything derived from one machine.
struct MachineDatabases {
  MachineDatabases() = default;
  explicit MachineDatabases(const Machine& machine)
      : ops(machine), transfers(machine), constraints(machine) {}

  OpDatabase ops;
  TransferDatabase transfers;
  ConstraintDatabase constraints;
};

}  // namespace aviv
