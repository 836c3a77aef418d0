// Delta-debugging minimizer for fuzz failures: greedily shrinks a failing
// machine x program pair while the differential harness keeps returning the
// same failure signature (diff.h), so a fuzz hit lands as a ~10-line repro
// instead of a 500-line blob.
//
// Reductions tried, largest wins first:
//   block   drop a live-out (dead subgraph pruned) · replace an op node
//           with its first operand (subtree pruned). Single-block programs
//           only: a multi-block program keeps its blocks.
//   machine drop a unit · drop a transfer path · drop a constraint · drop
//           one op from a unit's repertoire · drop an orphan regfile/bus ·
//           halve a register file
//
// Every candidate must still pass Machine::validate(); a candidate that
// changes the signature (including "the failure disappeared" and "a
// different failure appeared") is rejected. Each accepted step strictly
// decreases the structural size, so minimization terminates and the size
// trajectory is strictly monotone — the minimizer unit test asserts both.
#pragma once

#include <string>
#include <vector>

#include "fuzz/diff.h"
#include "ir/program.h"
#include "isdl/machine.h"

namespace aviv {

// The metric minimization shrinks: op nodes + outputs (over every block) +
// units + unit ops + transfers + constraints + register files + total
// registers.
[[nodiscard]] int structuralSize(const Machine& machine,
                                 const Program& program);

struct MinimizeStats {
  int attempts = 0;  // candidate re-runs of the differential harness
  // structuralSize after each accepted step (a candidate that kept the
  // signature), starting size first. Strictly decreasing by construction.
  std::vector<int> sizeTrajectory;
};

struct MinimizeResult {
  Machine machine{""};
  Program program{""};
  MinimizeStats stats;
};

struct MinimizeOptions {
  // Upper bound on harness re-runs; minimization returns the best pair so
  // far when exhausted. The default is generous — candidates are tiny and
  // each accepted step shrinks the next round's candidate set.
  int maxAttempts = 2000;
};

// Shrinks (machine, program) while the compile stage
// runDifferential(..., diffOptions) keeps returning `signature`. The
// caller owns failpoint configuration: apply the repro's spec first so a
// planted fault keeps firing on every candidate run.
// diffOptions.quarantineDir is ignored (candidate runs never write
// artifacts).
[[nodiscard]] MinimizeResult minimizeFuzzCase(const Machine& machine,
                                              const Program& program,
                                              const DiffOptions& diffOptions,
                                              const std::string& signature,
                                              const MinimizeOptions& options = {});

}  // namespace aviv
