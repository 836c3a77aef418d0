#include "fuzz/minimize.h"

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "support/error.h"

namespace aviv {

namespace {

// ---------------------------------------------------------------------------
// Block reductions. Rebuilding is semantic: we copy live nodes (after
// operand redirection) into a fresh DAG in topological order, letting CSE
// merge whatever the rewrite made equal.

// Redirect map entry: uses of `from` read `to` instead (resolved
// transitively so chained replacements compose).
using Redirect = std::map<NodeId, NodeId>;

NodeId resolve(const Redirect& redirect, NodeId id) {
  auto it = redirect.find(id);
  while (it != redirect.end()) {
    id = it->second;
    it = redirect.find(id);
  }
  return id;
}

// Rebuilds `dag` keeping only `outputs` (name -> redirected root), pruning
// everything they do not reach.
BlockDag rebuildBlock(const BlockDag& dag, const Redirect& redirect,
                      const std::vector<std::pair<std::string, NodeId>>& outputs) {
  // Liveness over redirected operands, outputs down.
  std::vector<bool> live(dag.size(), false);
  std::vector<NodeId> work;
  for (const auto& [name, id] : outputs) work.push_back(resolve(redirect, id));
  while (!work.empty()) {
    const NodeId id = work.back();
    work.pop_back();
    if (live[id]) continue;
    live[id] = true;
    for (NodeId operand : dag.node(id).operands)
      work.push_back(resolve(redirect, operand));
  }

  BlockDag out(dag.name());
  std::vector<NodeId> mapped(dag.size(), kNoNode);
  for (NodeId id = 0; id < dag.size(); ++id) {
    if (!live[id]) continue;
    const DagNode& node = dag.node(id);
    if (node.op == Op::kInput) {
      mapped[id] = out.addInput(node.name);
    } else if (node.op == Op::kConst) {
      mapped[id] = out.addConst(node.value);
    } else {
      std::vector<NodeId> operands;
      for (NodeId operand : node.operands)
        operands.push_back(mapped[resolve(redirect, operand)]);
      mapped[id] = out.addOp(node.op, std::move(operands));
    }
  }
  for (const auto& [name, id] : outputs)
    out.markOutput(name, mapped[resolve(redirect, id)]);
  return out;
}

std::vector<BlockDag> blockCandidates(const BlockDag& dag) {
  std::vector<BlockDag> candidates;
  const auto& outputs = dag.outputs();

  // Drop one output (keep at least one).
  if (outputs.size() > 1) {
    for (size_t drop = 0; drop < outputs.size(); ++drop) {
      std::vector<std::pair<std::string, NodeId>> kept;
      for (size_t i = 0; i < outputs.size(); ++i)
        if (i != drop) kept.push_back(outputs[i]);
      candidates.push_back(rebuildBlock(dag, {}, kept));
    }
  }

  // Replace an op node with its first operand, pruning its subtree. Skip
  // replacements that would bind a live-out directly to a leaf — the back
  // end covers computations, not renames.
  std::set<NodeId> outputRoots;
  for (const auto& [name, id] : outputs) outputRoots.insert(id);
  for (NodeId id = 0; id < dag.size(); ++id) {
    const DagNode& node = dag.node(id);
    if (isLeafOp(node.op)) continue;
    const NodeId target = node.operands[0];
    if (outputRoots.count(id) && isLeafOp(dag.node(target).op)) continue;
    Redirect redirect;
    redirect[id] = target;
    candidates.push_back(rebuildBlock(dag, redirect, outputs));
  }
  return candidates;
}

// ---------------------------------------------------------------------------
// Machine reductions, via an editable exploded copy.

struct MachineParts {
  std::string name;
  std::vector<RegFile> regFiles;
  std::vector<Memory> memories;
  std::vector<Bus> buses;
  std::vector<FunctionalUnit> units;
  std::vector<TransferPath> transfers;
  std::vector<Constraint> constraints;

  [[nodiscard]] Machine build() const {
    Machine machine(name);
    for (const RegFile& rf : regFiles) machine.addRegFile(rf);
    for (const Memory& m : memories) machine.addMemory(m);
    for (const Bus& b : buses) machine.addBus(b);
    for (const FunctionalUnit& u : units) machine.addUnit(u);
    for (const TransferPath& t : transfers) machine.addTransfer(t);
    for (const Constraint& c : constraints) machine.addConstraint(c);
    return machine;
  }
};

MachineParts partsOf(const Machine& machine) {
  return {machine.name(),  machine.regFiles(),  machine.memories(),
          machine.buses(), machine.units(),     machine.transfers(),
          machine.constraints()};
}

std::vector<Machine> machineCandidates(const Machine& machine) {
  std::vector<Machine> candidates;
  const MachineParts base = partsOf(machine);
  auto push = [&](const MachineParts& parts) {
    Machine m = parts.build();
    try {
      m.validate();
    } catch (const Error&) {
      return;  // reduction broke structural validity; not a candidate
    }
    candidates.push_back(std::move(m));
  };

  // Drop a unit (keep >= 1): remap/drop constraints that reference it.
  if (base.units.size() > 1) {
    for (size_t drop = 0; drop < base.units.size(); ++drop) {
      MachineParts parts = base;
      parts.units.erase(parts.units.begin() + drop);
      std::vector<Constraint> kept;
      for (Constraint c : parts.constraints) {
        bool references = false;
        for (OpSel& sel : c.together) {
          if (sel.unit == drop) references = true;
          if (sel.unit > drop) --sel.unit;
        }
        if (!references) kept.push_back(std::move(c));
      }
      parts.constraints = std::move(kept);
      push(parts);
    }
  }

  // Drop a transfer path. Disconnecting the machine is fine — the compile
  // then rejects, the signature changes, and the candidate is discarded.
  for (size_t drop = 0; drop < base.transfers.size(); ++drop) {
    MachineParts parts = base;
    parts.transfers.erase(parts.transfers.begin() + drop);
    push(parts);
  }

  // Drop a constraint.
  for (size_t drop = 0; drop < base.constraints.size(); ++drop) {
    MachineParts parts = base;
    parts.constraints.erase(parts.constraints.begin() + drop);
    push(parts);
  }

  // Drop one op from a unit with several, plus constraints referencing it.
  for (size_t u = 0; u < base.units.size(); ++u) {
    if (base.units[u].ops.size() <= 1) continue;
    for (size_t o = 0; o < base.units[u].ops.size(); ++o) {
      MachineParts parts = base;
      const Op dropped = parts.units[u].ops[o].op;
      parts.units[u].ops.erase(parts.units[u].ops.begin() + o);
      std::vector<Constraint> kept;
      for (Constraint& c : parts.constraints) {
        bool references = false;
        for (const OpSel& sel : c.together)
          if (sel.unit == u && sel.op == dropped) references = true;
        if (!references) kept.push_back(std::move(c));
      }
      parts.constraints = std::move(kept);
      push(parts);
    }
  }

  // Drop a register file no unit reads (shifting higher ids), along with
  // any transfers touching it.
  for (size_t drop = 0; drop < base.regFiles.size(); ++drop) {
    bool used = false;
    for (const FunctionalUnit& u : base.units)
      if (u.regFile == drop) used = true;
    if (used) continue;
    MachineParts parts = base;
    parts.regFiles.erase(parts.regFiles.begin() + drop);
    for (FunctionalUnit& u : parts.units)
      if (u.regFile > drop) --u.regFile;
    std::vector<TransferPath> keptT;
    for (TransferPath t : parts.transfers) {
      if ((t.from.isRegFile() && t.from.index == drop) ||
          (t.to.isRegFile() && t.to.index == drop))
        continue;
      if (t.from.isRegFile() && t.from.index > drop) --t.from.index;
      if (t.to.isRegFile() && t.to.index > drop) --t.to.index;
      keptT.push_back(t);
    }
    parts.transfers = std::move(keptT);
    push(parts);
  }

  // Drop a bus no transfer rides (shifting higher ids).
  for (size_t drop = 0; drop < base.buses.size(); ++drop) {
    bool used = false;
    for (const TransferPath& t : base.transfers)
      if (t.bus == drop) used = true;
    if (used) continue;
    MachineParts parts = base;
    parts.buses.erase(parts.buses.begin() + drop);
    for (TransferPath& t : parts.transfers)
      if (t.bus > drop) --t.bus;
    push(parts);
  }

  // Halve a register file (min 1).
  for (size_t r = 0; r < base.regFiles.size(); ++r) {
    if (base.regFiles[r].numRegs <= 1) continue;
    MachineParts parts = base;
    parts.regFiles[r].numRegs = parts.regFiles[r].numRegs / 2;
    push(parts);
  }

  return candidates;
}

}  // namespace

int structuralSize(const Machine& machine, const Program& program) {
  int size = static_cast<int>(machine.units().size()) +
             static_cast<int>(machine.transfers().size()) +
             static_cast<int>(machine.constraints().size()) +
             static_cast<int>(machine.regFiles().size());
  for (size_t b = 0; b < program.numBlocks(); ++b)
    size += static_cast<int>(program.block(b).numOpNodes()) +
            static_cast<int>(program.block(b).outputs().size());
  for (const FunctionalUnit& u : machine.units())
    size += static_cast<int>(u.ops.size());
  for (const RegFile& rf : machine.regFiles()) size += rf.numRegs;
  return size;
}

MinimizeResult minimizeFuzzCase(const Machine& machine, const Program& program,
                                const DiffOptions& diffOptions,
                                const std::string& signature,
                                const MinimizeOptions& options) {
  DiffOptions quiet = diffOptions;
  quiet.quarantineDir.clear();  // candidate runs never write artifacts

  MinimizeResult result;
  result.machine = machine;
  result.program = program;
  result.stats.sizeTrajectory.push_back(structuralSize(machine, program));

  // Accepts a candidate that keeps the signature and is strictly smaller.
  auto accept = [&](Machine candidateMachine, Program candidateProgram) {
    ++result.stats.attempts;
    const DiffResult run =
        runDifferential(candidateMachine, candidateProgram, quiet);
    if (run.signature != signature) return false;
    const int size = structuralSize(candidateMachine, candidateProgram);
    if (size >= result.stats.sizeTrajectory.back()) return false;
    result.machine = std::move(candidateMachine);
    result.program = std::move(candidateProgram);
    result.stats.sizeTrajectory.push_back(size);
    return true;
  };

  bool improved = true;
  while (improved && result.stats.attempts < options.maxAttempts) {
    improved = false;

    // Block reductions first: shrinking the DAG usually collapses the
    // machine-side search space too. Only a single-block program shrinks;
    // a multi-block one keeps its blocks (and its source text).
    if (result.program.numBlocks() == 1) {
      for (BlockDag& candidate : blockCandidates(result.program.block(0))) {
        if (result.stats.attempts >= options.maxAttempts) break;
        // Regenerate candidates against the smaller pair.
        improved = accept(result.machine,
                          singleBlockProgram(std::move(candidate)));
        if (improved) break;
      }
    }
    if (improved) continue;

    for (Machine& candidate : machineCandidates(result.machine)) {
      if (result.stats.attempts >= options.maxAttempts) break;
      improved = accept(std::move(candidate), result.program);
      if (improved) break;
    }
  }
  return result;
}

}  // namespace aviv
