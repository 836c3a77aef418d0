#include "core/resolved_machine.h"

namespace aviv {

namespace {

void feedLoc(Hasher& h, const Loc& loc) {
  h.u8(static_cast<uint8_t>(loc.kind));
  h.u16(loc.index);
}

const Machine& validated(const Machine& machine) {
  machine.validate();
  return machine;
}

}  // namespace

Hash128 fingerprintMachine(const Machine& machine) {
  Hasher h;
  h.str("machine");
  h.str(machine.name());

  h.u64(machine.regFiles().size());
  for (const RegFile& rf : machine.regFiles()) {
    h.str(rf.name);
    h.i64(rf.numRegs);
  }
  h.u64(machine.memories().size());
  for (const Memory& mem : machine.memories()) {
    h.str(mem.name);
    h.i64(mem.sizeWords);
    h.boolean(mem.isDataMemory);
  }
  h.u64(machine.buses().size());
  for (const Bus& bus : machine.buses()) {
    h.str(bus.name);
    h.i64(bus.capacity);
  }
  h.u64(machine.units().size());
  for (const FunctionalUnit& unit : machine.units()) {
    h.str(unit.name);
    h.u16(unit.regFile);
    h.u64(unit.ops.size());
    for (const UnitOp& op : unit.ops) {
      h.u8(static_cast<uint8_t>(op.op));
      h.str(op.mnemonic);
      h.i64(op.latency);
    }
  }
  h.u64(machine.transfers().size());
  for (const TransferPath& path : machine.transfers()) {
    feedLoc(h, path.from);
    feedLoc(h, path.to);
    h.u16(path.bus);
  }
  h.u64(machine.constraints().size());
  for (const Constraint& constraint : machine.constraints()) {
    // The note is diagnostic-only and intentionally excluded.
    h.u64(constraint.together.size());
    for (const OpSel& sel : constraint.together) {
      h.u16(sel.unit);
      h.u8(static_cast<uint8_t>(sel.op));
    }
  }
  return h.digest();
}

ResolvedMachine::ResolvedMachine(Machine m)
    : machine(std::move(m)),
      databases(validated(machine)),
      fingerprint(fingerprintMachine(machine)) {}

}  // namespace aviv
