#include "asmgen/encode.h"

#include "support/error.h"

namespace aviv {

int SymbolTable::intern(const std::string& name) {
  const auto it = addrOf_.find(name);
  if (it != addrOf_.end()) return it->second;
  const int addr = next_++;
  addrOf_[name] = addr;
  return addr;
}

int SymbolTable::lookup(const std::string& name) const {
  const auto it = addrOf_.find(name);
  if (it == addrOf_.end())
    throw Error("no data-memory address assigned to variable '" + name + "'");
  return it->second;
}

int SymbolScope::intern(const std::string& name) {
  if (table_ != nullptr) return table_->intern(name);
  const auto it = ordinalOf_.find(name);
  if (it != ordinalOf_.end()) return provisionalAddr(it->second);
  const int ordinal = static_cast<int>(names_.size());
  ordinalOf_[name] = ordinal;
  names_.push_back(name);
  return provisionalAddr(ordinal);
}

void resolveSymbols(CodeImage& image, const SymbolScope& scope,
                    SymbolTable& table) {
  if (!scope.deferred()) return;
  SymbolScope direct(table);
  applySymbolAddrs(image, bindSymbols(scope.recorded(), direct));
}

void requireDataMemoryFits(const CodeImage& image, int variableWords,
                           const Machine& machine) {
  if (variableWords <= image.spillBase) return;
  throw Error("data memory of machine '" + machine.name() +
              "' too small: " + std::to_string(variableWords) +
              " variable words overlap " +
              std::to_string(image.numSpillSlots) + " spill slots");
}

std::vector<int> bindSymbols(const std::vector<std::string>& names,
                             SymbolScope& scope) {
  std::vector<int> addrs;
  addrs.reserve(names.size());
  for (const std::string& name : names) addrs.push_back(scope.intern(name));
  return addrs;
}

int boundAddr(int addr, const std::vector<int>& symbolAddrs) {
  if (!SymbolScope::isProvisional(addr)) return addr;
  const int ordinal = SymbolScope::ordinalOf(addr);
  AVIV_CHECK_MSG(static_cast<size_t>(ordinal) < symbolAddrs.size(),
                 "image references symbol ordinal "
                     << ordinal << " outside its " << symbolAddrs.size()
                     << " recorded names");
  return symbolAddrs[static_cast<size_t>(ordinal)];
}

void applySymbolAddrs(CodeImage& image, const std::vector<int>& symbolAddrs) {
  auto fix = [&](int& addr) { addr = boundAddr(addr, symbolAddrs); };
  for (auto& cell : image.constPool) fix(cell.first);
  for (EncInstr& instr : image.instrs)
    for (EncXfer& xfer : instr.xfers) fix(xfer.memAddr);
  for (OutputBinding& binding : image.outputs) fix(binding.memAddr);
}

void rebindSymbols(CodeImage& image, const std::vector<std::string>& names,
                   SymbolScope& scope) {
  applySymbolAddrs(image, bindSymbols(names, scope));
}

CodeImage encodeBlock(const AssignedGraph& graph, const Schedule& schedule,
                      const RegAssignment& regs, SymbolTable& symbols) {
  SymbolScope scope(symbols);
  return encodeBlock(graph, schedule, regs, scope);
}

CodeImage encodeBlock(const AssignedGraph& graph, const Schedule& schedule,
                      const RegAssignment& regs, SymbolScope& symbols) {
  const Machine& machine = graph.machine();
  const BlockDag& ir = graph.ir();

  CodeImage image;
  image.blockName = ir.name();
  image.machineName = machine.name();
  image.numSpillSlots = graph.numSpillSlots();
  const int memWords = machine.memory(machine.dataMemory()).sizeWords;
  image.spillBase = memWords - image.numSpillSlots;

  // Intern every input variable up front so addresses are stable, then the
  // constant-pool cells this block references.
  for (const std::string& input : ir.inputNames()) symbols.intern(input);
  for (const auto& [cell, value] : graph.constPool())
    image.constPool.emplace_back(symbols.intern(cell), value);

  auto regOf = [&](AgId id) {
    const int reg = regs.regOf[id];
    AVIV_CHECK_MSG(reg >= 0, "no register for " << graph.describe(id));
    return reg;
  };

  for (const auto& instrNodes : schedule.instrs) {
    EncInstr instr;
    for (const AgId id : instrNodes) {
      const AgNode& n = graph.node(id);
      if (n.kind == AgKind::kOp) {
        EncOp op;
        op.unit = n.unit;
        op.op = n.machineOp;
        op.mnemonic = machine.unit(n.unit)
                          .ops[static_cast<size_t>(n.unitOpIdx)]
                          .mnemonic;
        op.dstReg = regOf(id);
        for (size_t i = 0; i < n.operandDefs.size(); ++i) {
          EncOperand src;
          if (n.operandDefs[i] == kNoAg) {
            src.isImm = true;
            src.imm = ir.node(n.operandIr[i]).value;
          } else {
            src.reg = regOf(n.operandDefs[i]);
          }
          op.srcs.push_back(src);
        }
        instr.ops.push_back(std::move(op));
        continue;
      }
      AVIV_CHECK(n.isTransferish());
      const TransferPath& path =
          machine.transfers()[static_cast<size_t>(n.pathId)];
      EncXfer xfer;
      xfer.bus = path.bus;
      xfer.from = path.from;
      xfer.to = path.to;
      if (path.from.isRegFile()) {
        AVIV_CHECK(n.valueSrc != kNoAg);
        xfer.srcReg = regOf(n.valueSrc);
      } else if (n.valueSrc != kNoAg &&
                 graph.node(n.valueSrc).spillSlot >= 0) {
        // Reading a scratch cell a previous route hop parked the value in.
        const int slot = graph.node(n.valueSrc).spillSlot;
        xfer.memAddr = image.spillBase + slot;
        xfer.comment = "scratch" + std::to_string(slot);
      } else {
        // Reading data memory: named variable or spill slot.
        if (n.kind == AgKind::kSpillLoad) {
          AVIV_CHECK(n.spillSlot >= 0);
          xfer.memAddr = image.spillBase + n.spillSlot;
          xfer.comment = "spill" + std::to_string(n.spillSlot);
        } else {
          AVIV_CHECK(!n.memVar.empty());
          xfer.memAddr = symbols.intern(n.memVar);
          xfer.comment = n.memVar;
        }
      }
      if (path.to.isRegFile()) {
        xfer.dstReg = regOf(id);
      } else {
        if (n.spillSlot >= 0) {
          xfer.memAddr = image.spillBase + n.spillSlot;
          xfer.comment = "spill" + std::to_string(n.spillSlot);
        } else {
          AVIV_CHECK(!n.memVar.empty());
          xfer.memAddr = symbols.intern(n.memVar);
          xfer.comment = n.memVar;
        }
      }
      instr.xfers.push_back(std::move(xfer));
    }
    image.instrs.push_back(std::move(instr));
  }

  // Output bindings.
  for (const auto& [name, def] : graph.outputDefs()) {
    OutputBinding binding;
    binding.name = name;
    if (def == kNoAg) {
      binding.inMemory = true;
      // Output stored under its own name; for input-aliased outputs the
      // value sits under the input variable's cell.
      const NodeId outIr = [&] {
        for (const auto& [n, id] : ir.outputs())
          if (n == name) return id;
        AVIV_UNREACHABLE("output binding without IR output");
      }();
      const DagNode& outNode = ir.node(outIr);
      binding.memAddr = outNode.op == Op::kInput ? symbols.intern(outNode.name)
                                                 : symbols.intern(name);
    } else {
      binding.loc = graph.node(def).defLoc;
      binding.reg = regOf(def);
    }
    image.outputs.push_back(std::move(binding));
  }

  // Deferred scopes cannot know the merged table size yet; the driver
  // re-checks after resolveSymbols.
  if (!symbols.deferred())
    requireDataMemoryFits(image, symbols.sizeWords(), machine);
  return image;
}

}  // namespace aviv
