// CodeImage — the fully-encoded form of a compiled block: every operation
// has concrete register numbers, every transfer concrete source/destination
// registers or data-memory addresses. This is what both the textual
// assembly emitter and the instruction-level simulator consume (paper Fig 1:
// the assembler and simulator legs of the framework).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/op.h"
#include "isdl/machine.h"

namespace aviv {

// Data-memory address assignment for named variables, shared across all
// blocks of a program so inter-block dataflow lines up.
class SymbolTable {
 public:
  // Address of `name`, allocating the next free word on first use.
  int intern(const std::string& name);
  // Address of `name`; throws aviv::Error if not interned.
  [[nodiscard]] int lookup(const std::string& name) const;
  [[nodiscard]] bool contains(const std::string& name) const {
    return addrOf_.count(name) > 0;
  }
  [[nodiscard]] const std::map<std::string, int>& all() const {
    return addrOf_;
  }
  [[nodiscard]] int sizeWords() const { return next_; }

 private:
  std::map<std::string, int> addrOf_;
  int next_ = 0;
};

struct EncOperand {
  bool isImm = false;
  int reg = -1;      // register index in the unit's bank
  int64_t imm = 0;
};

// One functional-unit operation slot.
struct EncOp {
  UnitId unit = kNoId16;
  Op op = Op::kAdd;
  std::string mnemonic;
  int dstReg = -1;
  std::vector<EncOperand> srcs;
};

// One bus transfer slot (register move, variable load, spill store/reload,
// output store).
struct EncXfer {
  BusId bus = kNoId16;
  Loc from;
  Loc to;
  int srcReg = -1;   // when from is a register file
  int dstReg = -1;   // when to is a register file
  int memAddr = -1;  // when from/to is a memory
  std::string comment;  // variable name / spill slot tag for listings
};

struct EncInstr {
  std::vector<EncOp> ops;
  std::vector<EncXfer> xfers;
};

// Where a block output lives when the block finishes.
struct OutputBinding {
  std::string name;
  bool inMemory = false;  // true: at memAddr in data memory
  Loc loc;                // register file, when !inMemory
  int reg = -1;
  int memAddr = -1;
};

struct CodeImage {
  std::string blockName;
  std::string machineName;
  std::vector<EncInstr> instrs;
  std::vector<OutputBinding> outputs;
  int spillBase = 0;       // first data-memory word used for spill slots
  int numSpillSlots = 0;
  // Constant-pool initializers: (address, value) the loader must place in
  // data memory before execution.
  std::vector<std::pair<int, int64_t>> constPool;

  [[nodiscard]] int numInstructions() const {
    return static_cast<int>(instrs.size());
  }
  // Human-readable VLIW assembly listing.
  [[nodiscard]] std::string asmText(const Machine& machine) const;
  // Appends asmText(machine) to `out`. With `symbolAddrs` (bindSymbols'
  // ordinal -> address map, asmgen/encode.h), every provisional data-memory
  // address prints as the address it binds to: the listing
  // rebindSymbols would give this image, without a copy of the image.
  void appendAsmText(std::string& out, const Machine& machine,
                     const std::vector<int>* symbolAddrs = nullptr) const;
};

}  // namespace aviv
