// The assembly listing renderer (asmgen/emit.cpp) appends into one buffer
// with std::to_chars. It must print exactly what the string-concatenating
// renderer below printed, byte for byte, both for a bound image and for a
// portable one rendered in place through its symbol address map (the
// request path's copy-free cache hit).
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "asmgen/encode.h"
#include "core/codegen.h"
#include "fuzz/genblock.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "regalloc/peephole.h"
#include "regalloc/regalloc.h"
#include "support/error.h"

namespace aviv {
namespace {

// The renderer as it was before the one-buffer rewrite, kept as the
// reference listing. Two leading literals are spelled std::string(...):
// `"literal" + std::to_string(...)` trips a GCC 12 -Wrestrict false
// positive.
std::string refRegName(const Machine& machine, Loc loc, int reg) {
  return machine.regFile(loc.index).name + ".r" + std::to_string(reg);
}

std::string refMemRef(const Machine& machine, Loc loc, int addr,
                      const std::string& comment) {
  std::string s =
      machine.memory(loc.index).name + "[" + std::to_string(addr) + "]";
  if (!comment.empty()) s += "{" + comment + "}";
  return s;
}

std::string referenceAsmText(const CodeImage& image, const Machine& machine) {
  std::string out = "; block " + image.blockName + " on " +
                    image.machineName + " — " +
                    std::to_string(image.instrs.size()) + " instructions\n";
  for (size_t c = 0; c < image.instrs.size(); ++c) {
    const EncInstr& instr = image.instrs[c];
    std::string line = std::string("i") + std::to_string(c) + ": {";
    bool first = true;
    for (const EncOp& op : instr.ops) {
      if (!first) line += " |";
      first = false;
      line += " " + machine.unit(op.unit).name + ": " + op.mnemonic + " " +
              refRegName(machine, machine.unitLoc(op.unit), op.dstReg);
      for (const EncOperand& src : op.srcs) {
        line += ", ";
        line += src.isImm
                    ? std::string("#").append(std::to_string(src.imm))
                    : refRegName(machine, machine.unitLoc(op.unit), src.reg);
      }
    }
    for (const EncXfer& xfer : instr.xfers) {
      if (!first) line += " |";
      first = false;
      line += " " + machine.bus(xfer.bus).name + ": mov ";
      line += xfer.to.isRegFile()
                  ? refRegName(machine, xfer.to, xfer.dstReg)
                  : refMemRef(machine, xfer.to, xfer.memAddr, xfer.comment);
      line += ", ";
      line += xfer.from.isRegFile()
                  ? refRegName(machine, xfer.from, xfer.srcReg)
                  : refMemRef(machine, xfer.from, xfer.memAddr, xfer.comment);
    }
    line += " }";
    out += line + "\n";
  }
  for (const OutputBinding& binding : image.outputs) {
    out += "; output " + binding.name + " in ";
    out += binding.inMemory
               ? refMemRef(machine, Loc::memory(machine.dataMemory()),
                           binding.memAddr, "")
               : refRegName(machine, binding.loc, binding.reg);
    out += "\n";
  }
  return out;
}

// One block through covering, peephole, allocation and a recording
// encode: the scope-independent image and its symbol names, the shape the
// result cache stores. Retries with outputs in memory as the driver does;
// nullopt when the machine cannot compile the block at all.
struct Portable {
  CodeImage image;
  std::vector<std::string> names;
};

std::optional<Portable> compilePortable(const BlockDag& dag,
                                        const Machine& machine,
                                        CodegenOptions options) {
  const MachineDatabases dbs(machine);
  std::optional<CoreResult> core;
  try {
    core.emplace(coverBlock(dag, machine, dbs, options));
  } catch (const Error&) {
    if (options.outputsToMemory) return std::nullopt;
    options.outputsToMemory = true;
    try {
      core.emplace(coverBlock(dag, machine, dbs, options));
    } catch (const Error&) {
      return std::nullopt;
    }
  }
  peepholeOptimize(core->graph, core->schedule, dbs.constraints);
  const RegAssignment regs = allocateRegisters(core->graph, core->schedule);
  SymbolScope recording;
  Portable out;
  out.image = encodeBlock(core->graph, core->schedule, regs, recording);
  out.names = recording.recorded();
  return out;
}

// Both renderings of `portable` match the reference: the image bound into
// a table that already holds other names (so no ordinal maps to itself),
// and the portable image rendered in place through the same map. Returns
// the bound listing.
std::string expectSameListing(const Portable& portable,
                              const Machine& machine,
                              const std::string& what) {
  SymbolTable table;
  table.intern("pad.a");
  table.intern("pad.b");
  SymbolScope scope(table);
  const std::vector<int> addrs = bindSymbols(portable.names, scope);
  CodeImage bound = portable.image;
  applySymbolAddrs(bound, addrs);
  const std::string expected = referenceAsmText(bound, machine);
  EXPECT_EQ(bound.asmText(machine), expected) << what;
  std::string inPlace = "earlier listing\n";
  portable.image.appendAsmText(inPlace, machine, &addrs);
  EXPECT_EQ(inPlace, "earlier listing\n" + expected) << what;
  // Unbound, the provisional addresses print as they are.
  EXPECT_EQ(portable.image.asmText(machine),
            referenceAsmText(portable.image, machine))
      << what;
  return expected;
}

const char* const kBlocks[] = {"biquad", "dct4", "ex1",  "ex2",  "ex3",
                               "ex4",    "ex5",  "fig2", "fig6", "matvec2"};
const char* const kMachines[] = {
    "arch1",        "arch2",           "arch3",       "arch4",
    "dsp16",        "zoo/asym",        "zoo/buffered", "zoo/constrained",
    "zoo/minimal",  "zoo/tiny",        "zoo/wide"};

// Every shipped block × machine, plain and with each output-placement
// variant (outputs-mem, const-pool).
TEST(AsmText, MatchesReferenceOnShippedBlocks) {
  int rendered = 0;
  for (const char* machineName : kMachines) {
    const Machine machine = loadMachine(machineName);
    for (const char* block : kBlocks) {
      const BlockDag dag = loadBlock(block);
      for (int variant = 0; variant < 3; ++variant) {
        CodegenOptions options;
        options.outputsToMemory = variant == 1;
        options.constantsInMemory = variant == 2;
        const std::optional<Portable> portable =
            compilePortable(dag, machine, options);
        if (!portable) continue;
        (void)expectSameListing(*portable, machine,
                                std::string(block) + "/" + machineName +
                                    " variant " + std::to_string(variant));
        ++rendered;
      }
    }
  }
  EXPECT_GT(rendered, 280);
}

// arch1 at two registers spills, so its listings carry spill-slot and
// scratch comments on memory operands.
TEST(AsmText, MatchesReferenceWithSpillComments) {
  const Machine machine = loadMachine("arch1").withRegisterCount(2);
  bool sawSpill = false;
  for (const char* block : kBlocks) {
    const std::optional<Portable> portable =
        compilePortable(loadBlock(block), machine, CodegenOptions{});
    if (!portable) continue;
    const std::string listing = expectSameListing(
        *portable, machine, std::string(block) + "/arch1 regs 2");
    sawSpill |= listing.find("{spill") != std::string::npos;
  }
  EXPECT_TRUE(sawSpill);
}

// Generated blocks of 6–16 operations on the zoo machines that spill.
TEST(AsmText, MatchesReferenceOnGeneratedSpillingBlocks) {
  int rendered = 0;
  for (const char* machineName :
       {"zoo/tiny", "zoo/buffered", "zoo/minimal", "zoo/constrained"}) {
    const Machine machine = loadMachine(machineName);
    for (uint64_t seed = 1; seed <= 40; ++seed) {
      const std::optional<Portable> portable = compilePortable(
          generateBlock(machine, {.seed = seed, .minOps = 6, .maxOps = 16}),
          machine, CodegenOptions{});
      if (!portable) continue;
      (void)expectSameListing(
          *portable, machine,
          std::string(machineName) + " seed " + std::to_string(seed));
      ++rendered;
    }
  }
  EXPECT_GE(rendered, 150);
}

// Negative immediates, from a compiled block and at the int64 extremes.
TEST(AsmText, MatchesReferenceOnNegativeImmediates) {
  const Machine machine = loadMachine("arch1");
  BlockDag dag("negimm");
  const NodeId a = dag.addInput("a");
  const NodeId b = dag.addInput("b");
  const NodeId sum = dag.addOp(Op::kAdd, {a, dag.addConst(-5)});
  const NodeId prod = dag.addOp(Op::kMul, {b, dag.addConst(-123456789)});
  dag.markOutput("y", dag.addOp(Op::kSub, {sum, prod}));
  std::optional<Portable> portable =
      compilePortable(dag, machine, CodegenOptions{});
  ASSERT_TRUE(portable.has_value());
  const std::string listing = expectSameListing(*portable, machine, "negimm");
  EXPECT_NE(listing.find("#-5"), std::string::npos) << listing;

  const int64_t extremes[] = {std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), -1, 0};
  size_t next = 0;
  for (EncInstr& instr : portable->image.instrs)
    for (EncOp& op : instr.ops)
      for (EncOperand& src : op.srcs) {
        src.isImm = true;
        src.imm = extremes[next++ % std::size(extremes)];
      }
  ASSERT_GE(next, std::size(extremes));
  const std::string extreme =
      expectSameListing(*portable, machine, "negimm extremes");
  EXPECT_NE(extreme.find("#-9223372036854775808"), std::string::npos);
}

}  // namespace
}  // namespace aviv
