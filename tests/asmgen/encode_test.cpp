#include "asmgen/encode.h"

#include <gtest/gtest.h>

#include "core/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/error.h"

namespace aviv {
namespace {

struct Encoded {
  BlockDag dag;
  Machine machine;
  MachineDatabases dbs;
  CoreResult core;
  RegAssignment regs;
  SymbolTable symbols;
  CodeImage image;

  Encoded(const std::string& block, const std::string& machineName,
          int regsN = 4, CodegenOptions options = {})
      : dag(loadBlock(block)),
        machine(loadMachine(machineName).withRegisterCount(regsN)),
        dbs(machine),
        core(coverBlock(dag, machine, dbs, options)),
        regs(allocateRegisters(core.graph, core.schedule)),
        image(encodeBlock(core.graph, core.schedule, regs, symbols)) {}
};

TEST(SymbolTable, InternAssignsStableAddresses) {
  SymbolTable symbols;
  const int a = symbols.intern("a");
  const int b = symbols.intern("b");
  EXPECT_NE(a, b);
  EXPECT_EQ(symbols.intern("a"), a);
  EXPECT_EQ(symbols.lookup("b"), b);
  EXPECT_TRUE(symbols.contains("a"));
  EXPECT_FALSE(symbols.contains("zz"));
  EXPECT_THROW((void)symbols.lookup("zz"), Error);
  EXPECT_EQ(symbols.sizeWords(), 2);
}

TEST(Encode, InstructionCountPreserved) {
  const Encoded e("ex1", "arch1");
  EXPECT_EQ(e.image.numInstructions(),
            e.core.schedule.numInstructions());
}

TEST(Encode, AllInputsGetAddresses) {
  const Encoded e("ex2", "arch1");
  for (const std::string& input : e.dag.inputNames())
    EXPECT_TRUE(e.symbols.contains(input)) << input;
}

TEST(Encode, OutputsBoundToRegistersByDefault) {
  const Encoded e("ex1", "arch1");
  ASSERT_EQ(e.image.outputs.size(), 1u);
  EXPECT_FALSE(e.image.outputs[0].inMemory);
  EXPECT_GE(e.image.outputs[0].reg, 0);
}

TEST(Encode, OutputsBoundToMemoryWhenRequested) {
  CodegenOptions options;
  options.outputsToMemory = true;
  const Encoded e("ex1", "arch1", 4, options);
  ASSERT_EQ(e.image.outputs.size(), 1u);
  EXPECT_TRUE(e.image.outputs[0].inMemory);
  EXPECT_GE(e.image.outputs[0].memAddr, 0);
}

TEST(Encode, SpillSlotsPlacedAtTopOfMemory) {
  const Encoded e("ex4", "arch1", 2);
  ASSERT_GT(e.image.numSpillSlots, 0);
  const int memWords = e.machine.memory(e.machine.dataMemory()).sizeWords;
  EXPECT_EQ(e.image.spillBase, memWords - e.image.numSpillSlots);
  EXPECT_LE(e.symbols.sizeWords(), e.image.spillBase);
}

TEST(Encode, RegisterIndicesWithinBankBounds) {
  const Encoded e("ex5", "arch1", 2);
  for (const EncInstr& instr : e.image.instrs) {
    for (const EncOp& op : instr.ops) {
      const int bankSize =
          e.machine.regFile(e.machine.unit(op.unit).regFile).numRegs;
      EXPECT_GE(op.dstReg, 0);
      EXPECT_LT(op.dstReg, bankSize);
      for (const EncOperand& src : op.srcs) {
        if (!src.isImm) {
          EXPECT_GE(src.reg, 0);
          EXPECT_LT(src.reg, bankSize);
        }
      }
    }
    for (const EncXfer& xfer : instr.xfers) {
      if (xfer.from.isMemory() || xfer.to.isMemory()) {
        EXPECT_GE(xfer.memAddr, 0);
      }
    }
  }
}

TEST(Encode, ImmediatesEncodedInline) {
  SymbolTable symbols;
  const BlockDag dag =
      parseBlock("block t { input a; output y; y = a * 3 + 7; }");
  const Machine machine = loadMachine("arch1");
  const MachineDatabases dbs(machine);
  const CoreResult core = coverBlock(dag, machine, dbs, CodegenOptions{});
  const RegAssignment regs = allocateRegisters(core.graph, core.schedule);
  const CodeImage image = encodeBlock(core.graph, core.schedule, regs, symbols);
  std::vector<int64_t> imms;
  for (const EncInstr& instr : image.instrs)
    for (const EncOp& op : instr.ops)
      for (const EncOperand& src : op.srcs)
        if (src.isImm) imms.push_back(src.imm);
  ASSERT_EQ(imms.size(), 2u);
  EXPECT_NE(std::find(imms.begin(), imms.end(), 3), imms.end());
  EXPECT_NE(std::find(imms.begin(), imms.end(), 7), imms.end());
}

TEST(Emit, AsmTextListsEveryInstruction) {
  const Encoded e("ex1", "arch1");
  const std::string text = e.image.asmText(e.machine);
  for (int i = 0; i < e.image.numInstructions(); ++i)
    EXPECT_NE(text.find("i" + std::to_string(i) + ":"), std::string::npos);
  EXPECT_NE(text.find("output y"), std::string::npos);
}

TEST(Emit, AsmTextShowsMnemonicsAndVariables) {
  const Encoded e("ex1", "arch1");
  const std::string text = e.image.asmText(e.machine);
  EXPECT_NE(text.find("mov"), std::string::npos);
  EXPECT_NE(text.find("{a}"), std::string::npos);  // variable comment
  EXPECT_NE(text.find("DM["), std::string::npos);
}

TEST(Emit, SpillTaggedInListing) {
  const Encoded e("ex4", "arch1", 2);
  const std::string text = e.image.asmText(e.machine);
  EXPECT_NE(text.find("{spill"), std::string::npos);
}

TEST(Encode, TooSmallDataMemoryRejected) {
  const Machine machine = parseMachine(R"(
    machine M {
      regfile A size 4;
      memory DM size 2 data;
      bus X;
      unit U regfile A { op ADD; op SUB; op MUL; }
      transfer complete bus X;
    }
  )");
  const MachineDatabases dbs(machine);
  const BlockDag dag = loadBlock("ex2");  // 7 inputs > 2 words
  const CoreResult core = coverBlock(dag, machine, dbs, CodegenOptions{});
  const RegAssignment regs = allocateRegisters(core.graph, core.schedule);
  SymbolTable symbols;
  EXPECT_THROW(
      (void)encodeBlock(core.graph, core.schedule, regs, symbols), Error);
}

}  // namespace
}  // namespace aviv
