// Property suite for the generative fuzzers (src/fuzz/genmachine,
// genblock): across >= 100 seeds, every generated machine must validate,
// round-trip through the ISDL emitter/parser, and be fully connected; every
// generated block must parse back and compile on the baseline engine. This
// is the "no false alarms" guarantee — a fuzz failure always indicts the
// engines, never the generator.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "driver/codegen.h"
#include "fuzz/genblock.h"
#include "fuzz/genmachine.h"
#include "ir/emit.h"
#include "ir/parser.h"
#include "isdl/databases.h"
#include "isdl/emit.h"
#include "isdl/parser.h"
#include "support/error.h"

namespace aviv {
namespace {

constexpr int kSeedsPerFamily = 17;  // 6 families x 17 = 102 >= 100

std::vector<MachineGenSpec> allSpecs() {
  std::vector<MachineGenSpec> specs;
  for (int f = 0; f < kNumMachineFamilies; ++f)
    for (int s = 1; s <= kSeedsPerFamily; ++s)
      specs.push_back({static_cast<MachineFamily>(f),
                       static_cast<uint64_t>(s) * 7919});
  return specs;
}

TEST(GenMachine, FamilyNamesRoundTrip) {
  for (int f = 0; f < kNumMachineFamilies; ++f) {
    const MachineFamily family = static_cast<MachineFamily>(f);
    EXPECT_EQ(familyFromName(familyName(family)), family);
  }
  EXPECT_THROW((void)familyFromName("vliw9000"), Error);
}

TEST(GenMachine, DeterministicInSpec) {
  for (int f = 0; f < kNumMachineFamilies; ++f) {
    const MachineGenSpec spec{static_cast<MachineFamily>(f), 12345};
    EXPECT_EQ(emitMachineText(generateMachine(spec)),
              emitMachineText(generateMachine(spec)));
  }
}

TEST(GenMachine, EveryMachineValidatesRoundTripsAndConnects) {
  for (const MachineGenSpec& spec : allSpecs()) {
    SCOPED_TRACE(std::string(familyName(spec.family)) + " seed " +
                 std::to_string(spec.seed));
    const Machine machine = generateMachine(spec);
    EXPECT_NO_THROW(machine.validate());

    // Emitter round-trip: the parsed-back machine is structurally equal
    // (same emission) and valid.
    const std::string text = emitMachineText(machine);
    const Machine reparsed = parseMachine(text, "generated.isdl");
    EXPECT_NO_THROW(reparsed.validate());
    EXPECT_EQ(emitMachineText(reparsed), text);

    // Connectivity: every unit's bank reaches and is reached from the data
    // memory — the minimum the covering flow needs to load operands and
    // store results.
    const TransferDatabase transfers(machine);
    const Loc dm = machine.dataMemoryLoc();
    for (size_t u = 0; u < machine.units().size(); ++u) {
      const Loc bank = machine.unitLoc(static_cast<UnitId>(u));
      EXPECT_TRUE(transfers.reachable(dm, bank))
          << "DM cannot reach bank of unit " << u;
      EXPECT_TRUE(transfers.reachable(bank, dm))
          << "bank of unit " << u << " cannot reach DM";
    }
  }
}

TEST(GenBlock, DeterministicInSpec) {
  const Machine machine =
      generateMachine({MachineFamily::kWideVliw, 99});
  EXPECT_EQ(emitBlockText(generateBlock(machine, {424242, 3, 24})),
            emitBlockText(generateBlock(machine, {424242, 3, 24})));
}

TEST(GenBlock, EveryBlockParsesBackAndCompilesOnBaseline) {
  for (const MachineGenSpec& spec : allSpecs()) {
    SCOPED_TRACE(std::string(familyName(spec.family)) + " seed " +
                 std::to_string(spec.seed));
    const Machine machine = generateMachine(spec);
    const BlockDag dag = generateBlock(machine, {spec.seed ^ 0x5eed, 3, 24});
    EXPECT_GE(dag.outputs().size(), 1u);
    EXPECT_GE(dag.numOpNodes(), 1u);

    // Round-trip stability: emitting the (already round-tripped) DAG and
    // re-parsing changes nothing.
    const std::string text = emitBlockText(dag);
    EXPECT_EQ(emitBlockText(parseBlock(text)), text);

    // The baseline engine must compile every generated block: rejection
    // here would make every differential verdict on this pair vacuous.
    DriverOptions options;
    options.engine = Engine::kBaseline;
    options.baselineFallback = false;
    CodeGenerator generator(machine, options);
    const CompiledBlock block = generator.compileBlock(dag);
    EXPECT_GT(block.numInstructions(), 0);
  }
}

}  // namespace
}  // namespace aviv
