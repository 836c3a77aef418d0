// Parallelism determinism property: with options.core.jobs > 1 the pipeline
// covers candidate assignments and compiles program blocks on a thread pool,
// and the result must be BIT-IDENTICAL to the serial run — same assembly
// text, same schedules, same instruction counts, and the same error when
// compilation fails. Enumerates every shipped block × machine pair so new
// data files are covered automatically.
//
// Each pair is additionally cross-checked against tests/golden/ — assembly
// (or the error message) frozen before the hot-path memory refactor. Any
// layout or ownership change that perturbs the emitted code fails here, at
// both jobs=1 and jobs=4. Regenerate the files deliberately when an
// intentional output change lands (see tests/golden/README).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "driver/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/io.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

std::vector<std::string> stemsWithExtension(const std::string& dir,
                                            const std::string& ext) {
  std::vector<std::string> stems;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.path().extension() == ext)
      stems.push_back(entry.path().stem().string());
  std::sort(stems.begin(), stems.end());
  return stems;
}

// Everything observable about one standalone-block compilation.
struct BlockOutcome {
  bool ok = false;
  std::string error;
  std::string asmText;
  std::vector<std::vector<AgId>> schedule;
  int instructions = 0;

  bool operator==(const BlockOutcome&) const = default;
};

BlockOutcome compileOutcome(const BlockDag& dag, const Machine& machine,
                            int jobs) {
  DriverOptions options;
  options.core.jobs = jobs;
  BlockOutcome out;
  try {
    CodeGenerator generator(machine, options);
    SymbolTable symbols;
    const CompiledBlock block = generator.compileBlock(dag, symbols);
    out.ok = true;
    out.asmText = block.image.asmText(machine);
    out.schedule = block.core.schedule.instrs;
    out.instructions = block.numInstructions();
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

struct DeterminismCase {
  std::string block;
  std::string machine;
};

class ParallelDeterminism : public ::testing::TestWithParam<DeterminismCase> {};

// Machine params may name a subdirectory ("zoo/wide"); golden file names
// and gtest case names flatten the separator.
std::string flat(std::string name) {
  for (char& c : name)
    if (c == '/') c = '_';
  return name;
}

// The frozen outcome for one (block, machine) pair: the assembly text for
// successful compiles, "ERROR: <message>\n" for expected failures. Empty
// optional when no golden file exists (a newly added data file).
std::optional<std::string> goldenOutcome(const std::string& block,
                                         const std::string& machine) {
  const fs::path path =
      fs::path(AVIV_GOLDEN_DIR) / (block + "_" + flat(machine) + ".asm");
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST_P(ParallelDeterminism, SerialAndParallelBitIdentical) {
  const BlockDag dag = loadBlock(GetParam().block);
  const Machine machine = loadMachine(GetParam().machine);
  const BlockOutcome serial = compileOutcome(dag, machine, 1);
  const BlockOutcome parallel = compileOutcome(dag, machine, 4);
  EXPECT_EQ(serial.ok, parallel.ok);
  EXPECT_EQ(serial.error, parallel.error);
  EXPECT_EQ(serial.asmText, parallel.asmText);
  EXPECT_EQ(serial.schedule, parallel.schedule);
  EXPECT_EQ(serial.instructions, parallel.instructions);

  const std::optional<std::string> golden =
      goldenOutcome(GetParam().block, GetParam().machine);
  if (!golden.has_value()) return;  // new data file, no frozen output yet
  const std::string serialOutcome =
      serial.ok ? serial.asmText : "ERROR: " + serial.error + "\n";
  const std::string parallelOutcome =
      parallel.ok ? parallel.asmText : "ERROR: " + parallel.error + "\n";
  EXPECT_EQ(serialOutcome, *golden);
  EXPECT_EQ(parallelOutcome, *golden);
}

std::vector<DeterminismCase> allCases() {
  std::vector<DeterminismCase> cases;
  for (const std::string& machine : stemsWithExtension(machineDir(), ".isdl"))
    for (const std::string& block : stemsWithExtension(blockDir(), ".blk"))
      cases.push_back({block, machine});
  // The fuzzer's stress-architecture zoo (machines/zoo, regenerable with
  // `fuzz_gen --emit-zoo`) rides the same matrix: the hostile shapes the
  // generator produces stay pinned at jobs=1 == jobs=4 == golden forever.
  const std::string zooDir = machineDir() + "/zoo";
  if (fs::exists(zooDir))
    for (const std::string& machine : stemsWithExtension(zooDir, ".isdl"))
      for (const std::string& block : stemsWithExtension(blockDir(), ".blk"))
        cases.push_back({block, "zoo/" + machine});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBlocksAllMachines, ParallelDeterminism,
                         ::testing::ValuesIn(allCases()),
                         [](const auto& info) {
                           return flat(info.param.block + "_" +
                                       info.param.machine);
                         });

// Program-level: parallel block compilation must merge its private symbol
// scopes into exactly the table the serial shared-table run builds.
TEST(ParallelDeterminism, ProgramCompilationMatchesSerial) {
  const Program program = parseProgram(R"(
    block entry {
      input n;
      output cond, x;
      x = n * n;
      cond = x > 100;
      if cond goto big else small;
    }
    block big {
      input x;
      output r, s;
      s = x + x;
      r = x - 100 + s;
      return;
    }
    block small {
      input x;
      output r;
      r = x + 1;
      return;
    }
  )",
                                       "branchy");
  const Machine machine = loadMachine("arch1");

  auto compileWith = [&](int jobs) {
    DriverOptions options;
    options.core.jobs = jobs;
    CodeGenerator generator(machine, options);
    return generator.compileProgram(program);
  };
  const CompiledProgram serial = compileWith(1);
  const CompiledProgram parallel = compileWith(4);

  EXPECT_EQ(serial.totalInstructions(), parallel.totalInstructions());
  EXPECT_EQ(serial.symbols.all(), parallel.symbols.all());
  ASSERT_EQ(serial.blocks.size(), parallel.blocks.size());
  for (size_t i = 0; i < serial.blocks.size(); ++i) {
    EXPECT_EQ(serial.blocks[i].image.asmText(machine),
              parallel.blocks[i].image.asmText(machine))
        << "block " << i;
    EXPECT_EQ(serial.blocks[i].core.schedule.instrs,
              parallel.blocks[i].core.schedule.instrs)
        << "block " << i;
  }
  ASSERT_EQ(serial.control.size(), parallel.control.size());
  for (size_t i = 0; i < serial.control.size(); ++i) {
    EXPECT_EQ(serial.control[i].kind, parallel.control[i].kind);
    EXPECT_EQ(serial.control[i].targetBlock, parallel.control[i].targetBlock);
    EXPECT_EQ(serial.control[i].elseBlock, parallel.control[i].elseBlock);
    EXPECT_EQ(serial.control[i].condAddr, parallel.control[i].condAddr);
  }
}

// Compiling the same input twice in one session must also be stable when the
// pool is reused (exercises epoch reuse in the work-stealing pool).
TEST(ParallelDeterminism, RepeatedParallelRunsStable) {
  const BlockDag dag = loadBlock("fig2");
  const Machine machine = loadMachine("arch3");
  DriverOptions options;
  options.core.jobs = 4;
  CodeGenerator generator(machine, options);
  SymbolTable s1;
  SymbolTable s2;
  EXPECT_EQ(generator.compileBlock(dag, s1).image.asmText(machine),
            generator.compileBlock(dag, s2).image.asmText(machine));
}

}  // namespace
}  // namespace aviv
