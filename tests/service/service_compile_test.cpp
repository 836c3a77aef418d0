// The compilation service's end-to-end properties (DESIGN.md System 23),
// over every shipped block × machine pair so new data files are covered
// automatically:
//
//   * a cache-hit compile is bit-identical to a cold compile — same assembly
//     text, same instruction count;
//   * a cache populated at jobs=4 replays bit-identically at jobs=1 (the
//     fingerprint deliberately excludes the worker count);
//   * a hit performs ZERO covering work: the block's telemetry subtree
//     contains nothing but the cacheHits counter;
//   * failing compiles are never cached and fail identically on retry;
//   * corrupt on-disk entries degrade to a correct recompile that rewrites
//     a valid entry (driver-level view of the cache robustness tests).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "driver/codegen.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "obs/metrics.h"
#include "service/cache.h"
#include "support/io.h"
#include "support/stat_fields.h"

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

// Everything observable about one standalone-block compile, plus a deep
// copy of the block's telemetry subtree (merged into an empty node).
struct Outcome {
  bool ok = false;
  std::string error;
  std::string asmText;
  int instructions = 0;
  bool fromCache = false;
  TelemetryNode blockTel{""};
};

Outcome compileWith(const BlockDag& dag, const Machine& machine, int jobs,
                    std::shared_ptr<ResultCache> cache) {
  DriverOptions options;
  options.core.jobs = jobs;
  options.cache = std::move(cache);
  Outcome out;
  try {
    CodeGenerator generator(machine, options);
    SymbolTable symbols;
    const CompiledBlock block = generator.compileBlock(dag, symbols);
    out.ok = true;
    out.asmText = block.image.asmText(machine);
    out.instructions = block.numInstructions();
    out.fromCache = block.fromCache;
    const TelemetryNode* tel =
        generator.telemetry().findChild("block:" + dag.name());
    if (tel != nullptr) out.blockTel.merge(*tel);
  } catch (const Error& e) {
    out.error = e.what();
  }
  return out;
}

struct ServiceCase {
  std::string block;
  std::string machine;
};

class CacheReplay : public ::testing::TestWithParam<ServiceCase> {};

TEST_P(CacheReplay, HitIsBitIdenticalToColdCompile) {
  const BlockDag dag = loadBlock(GetParam().block);
  const Machine machine = loadMachine(GetParam().machine);

  // Cold baseline: no cache at all.
  const Outcome cold = compileWith(dag, machine, 1, nullptr);

  // Populate at jobs=4, replay at jobs=1 through a fresh generator sharing
  // the same (memory-only) cache.
  auto cache = std::make_shared<ResultCache>(CacheConfig{});
  const Outcome populate = compileWith(dag, machine, 4, cache);
  const Outcome hit = compileWith(dag, machine, 1, cache);

  EXPECT_EQ(populate.ok, cold.ok);
  EXPECT_EQ(populate.error, cold.error);
  if (!cold.ok) {
    // Failed compiles are never cached: the replay attempt recompiles and
    // fails with the same diagnostic instead of serving a stale result.
    EXPECT_FALSE(hit.ok);
    EXPECT_EQ(hit.error, cold.error);
    return;
  }

  EXPECT_FALSE(populate.fromCache);
  EXPECT_EQ(populate.asmText, cold.asmText);

  ASSERT_TRUE(hit.ok) << hit.error;
  EXPECT_TRUE(hit.fromCache);
  EXPECT_EQ(hit.asmText, cold.asmText);
  EXPECT_EQ(hit.instructions, cold.instructions);

  // Zero covering work on a hit: the block subtree holds the cacheHits
  // counter and nothing else — no assignment/cover/regalloc/encode phases.
  EXPECT_TRUE(hit.blockTel.children().empty()) << hit.blockTel.toJson();
  EXPECT_EQ(hit.blockTel.counters().size(), 1u) << hit.blockTel.toJson();
  EXPECT_EQ(hit.blockTel.counter("cacheHits"), 1);
}

std::vector<ServiceCase> allCases() {
  std::vector<ServiceCase> cases;
  for (const std::string& machine : stemsWithExtension(machineDir(), ".isdl"))
    for (const std::string& block : stemsWithExtension(blockDir(), ".blk"))
      cases.push_back({block, machine});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllBlocksAllMachines, CacheReplay,
                         ::testing::ValuesIn(allCases()),
                         [](const auto& info) {
                           return info.param.block + "_" + info.param.machine;
                         });

// Program-level replay: every block hydrates from the cache, the merged
// symbol table is identical, and the replayed program simulates identically.
TEST(CacheReplay, ProgramReplaysFromCache) {
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
  auto cache = std::make_shared<ResultCache>(CacheConfig{});

  auto compileOnce = [&] {
    DriverOptions options;
    options.cache = cache;
    CodeGenerator generator(machine, options);
    return generator.compileProgram(program);
  };
  const CompiledProgram cold = compileOnce();
  const CompiledProgram warm = compileOnce();

  ASSERT_EQ(warm.blocks.size(), cold.blocks.size());
  for (size_t i = 0; i < cold.blocks.size(); ++i) {
    EXPECT_FALSE(cold.blocks[i].fromCache) << "block " << i;
    EXPECT_TRUE(warm.blocks[i].fromCache) << "block " << i;
    EXPECT_EQ(warm.blocks[i].image.asmText(machine),
              cold.blocks[i].image.asmText(machine))
        << "block " << i;
  }
  EXPECT_EQ(warm.symbols.all(), cold.symbols.all());
  EXPECT_EQ(warm.totalInstructions(), cold.totalInstructions());
  for (const int64_t n : {5, 11, -3})
    EXPECT_EQ(simulateProgram(machine, warm, {{"n", n}}),
              simulateProgram(machine, cold, {{"n", n}}))
        << "n = " << n;
}

// CacheStats reaches its three sinks only through its field list
// (support/stat_fields.h): after real compiles against a cache, the
// --stats-json node, the --metrics-json gauges and the summary line carry
// the same count for every field.
TEST(CacheReplay, StatsSinksCarryIdenticalCounts) {
  const BlockDag dag = loadBlock("ex1");
  const Machine machine = loadMachine("arch1");
  auto cache = std::make_shared<ResultCache>(CacheConfig{});

  DriverOptions options;
  options.cache = cache;
  CodeGenerator generator(machine, options);
  SymbolTable s1, s2;
  (void)generator.compileBlock(dag, s1);
  (void)generator.compileBlock(dag, s2);
  EXPECT_EQ(generator.telemetry().findChild("service"), nullptr)
      << "a compile's tree carries its own cacheHits/cacheMisses only";

  const CacheStats stats = cache->stats();
  EXPECT_EQ(stats.lookups, 2);
  EXPECT_EQ(stats.misses, 1);
  EXPECT_EQ(stats.hits, 1);
  EXPECT_EQ(stats.memoryHits, 1);
  EXPECT_EQ(stats.stores, 1);

  metrics::Registry& registry = metrics::Registry::instance();
  registry.enable();
  TelemetryNode node("service");
  publishStats(stats, node, "cache");
  publishStats(stats, node, "cache");  // absolute values: idempotent
  registry.disable();
  const std::string line = statsLine(stats);
  EXPECT_NE(line.find("2 lookups, 1 hits, 1 misses, 1 memory-hits"),
            std::string::npos)
      << line;

  std::istringstream tokens(line);
  for (const StatField<CacheStats>& field : CacheStats::fields()) {
    const int64_t want = stats.*field.member;
    EXPECT_EQ(node.counter(field.name), want) << field.name;
    EXPECT_EQ(registry.gauge(std::string("cache.") + field.name).value(),
              want)
        << field.name;
    int64_t printed = -1;
    std::string name;
    tokens >> printed >> name;
    EXPECT_EQ(printed, want) << field.name << " in: " << line;
  }
  EXPECT_EQ(node.counters().size(), CacheStats::fields().size());
}

// Driver-level corruption robustness: a flipped byte in the on-disk entry
// must yield a correct recompile (identical assembly), a corrupt count of
// one, and a rewritten entry that the next compile hits.
TEST(CacheReplay, CorruptDiskEntryRecompilesAndHeals) {
  const BlockDag dag = loadBlock("ex1");
  const Machine machine = loadMachine("arch1");
  const std::string dir =
      (fs::temp_directory_path() / "aviv_service_corrupt_test").string();
  fs::remove_all(dir);

  CacheConfig config;
  config.dir = dir;
  config.memoryEntries = 0;  // force the disk tier on every lookup

  const Outcome cold = compileWith(dag, machine, 1, nullptr);
  ASSERT_TRUE(cold.ok) << cold.error;

  std::string entryFile;
  {
    auto cache = std::make_shared<ResultCache>(config);
    const Outcome populate = compileWith(dag, machine, 1, cache);
    ASSERT_TRUE(populate.ok) << populate.error;
    // Find the one object file the store wrote and flip a byte in it.
    for (const auto& f :
         fs::recursive_directory_iterator(fs::path(dir) / "objects"))
      if (f.is_regular_file()) entryFile = f.path().string();
    ASSERT_FALSE(entryFile.empty());
    std::string bytes = readFile(entryFile);
    bytes[bytes.size() / 2] ^= 0x10;
    writeFile(entryFile, bytes);
  }

  auto cache = std::make_shared<ResultCache>(config);
  const Outcome recompiled = compileWith(dag, machine, 1, cache);
  ASSERT_TRUE(recompiled.ok) << recompiled.error;
  EXPECT_FALSE(recompiled.fromCache) << "stale result served from corrupt entry";
  EXPECT_EQ(recompiled.asmText, cold.asmText);
  EXPECT_EQ(cache->stats().corrupt, 1);
  EXPECT_TRUE(fs::exists(entryFile)) << "recompile must rewrite the entry";

  const Outcome healed = compileWith(dag, machine, 1, cache);
  EXPECT_TRUE(healed.fromCache);
  EXPECT_EQ(healed.asmText, cold.asmText);
  EXPECT_EQ(cache->stats().corrupt, 1);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace aviv
