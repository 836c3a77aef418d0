// avivc — the AVIV command-line compiler: the Fig 1 toolchain in one
// binary. Compiles a block/program source file for an ISDL machine, prints
// the VLIW assembly, optionally writes an object file (AVIVBIN) and runs
// the result on the instruction-level simulator against the reference
// interpreter.
//
//   avivc <file.blk|file.c> --machine <name|path.isdl> [options]
//
// .blk sources use the block language; .c sources use the MiniC front end
// (docs/blocklang.md, src/frontend/minic.h).
//
// Options:
//   --machine <m>        shipped machine name or a path to an .isdl file
//   --regs <n>           override every register file's size
//   --o <file>           write the (first block's) AVIVBIN object file
//   --asm                print assembly (default on)
//   --bin-stats          print instruction-word format and ROM bytes
//   --simulate k=v,...   run with the given inputs and print outputs
//   --trace              with --simulate: print a per-slot execution log
//   --verify <n>         check n random-input runs against the interpreter
//   --heuristics on|off  assignment search mode (default on)
//   --no-peephole        skip the peephole pass
//   --const-pool         materialize constants via data memory
//   --outputs-mem        store block outputs to data memory
//   --jobs <n>           worker threads for candidate covering and
//                        per-block program compilation (results are
//                        bit-identical to --jobs 1)
//   --stats-json <file>  write the session's phase-telemetry tree as JSON
//   --cache-dir <dir>    compile-result cache directory (shared with the
//                        avivd daemon): identical (machine, block, options)
//                        compiles are replayed from the cache with zero
//                        covering work and bit-identical output
//   --no-cache           ignore --cache-dir (force a cold compile)
//   --verify-output <m>  differential output verification mode: off (default),
//                        sampled, or all. Every selected block is replayed on
//                        the simulator against the reference interpreter
//                        before its result is trusted or cached; a mismatch
//                        quarantines a repro artifact and degrades to the
//                        (re-verified) sequential baseline
//   --verify-vectors <n> input vectors per verified block (default 4)
//   --quarantine-dir <d> where verification failures write repro bundles
//   --max-snd-nodes <n>  split-node DAG node ceiling (0 = unlimited); past
//                        it the compile degrades to the baseline generator
//   --max-snd-bytes <n>  split-node DAG arena-byte ceiling (0 = unlimited)
//   --max-cliques <n>    total generated-clique ceiling (0 = unlimited)
//   --trace-out <file>   record a flight-recorder trace of the compile and
//                        write it as Chrome trace-event JSON (load in
//                        Perfetto / chrome://tracing, or summarize with
//                        tools/trace_report)
//   --metrics-json <file> enable the metrics registry and write its
//                        aggregated counters/gauges/histograms as JSON
#include <cstdio>
#include <iostream>

#include "asmgen/binary.h"
#include "driver/codegen.h"
#include "service/cache.h"
#include "frontend/minic.h"
#include "ir/interp.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "support/cli.h"
#include "support/io.h"
#include "support/rng.h"
#include "support/strings.h"

namespace {

using namespace aviv;

Machine resolveMachine(const std::string& spec) {
  if (endsWith(spec, ".isdl")) return parseMachine(readFile(spec));
  return loadMachine(spec);
}

std::map<std::string, int64_t> parseBindings(const std::string& spec) {
  std::map<std::string, int64_t> values;
  if (spec.empty()) return values;
  for (const std::string& item : split(spec, ',')) {
    const auto parts = split(item, '=');
    if (parts.size() != 2)
      throw Error("--simulate expects k=v,...; got '" + item + "'");
    values[std::string(trim(parts[0]))] =
        std::stoll(std::string(trim(parts[1])));
  }
  return values;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    if (flags.positional().size() != 1)
      throw Error("usage: avivc <file.blk> --machine <name|file.isdl> "
                  "[--regs N] [--o out.avivbin] [--simulate k=v,...] "
                  "[--verify N] [--heuristics on|off] [--no-peephole] "
                  "[--const-pool] [--outputs-mem] [--bin-stats] "
                  "[--jobs N] [--timeout SEC] [--stats-json out.json] "
                  "[--cache-dir DIR] [--no-cache] "
                  "[--verify-output off|sampled|all] [--verify-vectors N] "
                  "[--quarantine-dir DIR] [--max-snd-nodes N] "
                  "[--max-snd-bytes N] [--max-cliques N] "
                  "[--trace-out out.json] [--metrics-json out.json]");
    const std::string sourcePath = flags.positional()[0];
    Machine machine = resolveMachine(flags.getString("machine", "arch1"));
    const int regs = static_cast<int>(flags.getInt("regs", 0));
    if (regs > 0) machine = machine.withRegisterCount(regs);
    const std::string objectPath = flags.getString("o", "");
    const bool printAsm = flags.getBool("asm", true);
    const bool binStats = flags.getBool("bin-stats", false);
    const std::string simulate = flags.getString("simulate", "");
    const bool traceRun = flags.getBool("trace", false);
    const int verifyRuns = static_cast<int>(flags.getInt("verify", 0));
    const std::string heuristics = flags.getString("heuristics", "on");
    DriverOptions options;
    options.core = heuristics == "off" ? CodegenOptions::heuristicsOff()
                                       : CodegenOptions::heuristicsOn();
    options.runPeephole = !flags.getBool("no-peephole", false);
    options.core.constantsInMemory = flags.getBool("const-pool", false);
    options.core.outputsToMemory = flags.getBool("outputs-mem", false);
    options.core.jobs = static_cast<int>(flags.getInt("jobs", 1));
    // Wall-clock covering budget; on expiry the compile degrades to the
    // sequential baseline (see DriverOptions::baselineFallback).
    options.core.timeLimitSeconds = flags.getDouble("timeout", 0.0);
    const std::string statsJson = flags.getString("stats-json", "");
    const std::string cacheDir = flags.getString("cache-dir", "");
    const bool noCache = flags.getBool("no-cache", false);
    const std::string verifyOutput = flags.getString("verify-output", "off");
    if (verifyOutput == "sampled") {
      options.verify.level = VerifyLevel::kSampled;
    } else if (verifyOutput == "all") {
      options.verify.level = VerifyLevel::kAll;
    } else if (verifyOutput != "off") {
      throw Error("--verify-output expects off|sampled|all, got '" +
                  verifyOutput + "'");
    }
    options.verify.vectors =
        static_cast<int>(flags.getInt("verify-vectors", 4));
    options.verify.quarantineDir = flags.getString("quarantine-dir", "");
    options.core.maxSndNodes = static_cast<size_t>(
        flags.getInt("max-snd-nodes",
                     static_cast<int64_t>(options.core.maxSndNodes)));
    options.core.maxSndBytes = static_cast<size_t>(
        flags.getInt("max-snd-bytes",
                     static_cast<int64_t>(options.core.maxSndBytes)));
    options.core.maxTotalCliques = static_cast<size_t>(
        flags.getInt("max-cliques",
                     static_cast<int64_t>(options.core.maxTotalCliques)));
    if (!cacheDir.empty() && !noCache) {
      CacheConfig cacheConfig;
      cacheConfig.dir = cacheDir;
      options.cache = std::make_shared<ResultCache>(cacheConfig);
    }
    const std::string traceOut = flags.getString("trace-out", "");
    const std::string metricsJson = flags.getString("metrics-json", "");
    flags.finish();

    // Observability is opt-in per run: until these flags flip the global
    // gates, every emit site in the pipeline is a single-branch no-op and
    // the compiled output is byte-identical to an uninstrumented build.
    if (!traceOut.empty()) trace::Tracer::instance().enable();
    if (!metricsJson.empty()) metrics::Registry::instance().enable();

    const Program program = [&] {
      if (endsWith(sourcePath, ".c"))
        return parseMiniC(readFile(sourcePath)).program;
      return parseProgram(readFile(sourcePath), sourcePath);
    }();
    CodeGenerator generator(machine, options);
    auto dumpStats = [&] {
      if (!statsJson.empty())
        writeFile(statsJson, generator.telemetry().toJson() + "\n");
      if (!traceOut.empty())
        writeFile(traceOut, trace::Tracer::instance().exportJson());
      if (!metricsJson.empty())
        writeFile(metricsJson, metrics::Registry::instance().toJson());
      if (options.cache != nullptr) {
        // To stderr so cached and cold runs produce byte-identical stdout.
        const CacheStats cs = options.cache->stats();
        std::fprintf(stderr, "; cache: %lld hits, %lld misses, %lld corrupt\n",
                     static_cast<long long>(cs.hits),
                     static_cast<long long>(cs.misses),
                     static_cast<long long>(cs.corrupt));
      }
    };
    const bool multiBlock = program.numBlocks() > 1;

    // Verification failures degrade to the verified baseline; surface them
    // on stderr so batch logs show which blocks were quarantined.
    auto reportQuarantined = [&](const CompiledBlock& b,
                                 const std::string& name) {
      if (!b.quarantined) return;
      std::fprintf(stderr,
                   "avivc: block '%s' failed output verification; emitted "
                   "the verified baseline instead (repro quarantined%s%s)\n",
                   name.c_str(),
                   options.verify.quarantineDir.empty() ? "" : " under ",
                   options.verify.quarantineDir.c_str());
    };

    if (multiBlock) {
      const CompiledProgram compiled = generator.compileProgram(program);
      dumpStats();
      for (size_t i = 0; i < compiled.blocks.size(); ++i)
        reportQuarantined(compiled.blocks[i], program.block(i).name());
      std::printf("; program '%s' on %s: %d instructions total "
                  "(%zu blocks + control)\n\n",
                  program.name().c_str(), machine.name().c_str(),
                  compiled.totalInstructions(), compiled.blocks.size());
      if (printAsm) {
        for (const CompiledBlock& block : compiled.blocks)
          std::printf("%s\n", block.image.asmText(machine).c_str());
      }
      if (!simulate.empty()) {
        const auto inputs = parseBindings(simulate);
        const auto outputs = simulateProgram(machine, compiled, inputs);
        for (const auto& [name, value] : outputs)
          std::printf("%s = %lld\n", name.c_str(),
                      static_cast<long long>(value));
      }
      if (verifyRuns > 0) {
        Rng rng(1);
        std::map<std::string, int64_t> inputs;
        for (int run = 0; run < verifyRuns; ++run) {
          for (const std::string& name : program.block(0).inputNames())
            inputs[name] = rng.intIn(-100, 100);
          const auto expected = evalProgram(program, inputs);
          const auto actual = simulateProgram(machine, compiled, inputs);
          for (const auto& [name, value] : expected) {
            if (actual.count(name) && actual.at(name) != value) {
              std::printf("VERIFY FAILED: %s\n", name.c_str());
              return 1;
            }
          }
        }
        std::printf("; verified %d random-input runs against the reference "
                    "interpreter\n",
                    verifyRuns);
      }
      if (!objectPath.empty())
        std::fprintf(stderr,
                     "avivc: --o only supports single-block sources\n");
      return 0;
    }

    // Single block: full toolchain including the assembler.
    const BlockDag& block = program.block(0);
    SymbolTable symbols;
    const CompiledBlock compiled = generator.compileBlock(block, symbols);
    dumpStats();
    reportQuarantined(compiled, block.name());
    if (printAsm)
      std::printf("%s\n", compiled.image.asmText(machine).c_str());

    const BinaryImage binary =
        assembleBinary(compiled.image, machine, symbols);
    if (binStats) {
      const BinaryFormat format(machine);
      std::printf("%s", format.describe().c_str());
      std::printf("ROM: %d instructions x %d bits = %zu bytes\n\n",
                  binary.numInstructions, binary.bitsPerInstruction,
                  binary.romBytes());
    }
    if (!objectPath.empty()) {
      writeFile(objectPath, serializeBinary(binary));
      std::printf("; object written to %s (%zu ROM bytes)\n",
                  objectPath.c_str(), binary.romBytes());
    }

    const Simulator sim(machine);
    if (!simulate.empty()) {
      const auto inputs = parseBindings(simulate);
      MachineState state = sim.initialState();
      sim.writeVars(state, symbols, inputs);
      sim.loadConstPool(state, compiled.image);
      const auto outputs =
          sim.runBlock(compiled.image, state, nullptr,
                       traceRun ? &std::cout : nullptr);
      for (const auto& [name, value] : outputs)
        std::printf("%s = %lld\n", name.c_str(),
                    static_cast<long long>(value));
    }
    if (verifyRuns > 0) {
      // Verify the *disassembled binary*, exercising the whole Fig 1 loop.
      const CodeImage decoded = disassembleBinary(binary, machine);
      Rng rng(1);
      for (int run = 0; run < verifyRuns; ++run) {
        std::map<std::string, int64_t> inputs;
        for (const std::string& name : block.inputNames())
          inputs[name] = rng.intIn(-100, 100);
        if (sim.runBlockFresh(decoded, symbols, inputs) !=
            evalDagOutputs(block, inputs)) {
          std::printf("VERIFY FAILED on run %d\n", run);
          return 1;
        }
      }
      std::printf("; verified %d random-input runs of the assembled binary "
                  "against the reference interpreter\n",
                  verifyRuns);
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "avivc: %s\n", e.what());
    return 1;
  }
}
