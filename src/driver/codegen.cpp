#include "driver/codegen.h"

#include <filesystem>
#include <optional>

#include "baseline/sequential.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/cache.h"
#include "service/fingerprint.h"
#include "sim/simulator.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "verify/quarantine.h"
#include "verify/verify.h"

namespace aviv {

namespace {

// Flight-recorder dump for the failure paths: writes the retained tail of
// the trace to dir/file so the events leading up to an InternalError or
// verification failure survive the degradation. Best effort, like
// quarantine itself — returns silently when tracing is off, no directory
// is configured, or the write fails.
void dumpFlightRecord(const std::string& dir, std::string file) {
  if (dir.empty() || !trace::on()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return;
  for (char& c : file)
    if (c == '/' || c == '\\' || c == ':') c = '_';
  (void)trace::Tracer::instance().writeFlightRecord(
      (std::filesystem::path(dir) / file).string());
}

// The sequential baseline with the driver's outputs-to-memory retry: the
// shared engine body behind both the degradation ladder's last rung and the
// first-class baseline engine (DriverOptions::engine == Engine::kBaseline).
CoreResult runSequentialBaseline(const BlockDag& ir, const Machine& machine,
                                 const MachineDatabases& dbs,
                                 const CodegenOptions& options,
                                 bool outputsToMemoryFallback) {
  BaselineResult base = [&] {
    try {
      return sequentialCodegen(ir, machine, dbs, options);
    } catch (const Error&) {
      if (options.outputsToMemory || !outputsToMemoryFallback) throw;
      CodegenOptions retry = options;
      retry.outputsToMemory = true;
      return sequentialCodegen(ir, machine, dbs, retry);
    }
  }();
  CoreResult core{std::move(base.assignment), std::move(base.graph),
                  std::move(base.schedule), {}};
  core.stats.irNodes = ir.size();
  core.stats.cover.spillsInserted = base.spillsInserted;
  return core;
}

}  // namespace

int CompiledProgram::totalInstructions() const {
  int total = 0;
  for (const CompiledBlock& block : blocks) total += block.numInstructions();
  for (const ControlInstr& ci : control)
    total += ci.kind == TermKind::kReturn ? 0 : 1;
  return total;
}

CodeGenerator::CodeGenerator(Machine machine, DriverOptions options)
    : options_(std::move(options)),
      ctx_(std::move(machine), options_.core, options_.seed) {
  // Fingerprint the machine once per session, before any parallel region,
  // so concurrent block compiles read the memo lock-free.
  if (options_.cache != nullptr)
    ctx_.setMachineFingerprint(fingerprintMachine(ctx_.machine()));
}

// The per-block overflow check encodeBlock performs for direct scopes;
// cache-hydrated images need it re-run against the consumer's table.
static void checkDataMemoryFits(const CodeImage& image,
                                const SymbolScope& symbols,
                                const Machine& machine) {
  if (symbols.deferred() || symbols.sizeWords() <= image.spillBase) return;
  throw Error("data memory of machine '" + machine.name() +
              "' too small: " + std::to_string(symbols.sizeWords()) +
              " variable words overlap " +
              std::to_string(image.numSpillSlots) + " spill slots");
}

// Degradation ladder, last rung: produce the block with the sequential
// baseline generator after the covering flow failed for reason `why`
// (deadline expiry or a recoverable internal error). Mirrors the driver's
// outputs-to-memory retry so the fallback succeeds wherever the baseline
// benches do. Throws Error when the baseline cannot compile it either —
// the block is then genuinely uncompilable on this machine.
CoreResult CodeGenerator::baselineCore(const BlockDag& ir,
                                       const CodegenOptions& coreOptions,
                                       TelemetryNode& tel,
                                       const std::string& why) {
  PhaseScope ph(tel, "baseline-fallback");
  // The baseline also builds the Split-Node DAG, so when the covering flow
  // fell here because a resource ceiling tripped, the same ceiling would
  // trip again. Lift the ceilings for the fallback: the baseline walks the
  // SND sequentially without clique enumeration, so its footprint is the
  // part the ceilings exist to protect against, not the part that blows up.
  CodegenOptions baseOptions = coreOptions;
  baseOptions.maxSndNodes = 0;
  baseOptions.maxSndBytes = 0;
  baseOptions.maxTotalCliques = 0;
  CoreResult core = [&] {
    try {
      return runSequentialBaseline(ir, ctx_.machine(), ctx_.databases(),
                                   baseOptions,
                                   options_.outputsToMemoryFallback);
    } catch (const Error& e) {
      throw Error(why + "; baseline fallback also failed: " + e.what());
    }
  }();
  tel.setCounter("degraded", 1);
  return core;
}

CompiledBlock CodeGenerator::compileBlockWith(
    const BlockDag& ir, SymbolScope& symbols,
    const CodegenOptions& coreOptions, TelemetryNode& tel) {
  trace::Span compileSpan("driver", "compile:", ir.name());
  // The baseline engine's output is not the covering flow's: it must never
  // populate (or be served from) the shared result cache.
  ResultCache* cache = options_.engine == Engine::kBaseline
                           ? nullptr
                           : options_.cache.get();
  const bool verifyThis = shouldVerifyBlock(options_.verify, ir.name());

  // One differential verification, counted under the block's "verify"
  // phase. The image is checked in scope-independent form (names = its
  // first-use-order symbol list), so cached entries and fresh recordings
  // go through the identical path.
  auto runVerify = [&](const CodeImage& image,
                       const std::vector<std::string>& names) {
    PhaseScope ph(tel, "verify");
    const VerifyReport report =
        verifyCompiledBlock(ctx_.machine(), ir, image, names, options_.verify);
    ph.node().addCounter("blocksChecked", 1);
    ph.node().addCounter("vectorsRun", report.vectorsRun);
    if (!report.passed) ph.node().addCounter("verifyFailures", 1);
    return report;
  };
  auto quarantine = [&](const CodeImage& image,
                        const std::vector<std::string>& names,
                        const VerifyReport& report) {
    trace::instant("driver", "quarantine:", ir.name());
    if (metrics::on())
      metrics::Registry::instance().counter("driver.quarantined").add(1);
    const std::string artifactDir = writeQuarantineArtifact(
        options_.verify.quarantineDir, ctx_.machine(), ir, image, names,
        options_.verify, report);
    // The flight record lands inside the artifact bundle when one was
    // written, next to the configured quarantine dir otherwise.
    if (artifactDir.empty())
      dumpFlightRecord(options_.verify.quarantineDir,
                       "verify-" + ctx_.machine().name() + "-" + ir.name() +
                           ".flight.json");
    else
      dumpFlightRecord(artifactDir, kBundleFlightFile);
  };

  Hash128 cacheKey;
  if (cache != nullptr) {
    // Verifying sessions live in their own key space (salted with the
    // verifier version): entries produced with verification off are never
    // mistaken for checked ones, and a verifier bump forces a recompile.
    const uint32_t verifierSalt = options_.verify.level == VerifyLevel::kOff
                                      ? 0
                                      : options_.verify.verifierVersion;
    cacheKey = compileFingerprint(ctx_, ir, coreOptions, options_.runPeephole,
                                  options_.outputsToMemoryFallback,
                                  verifierSalt);
    if (const auto entry = cache->lookup(cacheKey)) {
      // A warm hit whose entry carries a current verified bit skips the
      // simulator entirely; an unverified or stale-verifier entry is
      // re-checked once and upgraded in place so the next hit is free.
      bool usable = true;
      if (verifyThis &&
          !(entry->verified &&
            entry->verifierVersion == options_.verify.verifierVersion)) {
        const VerifyReport report =
            runVerify(entry->image, entry->symbolNames);
        if (report.passed) {
          CacheEntry upgraded = *entry;
          upgraded.verified = true;
          upgraded.verifierVersion = options_.verify.verifierVersion;
          cache->store(cacheKey, std::move(upgraded));
        } else {
          // A cached miscompile. Quarantine it and fall through to a cold
          // compile, which verifies before anything is trusted or stored.
          quarantine(entry->image, entry->symbolNames, report);
          usable = false;
        }
      }
      if (usable) {
        // Hydrate: replay the scope-independent image into the consumer's
        // symbol scope. No covering/regalloc/encode work happens, so with
        // verification off the block's telemetry subtree stays free of
        // pipeline phases — the acceptance check for "zero covering work".
        CompiledBlock block;
        block.image = entry->image;
        rebindSymbols(block.image, entry->symbolNames, symbols);
        checkDataMemoryFits(block.image, symbols, ctx_.machine());
        block.fromCache = true;
        block.cachedStatsJson = entry->statsJson;
        if (options_.recordSymbolNames) {
          block.symbolNames = entry->symbolNames;
          block.portableImage = entry->image;
        }
        tel.addCounter("cacheHits", 1);
        trace::instant("driver", "cache.hit:", ir.name());
        if (metrics::on())
          metrics::Registry::instance().counter("driver.cacheHits").add(1);
        return block;
      }
    }
    trace::instant("driver", "cache.miss:", ir.name());
    if (metrics::on())
      metrics::Registry::instance().counter("driver.cacheMisses").add(1);
  }
  CompiledBlock block;
  // Rung 1: the full covering flow, with the existing outputs-to-memory
  // retry. DeadlineExceeded / InternalError / ResourceLimitExceeded must
  // not trigger that retry — re-running the covering flow cannot help (the
  // budget stays spent, the invariant stays tripped, the same Split-Node
  // DAG blows the same ceiling); they fall through to the baseline rung.
  auto coverWithRetry = [&]() -> CoreResult {
    try {
      return coverBlock(ir, ctx_.machine(), ctx_.databases(), coreOptions,
                        ctx_.pool(), &tel, &ctx_.deadline());
    } catch (const DeadlineExceeded&) {
      throw;
    } catch (const InternalError&) {
      throw;
    } catch (const ResourceLimitExceeded&) {
      throw;
    } catch (const Error&) {
      if (coreOptions.outputsToMemory || !options_.outputsToMemoryFallback)
        throw;
      CodegenOptions retry = coreOptions;
      retry.outputsToMemory = true;
      tel.addCounter("outputsToMemoryRetries", 1);
      return coverBlock(ir, ctx_.machine(), ctx_.databases(), retry,
                        ctx_.pool(), &tel, &ctx_.deadline());
    }
  };
  auto noteDegraded = [&](const char* reason) {
    block.degraded = true;
    trace::instant("driver", "degraded:", ir.name());
    trace::instant("driver", "degraded.reason:", reason);
    if (metrics::on())
      metrics::Registry::instance().counter("driver.degraded").add(1);
  };
  CoreResult core = [&] {
    if (options_.engine == Engine::kBaseline) {
      // First-class baseline engine: the sequential generator IS rung 1.
      // Ceilings stay as configured (a trip is a recoverable rejection, not
      // a reason to fall anywhere — there is no rung below this one).
      PhaseScope ph(tel, "baseline");
      return runSequentialBaseline(ir, ctx_.machine(), ctx_.databases(),
                                   coreOptions,
                                   options_.outputsToMemoryFallback);
    }
    if (!options_.baselineFallback) return coverWithRetry();
    try {
      return coverWithRetry();
    } catch (const DeadlineExceeded& e) {
      noteDegraded("deadline");
      return baselineCore(ir, coreOptions, tel, e.what());
    } catch (const InternalError& e) {
      // The flight recorder exists for exactly this moment: dump the event
      // tail before the baseline fallback overwrites it with its own work.
      dumpFlightRecord(options_.verify.quarantineDir,
                       "internal-" + ctx_.machine().name() + "-" + ir.name() +
                           ".flight.json");
      noteDegraded("internal-error");
      return baselineCore(ir, coreOptions, tel, e.what());
    } catch (const ResourceLimitExceeded& e) {
      noteDegraded("resource-limit");
      return baselineCore(ir, coreOptions, tel, e.what());
    }
  }();
  block.core = std::move(core);
  auto finishCore = [&] {
    if (options_.runPeephole) {
      // Peephole reads only the graph and schedule, never a register
      // assignment, so the allocation that used to run before it was pure
      // throwaway work — run the single authoritative allocation after.
      PhaseScope ph(tel, "peephole");
      peepholeOptimize(block.core.graph, block.core.schedule,
                       ctx_.databases().constraints, &block.peephole);
      recordPeepholeStats(block.peephole, ph.node());
      tel.child("regalloc").addCounter("passesSaved", 1);
    }
    {
      PhaseScope ph(tel, "regalloc");
      block.regs = allocateRegisters(block.core.graph, block.core.schedule);
      recordRegAllocStats(block.regs, ph.node());
    }
  };
  finishCore();
  // Degraded or timed-out results are NOT cacheable: their quality depends
  // on wall-clock luck, and a cache hit must replay the covering flow's
  // deterministic output, not whatever a starved run managed to produce.
  const bool wantCache =
      cache != nullptr && !block.degraded && !block.core.stats.timedOut;
  if (!wantCache && !verifyThis && !options_.recordSymbolNames) {
    PhaseScope ph(tel, "encode");
    block.image =
        encodeBlock(block.core.graph, block.core.schedule, block.regs, symbols);
    ph.node().setCounter("instructions", block.image.numInstructions());
    if (cache != nullptr) tel.addCounter("cacheMisses", 1);
    return block;
  }
  // Encode against a private deferred scope so the stored/verified image is
  // scope-independent, then replay it into the consumer's scope exactly
  // as a hit would. The entry's stats are serialized BEFORE the cache
  // counters land on `tel`, so they match a cache-less compile verbatim.
  SymbolScope recording;
  auto encodeRecording = [&] {
    SymbolScope fresh;
    {
      PhaseScope ph(tel, "encode");
      block.image = encodeBlock(block.core.graph, block.core.schedule,
                                block.regs, fresh);
      ph.node().setCounter("instructions", block.image.numInstructions());
    }
    recording = std::move(fresh);
  };
  encodeRecording();
  if (verifyThis) {
    // Fault-injection site: corrupt the encoded image BEFORE the first
    // verification, so a quarantined artifact carries — and deterministically
    // reproduces — the exact image the verifier rejected.
    if (FailPoints::instance().shouldFail("verify-corrupt-asm"))
      (void)corruptImageForTesting(block.image);
    VerifyReport report = runVerify(block.image, recording.recorded());
    if (!report.passed) {
      quarantine(block.image, recording.recorded(), report);
      block.quarantined = true;
      if (block.degraded || !options_.baselineFallback ||
          options_.engine == Engine::kBaseline)
        throw Error("verification failed for block '" + ir.name() + "': " +
                    report.detail());
      // Degradation ladder: replace the miscompiled covering result with
      // the sequential baseline, and verify THAT before emitting anything.
      block.degraded = true;
      block.core = baselineCore(ir, coreOptions, tel,
                                "verification failed: " + report.detail());
      block.peephole = {};
      finishCore();
      encodeRecording();
      report = runVerify(block.image, recording.recorded());
      if (!report.passed)
        throw Error("verification failed for block '" + ir.name() +
                    "' and for its baseline fallback: " + report.detail());
    }
  }
  // A quarantined block is degraded, hence uncacheable — an unverifiable
  // result must never become a warm hit.
  if (wantCache && !block.quarantined) {
    CacheEntry entry;
    entry.blockName = ir.name();
    entry.machineName = ctx_.machine().name();
    entry.symbolNames = recording.recorded();
    entry.statsJson = tel.toJson();
    entry.verified = verifyThis;
    entry.verifierVersion = verifyThis ? options_.verify.verifierVersion : 0;
    entry.image = block.image;
    cache->store(cacheKey, std::move(entry));
  }
  if (options_.recordSymbolNames) {
    block.symbolNames = recording.recorded();
    block.portableImage = block.image;
  }
  rebindSymbols(block.image, recording.recorded(), symbols);
  checkDataMemoryFits(block.image, symbols, ctx_.machine());
  if (cache != nullptr) tel.addCounter("cacheMisses", 1);
  return block;
}

CompiledBlock CodeGenerator::compileBlock(const BlockDag& ir) {
  return compileBlock(ir, ownSymbols_);
}

CompiledBlock CodeGenerator::compileBlock(const BlockDag& ir,
                                          SymbolTable& symbols) {
  // Each compile entry gets a fresh budget: the session deadline's clock
  // starts now, not at generator construction.
  ctx_.deadline().arm(options_.core.timeLimitSeconds);
  SymbolScope scope(symbols);
  CompiledBlock block =
      compileBlockWith(ir, scope, options_.core,
                       ctx_.telemetry().child("block:" + ir.name()));
  recordServiceTelemetry();
  return block;
}

// Publishes the shared cache's counter totals as the session's "service"
// phase. Totals, not deltas: safe to re-record after every compile, and
// meaningful even when several generators share one cache (avivd).
void CodeGenerator::recordServiceTelemetry() {
  if (options_.cache == nullptr) return;
  recordServiceStats(options_.cache->stats(),
                     ctx_.telemetry().child("service"));
}

CompiledProgram CodeGenerator::compileProgram(const Program& program) {
  program.validate();
  // One budget for the whole program compile (blocks share the session
  // deadline, so a parallel fan-out races the same clock the serial loop
  // would).
  ctx_.deadline().arm(options_.core.timeLimitSeconds);
  CompiledProgram compiled;
  CodegenOptions coreOptions = options_.core;
  coreOptions.outputsToMemory = true;

  const size_t numBlocks = program.numBlocks();
  // Pre-create one telemetry subtree per block: TelemetryNode is not
  // thread-safe, but disjoint subtrees created before the fan-out are.
  TelemetryNode& programTel =
      ctx_.telemetry().child("program:" + program.name());
  std::vector<TelemetryNode*> blockTel;
  blockTel.reserve(numBlocks);
  for (size_t i = 0; i < numBlocks; ++i)
    blockTel.push_back(&programTel.child("block:" + program.block(i).name()));

  // Compile independent blocks in parallel, each encoding against a private
  // deferred symbol scope; the scopes are then merged in block order, which
  // reproduces the exact address assignment of the serial shared-table run.
  std::vector<SymbolScope> scopes(numBlocks);
  std::vector<std::optional<CompiledBlock>> slots(numBlocks);
  auto compileOne = [&](size_t i, int) {
    slots[i].emplace(compileBlockWith(program.block(i), scopes[i], coreOptions,
                                      *blockTel[i]));
  };
  ThreadPool* pool = ctx_.pool();
  if (pool != nullptr && coreOptions.jobs > 1 && numBlocks > 1) {
    PhaseScope ph(programTel, "parallel-blocks");
    ph.node().setCounter("blocks", static_cast<int64_t>(numBlocks));
    ph.node().setCounter("jobs", pool->parallelism());
    pool->parallelFor(numBlocks, compileOne);
  } else {
    for (size_t i = 0; i < numBlocks; ++i) compileOne(i, 0);
  }

  for (size_t i = 0; i < numBlocks; ++i) {
    CompiledBlock& block = *slots[i];
    resolveSymbols(block.image, scopes[i], compiled.symbols);
    // The data-memory overflow check encodeBlock defers for private scopes:
    // merged variables must stay below this block's spill slots.
    if (compiled.symbols.sizeWords() > block.image.spillBase)
      throw Error("data memory of machine '" + ctx_.machine().name() +
                  "' too small: " +
                  std::to_string(compiled.symbols.sizeWords()) +
                  " variable words overlap " +
                  std::to_string(block.image.numSpillSlots) + " spill slots");
    compiled.blocks.push_back(std::move(block));
  }
  // Cover the control-flow terminators (one trivial pattern each).
  for (size_t i = 0; i < numBlocks; ++i) {
    const Terminator& term = program.terminator(i);
    ControlInstr ci;
    ci.kind = term.kind;
    switch (term.kind) {
      case TermKind::kReturn:
        break;
      case TermKind::kJump:
        ci.targetBlock = static_cast<int>(program.blockIndex(term.target));
        break;
      case TermKind::kBranch:
        ci.targetBlock = static_cast<int>(program.blockIndex(term.target));
        ci.elseBlock = static_cast<int>(program.blockIndex(term.elseTarget));
        ci.condAddr = compiled.symbols.lookup(term.condVar);
        break;
    }
    compiled.control.push_back(ci);
  }
  recordServiceTelemetry();
  return compiled;
}

std::map<std::string, int64_t> simulateProgram(
    const Machine& machine, const CompiledProgram& compiled,
    const std::map<std::string, int64_t>& inputs, size_t maxBlockExecutions,
    size_t* totalCycles) {
  Simulator sim(machine);
  MachineState state = sim.initialState();
  sim.writeVars(state, compiled.symbols, inputs);
  for (const CompiledBlock& block : compiled.blocks)
    sim.loadConstPool(state, block.image);

  size_t blockIdx = 0;
  for (size_t step = 0; step < maxBlockExecutions; ++step) {
    AVIV_CHECK(blockIdx < compiled.blocks.size());
    (void)sim.runBlock(compiled.blocks[blockIdx].image, state, totalCycles);
    const ControlInstr& ci = compiled.control[blockIdx];
    if (totalCycles != nullptr && ci.kind != TermKind::kReturn)
      ++*totalCycles;
    switch (ci.kind) {
      case TermKind::kReturn: {
        std::map<std::string, int64_t> result;
        for (const auto& [name, addr] : compiled.symbols.all())
          result[name] = state.mem[static_cast<size_t>(addr)];
        return result;
      }
      case TermKind::kJump:
        blockIdx = static_cast<size_t>(ci.targetBlock);
        break;
      case TermKind::kBranch: {
        const int64_t cond = state.mem[static_cast<size_t>(ci.condAddr)];
        blockIdx = static_cast<size_t>(cond != 0 ? ci.targetBlock
                                                 : ci.elseBlock);
        break;
      }
    }
  }
  throw Error("program exceeded " + std::to_string(maxBlockExecutions) +
              " block executions in simulation");
}

}  // namespace aviv
