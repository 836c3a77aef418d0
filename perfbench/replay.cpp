#include "replay.h"

#include <chrono>
#include <fstream>
#include <optional>

#include "core/assign_explore.h"
#include "core/assigned.h"
#include "core/context.h"
#include "core/cover.h"
#include "core/splitnode.h"
#include "core/workspace.h"
#include "frontend/minic.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "proc/pool.h"
#include "regalloc/peephole.h"
#include "regalloc/regalloc.h"
#include "service/fingerprint.h"
#include "service/request.h"
#include "support/arena.h"
#include "support/deadline.h"
#include "support/error.h"
#include "support/io.h"
#include "support/strings.h"
#include "verify/verify.h"

namespace avivbench {

using namespace aviv;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The covering flow left the path this replay mirrors (codegen would
// degrade to the sequential baseline here).
struct Unmirrored {};

// One compiled block as the replay produced it: the consumer-scope image
// (asm text source) and its scope-independent form (verification input).
struct ReplayBlock {
  CodeImage image;
  CodeImage portable;
  std::vector<std::string> names;
  bool hit = false;
};

}  // namespace

const char* layerName(Layer layer) {
  static const char* const kNames[] = {
      "request",           "service.request_parse", "isdl.parse",
      "isdl.databases",    "ir.parse",              "service.fingerprint",
      "service.cache.lookup", "service.cache.store", "core.splitnode",
      "core.explore",      "core.materialize",      "core.cover",
      "regalloc.peephole", "regalloc.alloc",        "asmgen.encode",
      "asmgen.rebind",     "verify",                "asmgen.asm_text",
      "proc.pool_execute", "proc.in_process"};
  static_assert(sizeof(kNames) / sizeof(kNames[0]) ==
                static_cast<size_t>(Layer::kCount));
  return kNames[static_cast<size_t>(layer)];
}

struct Replayer::Impl {
  bool traced = false;
  std::vector<std::shared_ptr<ResultCache>> caches;
  std::vector<SpanRecord> spans;
  std::vector<int32_t> stack;
  uint32_t request = 0;
  ReplayCounts counts;

  // RAII span: opened on construction, closed on any exit.
  class Span {
   public:
    Span(Impl& impl, Layer layer) : impl_(impl) {
      if (!impl_.traced) return;
      index_ = static_cast<int32_t>(impl_.spans.size());
      impl_.spans.push_back({layer,
                             impl_.stack.empty() ? -1 : impl_.stack.back(),
                             impl_.request, nowNs(), 0});
      impl_.stack.push_back(index_);
    }
    ~Span() {
      if (index_ < 0) return;
      impl_.spans[static_cast<size_t>(index_)].endNs = nowNs();
      impl_.stack.pop_back();
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Impl& impl_;
    int32_t index_ = -1;
  };

  template <typename F>
  auto timed(Layer layer, F&& fn) -> decltype(fn()) {
    const Span span(*this, layer);
    return fn();
  }

  struct Covered {
    AssignedGraph graph;
    Schedule schedule;
    int spills = 0;
  };

  // core/codegen.cpp coverBlock, serial path (requests run with jobs=1).
  Covered cover(const BlockDag& ir, CodegenContext& ctx,
                const CodegenOptions& options) {
    const MachineDatabases& dbs = ctx.databases();
    const SplitNodeDag snd = timed(Layer::kSplitNode, [&] {
      return SplitNodeDag::build(ir, ctx.machine(), dbs, options);
    });
    counts.sndNodes += snd.size();

    CodegenOptions exploreOptions = options;
    if (options.smallSpaceExhaustive > 0) {
      size_t space = 1;
      for (NodeId id = 0; id < ir.size(); ++id) {
        if (isLeafOp(ir.node(id).op)) continue;
        space *= snd.altsOf(id).size();
        if (space > options.smallSpaceExhaustive) break;
      }
      if (space <= options.smallSpaceExhaustive) {
        exploreOptions.assignPruneIncremental = false;
        exploreOptions.assignBeamWidth = 0;
        exploreOptions.assignKeepBest = 1 << 30;
      }
    }

    std::unique_ptr<CoverWorkspace> wsOwner = ctx.workspaces().acquire();
    CoverWorkspace& ws = *wsOwner;
    struct Release {
      CodegenContext& ctx;
      std::unique_ptr<CoverWorkspace>& ws;
      ~Release() { ctx.workspaces().release(std::move(ws)); }
    } release{ctx, wsOwner};

    ExploreStats exploreStats;
    const std::vector<Assignment> assignments = timed(Layer::kExplore, [&] {
      const AssignmentExplorer explorer(snd, exploreOptions, nullptr,
                                        &ws.arena);
      return explorer.explore(&exploreStats);
    });
    counts.exploreStates += exploreStats.statesExpanded;

    // Serial winner: the first candidate with the strictly smallest
    // (instructions, spills) — codegen's (instructions, spills, index)
    // tie-break.
    std::optional<Covered> best;
    int bestInstrs = 0;
    auto tryAssignments = [&](const std::vector<Assignment>& candidates) {
      for (const Assignment& assignment : candidates) {
        const ArenaScope candidateScope(ws.arena);
        ws.arena.resetHighWater();
        AssignedGraph graph = timed(Layer::kMaterialize, [&] {
          return AssignedGraph::materialize(snd, assignment, options, &ws);
        });
        CoverStats stats;
        Schedule schedule;
        try {
          schedule = timed(Layer::kCover, [&] {
            CoveringEngine engine(graph, dbs.transfers, dbs.constraints,
                                  options, nullptr, &ws);
            return engine.run(&stats);
          });
        } catch (const DeadlineExceeded&) {
          throw Unmirrored{};
        } catch (const Error&) {
          counts.cliqueRecursions += stats.cliqueRecursions;
          counts.candidatesEvaluated += stats.candidatesEvaluated;
          continue;
        }
        counts.cliqueRecursions += stats.cliqueRecursions;
        counts.candidatesEvaluated += stats.candidatesEvaluated;
        ++counts.assignmentsCovered;
        const int instrs = schedule.numInstructions();
        if (!best.has_value() || instrs < bestInstrs ||
            (instrs == bestInstrs && stats.spillsInserted < best->spills)) {
          bestInstrs = instrs;
          best.emplace(Covered{std::move(graph), std::move(schedule),
                               stats.spillsInserted});
        }
      }
    };
    tryAssignments(assignments);
    if (!best.has_value()) {
      CodegenOptions wide = options;
      wide.assignPruneIncremental = false;
      wide.assignBeamWidth = 256;
      wide.assignKeepBest = 64;
      tryAssignments(timed(Layer::kExplore, [&] {
        const AssignmentExplorer explorer(snd, wide, nullptr, &ws.arena);
        return explorer.explore();
      }));
    }
    if (!best.has_value())
      throw Error("block '" + ir.name() + "': no feasible schedule found");
    timed(Layer::kMaterialize, [&] { best->graph.detachPayloads(); });
    ++counts.blocksCovered;
    counts.spills += static_cast<uint64_t>(best->spills);
    return std::move(*best);
  }

  // driver/codegen.cpp compileBlockWith with a cache and no degradation.
  ReplayBlock compileBlock(const BlockDag& ir, CodegenContext& ctx,
                           const DriverOptions& options,
                           const CodegenOptions& coreOptions,
                           SymbolScope& symbols, ResultCache& cache) {
    const Machine& machine = ctx.machine();
    const bool verifyThis = shouldVerifyBlock(options.verify, ir.name());
    const uint32_t salt = options.verify.level == VerifyLevel::kOff
                              ? 0
                              : options.verify.verifierVersion;
    const Hash128 key = timed(Layer::kFingerprint, [&] {
      return compileFingerprint(ctx, ir, coreOptions, options.runPeephole,
                                options.outputsToMemoryFallback, salt);
    });
    ReplayBlock out;
    const auto entry =
        timed(Layer::kCacheLookup, [&] { return cache.lookup(key); });
    if (entry != nullptr) {
      if (verifyThis &&
          !(entry->verified &&
            entry->verifierVersion == options.verify.verifierVersion)) {
        const VerifyReport report = verify(machine, ir, entry->image,
                                           entry->symbolNames, options);
        if (!report.passed) throw Unmirrored{};  // a quarantine
        CacheEntry upgraded = *entry;
        upgraded.verified = true;
        upgraded.verifierVersion = options.verify.verifierVersion;
        timed(Layer::kCacheStore,
              [&] { cache.store(key, std::move(upgraded)); });
      }
      out.image = entry->image;
      out.portable = entry->image;
      out.names = entry->symbolNames;
      out.hit = true;
      timed(Layer::kRebind,
            [&] { rebindSymbols(out.image, out.names, symbols); });
      checkFits(out.image, symbols, machine);
      return out;
    }

    Covered core = [&] {
      try {
        return cover(ir, ctx, coreOptions);
      } catch (const InternalError&) {
        throw Unmirrored{};
      } catch (const ResourceLimitExceeded&) {
        throw Unmirrored{};
      } catch (const DeadlineExceeded&) {
        throw Unmirrored{};
      } catch (const Error&) {
        if (coreOptions.outputsToMemory || !options.outputsToMemoryFallback)
          throw;
        CodegenOptions retry = coreOptions;
        retry.outputsToMemory = true;
        return cover(ir, ctx, retry);
      }
    }();
    if (options.runPeephole) {
      timed(Layer::kPeephole, [&] {
        peepholeOptimize(core.graph, core.schedule,
                         ctx.databases().constraints);
      });
    }
    const RegAssignment regs = timed(Layer::kAlloc, [&] {
      return allocateRegisters(core.graph, core.schedule);
    });
    SymbolScope fresh;
    out.image = timed(Layer::kEncode, [&] {
      return encodeBlock(core.graph, core.schedule, regs, fresh);
    });
    out.names = fresh.recorded();
    if (verifyThis) {
      const VerifyReport report =
          verify(machine, ir, out.image, out.names, options);
      if (!report.passed) throw Unmirrored{};  // a quarantine
    }
    CacheEntry stored;
    stored.blockName = ir.name();
    stored.machineName = machine.name();
    stored.symbolNames = out.names;
    stored.verified = verifyThis;
    stored.verifierVersion = verifyThis ? options.verify.verifierVersion : 0;
    stored.image = out.image;
    timed(Layer::kCacheStore, [&] { cache.store(key, std::move(stored)); });
    out.portable = out.image;
    timed(Layer::kRebind,
          [&] { rebindSymbols(out.image, out.names, symbols); });
    checkFits(out.image, symbols, machine);
    return out;
  }

  VerifyReport verify(const Machine& machine, const BlockDag& ir,
                      const CodeImage& image,
                      const std::vector<std::string>& names,
                      const DriverOptions& options) {
    const VerifyReport report = timed(Layer::kVerify, [&] {
      return verifyCompiledBlock(machine, ir, image, names, options.verify);
    });
    counts.verifyVectors += static_cast<uint64_t>(report.vectorsRun);
    return report;
  }

  // driver/codegen.cpp's data-memory overflow check for direct scopes.
  static void checkFits(const CodeImage& image, const SymbolScope& symbols,
                        const Machine& machine) {
    if (symbols.deferred() || symbols.sizeWords() <= image.spillBase) return;
    throw Error("data memory of machine '" + machine.name() + "' too small");
  }
};

Replayer::Replayer(bool traced,
                   std::vector<std::shared_ptr<ResultCache>> caches)
    : impl_(std::make_unique<Impl>()) {
  impl_->traced = traced;
  impl_->caches = std::move(caches);
}

Replayer::~Replayer() = default;

const std::vector<SpanRecord>& Replayer::spans() const {
  return impl_->spans;
}

const ReplayCounts& Replayer::counts() const { return impl_->counts; }

ReplayOutcome Replayer::run(const std::string& line, uint32_t request,
                            size_t cacheIndex) {
  Impl& im = *impl_;
  im.request = request;
  ReplayCounts countsBefore = im.counts;
  ReplayOutcome outcome;
  ResultCache& cache = *im.caches.at(cacheIndex);
  const RequestDefaults defaults;
  std::optional<Machine> machine;
  std::optional<Program> program;
  std::vector<ReplayBlock> blocks;
  try {
    const Impl::Span root(im, Layer::kRequest);
    // service/request.cpp runOnce.
    const RequestParse parse = im.timed(Layer::kRequestParse, [&] {
      return parseRequestLine(line, 0, defaults);
    });
    if (!parse.ok()) throw Error(parse.diagnostic.message);
    const ParsedRequest& req = *parse.request;
    machine.emplace(im.timed(Layer::kIsdlParse, [&] {
      Machine m = endsWith(req.machineSpec, ".isdl")
                      ? parseMachine(readFile(req.machineSpec))
                      : loadMachine(req.machineSpec);
      if (req.regsOverride > 0) m = m.withRegisterCount(req.regsOverride);
      return m;
    }));
    program.emplace(im.timed(Layer::kIrParse, [&] {
      const std::string& spec = req.blockSpec;
      if (endsWith(spec, ".c")) return parseMiniC(readFile(spec)).program;
      if (endsWith(spec, ".blk")) return parseProgram(readFile(spec), spec);
      const std::string path = blockPath(spec);
      return parseProgram(readFile(path), path);
    }));
    // CodeGenerator's CodegenContext: copies the machine and builds its
    // MachineDatabases, then fingerprints the machine once.
    const DriverOptions& options = req.options;
    CodegenContext ctx = im.timed(Layer::kIsdlDatabases, [&] {
      return CodegenContext(*machine, options.core, options.seed);
    });
    im.timed(Layer::kFingerprint, [&] {
      ctx.setMachineFingerprint(fingerprintMachine(ctx.machine()));
    });

    if (program->numBlocks() > 1) {
      // driver/codegen.cpp compileProgram, serial (jobs=1).
      program->validate();
      CodegenOptions coreOptions = options.core;
      coreOptions.outputsToMemory = true;
      const size_t n = program->numBlocks();
      std::vector<SymbolScope> scopes(n);
      for (size_t i = 0; i < n; ++i)
        blocks.push_back(im.compileBlock(program->block(i), ctx, options,
                                         coreOptions, scopes[i], cache));
      SymbolTable table;
      for (size_t i = 0; i < n; ++i) {
        im.timed(Layer::kRebind,
                 [&] { resolveSymbols(blocks[i].image, scopes[i], table); });
        if (table.sizeWords() > blocks[i].image.spillBase)
          throw Error("data memory too small");
        outcome.instrs += blocks[i].image.numInstructions();
        if (program->terminator(i).kind != TermKind::kReturn)
          ++outcome.instrs;
      }
    } else {
      SymbolTable table;
      SymbolScope scope(table);
      blocks.push_back(im.compileBlock(program->block(0), ctx, options,
                                       options.core, scope, cache));
      outcome.instrs = blocks[0].image.numInstructions();
    }
    im.timed(Layer::kAsmText, [&] {
      for (const ReplayBlock& block : blocks)
        outcome.asmText += block.image.asmText(*machine) + "\n";
    });
    outcome.hit = true;
    for (const ReplayBlock& block : blocks) outcome.hit &= block.hit;
    outcome.ok = true;
  } catch (const Unmirrored&) {
    // The degradation ladder of driver/codegen.cpp took over: take the result from the
    // real request path and compare that instead (nothing mirrored here).
    im.counts = countsBefore;
    const RequestParse parse = parseRequestLine(line, 0, defaults);
    RequestExecConfig exec;
    exec.cache = im.caches.at(cacheIndex);
    exec.wantAsm = true;
    TelemetryNode tel("replay");
    const RequestOutcome real = executeRequest(*parse.request, exec, tel);
    outcome.ok = real.ok;
    outcome.error = real.error;
    outcome.asmText = real.asmText;
    outcome.degraded = true;
    const size_t at = real.statusDetail.find("instrs=");
    outcome.instrs = at == std::string::npos
                         ? -1
                         : std::atoi(real.statusDetail.c_str() + at + 7);
    outcome.verified = real.ok;  // the ladder verifies what it emits
    return outcome;
  } catch (const std::exception& e) {
    outcome.error = e.what();
    return outcome;
  }

  // Correctness gate, outside any span: every block image against the
  // reference interpreter at VerifyLevel::kAll.
  VerifyOptions all;
  all.level = VerifyLevel::kAll;
  outcome.verified = true;
  for (size_t i = 0; i < blocks.size(); ++i) {
    const VerifyReport report = verifyCompiledBlock(
        *machine, program->block(i), blocks[i].portable, blocks[i].names, all);
    if (!report.passed) {
      outcome.verified = false;
      outcome.error = "verification failed: " + report.detail();
    }
  }
  return outcome;
}

double Replayer::measureIpcMicros(const std::vector<std::string>& lines,
                                  const std::string& cacheDir,
                                  uint32_t firstRequest) {
  if (lines.empty()) return 0.0;
  Impl& im = *impl_;
  proc::PoolConfig config;
  config.workers = 1;
  config.env.cacheDir = cacheDir;
  config.env.memEntries = 1 << 16;
  proc::WorkerPool pool(config);
  CacheConfig cacheConfig;
  cacheConfig.memoryEntries = 1 << 16;
  RequestExecConfig exec;
  exec.cache = std::make_shared<ResultCache>(cacheConfig);
  exec.wantAsm = true;
  const RequestDefaults defaults;
  // Warm both sides so the timed pass is memory-tier hits on both.
  for (const std::string& line : lines) {
    (void)pool.execute(line, true);
    TelemetryNode tel("ipc");
    (void)executeRequest(*parseRequestLine(line, 0, defaults).request, exec,
                         tel);
  }
  double diffNs = 0.0;
  for (size_t i = 0; i < lines.size(); ++i) {
    im.request = firstRequest + static_cast<uint32_t>(i);
    const int64_t t0 = nowNs();
    im.timed(Layer::kPoolExecute, [&] { (void)pool.execute(lines[i], true); });
    const int64_t t1 = nowNs();
    im.timed(Layer::kInProcess, [&] {
      TelemetryNode tel("ipc");
      (void)executeRequest(
          *parseRequestLine(lines[i], 0, defaults).request, exec, tel);
    });
    const int64_t t2 = nowNs();
    diffNs += static_cast<double>((t1 - t0) - (t2 - t1));
  }
  return diffNs / 1e3 / static_cast<double>(lines.size());
}

std::vector<double> selfMicros(const std::vector<SpanRecord>& spans) {
  std::vector<double> self(static_cast<size_t>(Layer::kCount), 0.0);
  for (const SpanRecord& s : spans) {
    const double us = static_cast<double>(s.endNs - s.startNs) / 1e3;
    self[static_cast<size_t>(s.layer)] += us;
    if (s.parent >= 0)
      self[static_cast<size_t>(spans[static_cast<size_t>(s.parent)].layer)] -=
          us;
  }
  return self;
}

void writeSpans(const std::string& path,
                const std::vector<SpanRecord>& spans) {
  std::ofstream out(path);
  out << "request\tlayer\tparent\tstart_ns\tend_ns\n";
  for (const SpanRecord& s : spans)
    out << s.request << '\t' << layerName(s.layer) << '\t' << s.parent << '\t'
        << s.startNs << '\t' << s.endNs << '\n';
}

}  // namespace avivbench
