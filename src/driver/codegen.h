// CodeGenerator — the public entry point of the AVIV library: the full
// back-end pipeline of paper Fig 1 / Fig 5.
//
//   BlockDag --(Split-Node DAG, assignment exploration, transfer insertion,
//   maximal-clique covering with loads/spills)--> schedule
//           --(Chaitin register allocation)--> registers
//           --(peephole: dead spill-code removal + compaction)--> final code
//           --(encoding)--> CodeImage (assembly text + simulator input)
//
// Programs (multiple blocks + control flow, Section III-C) compile each
// block with outputs stored to data memory and cover the control-flow
// terminators with trivial jump/branch patterns.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "asmgen/encode.h"
#include "core/codegen.h"
#include "core/context.h"
#include "ir/program.h"
#include "regalloc/peephole.h"
#include "regalloc/regalloc.h"
#include "support/hash.h"
#include "verify/verify.h"

namespace aviv {

class ResultCache;  // src/service/cache.h
struct CacheEntry;  // src/service/cache.h

// Which code-generation engine the driver runs as rung 1. The heuristic
// engine is the paper's covering flow; the baseline engine is the
// phase-ordered sequential generator (src/baseline) promoted from fallback
// rung to first-class engine so differential harnesses (src/fuzz) can
// compile the same input on both and compare.
enum class Engine : uint8_t {
  kHeuristic,  // split-node assignment exploration + clique covering
  kBaseline,   // sequential selection -> list scheduling -> spills
};

struct DriverOptions {
  CodegenOptions core;
  // Engine selection. kBaseline bypasses the result cache entirely (its
  // output is not the covering flow's, so it must never be mistaken for a
  // cacheable covering result) and has no further degradation rung: a
  // verification failure throws instead of falling back.
  Engine engine = Engine::kHeuristic;
  bool runPeephole = true;
  // When a block's outputs cannot all stay register-resident within the
  // register limits (e.g. two outputs pinned to one tiny bank), retry with
  // outputs stored back to data memory instead of failing.
  bool outputsToMemoryFallback = true;
  // Last rung of the degradation ladder: when the covering flow runs out of
  // deadline budget before producing any schedule (DeadlineExceeded) or
  // trips a recoverable internal invariant (InternalError), fall back to
  // the sequential baseline generator (src/baseline) instead of failing the
  // compile. The result is valid, simulatable code of lower quality;
  // CompiledBlock::degraded records the quality loss and such results are
  // never stored in the cache. False restores throw-on-failure semantics.
  bool baselineFallback = true;
  // Seed recorded in the pipeline session (CodegenContext) so randomized
  // tooling layered on top of a session stays reproducible.
  uint64_t seed = CodegenContext::kDefaultSeed;
  // Compile-result cache (src/service). When set, every block compile is
  // looked up by canonical fingerprint before any covering work runs, and
  // stored after a miss. The cache may be shared across generators (the
  // avivd daemon shares one). Each block's telemetry counts its own
  // cacheHits/cacheMisses; the cache's totals are the cache's to publish
  // (CacheStats, support/stat_fields.h). Null disables caching.
  std::shared_ptr<ResultCache> cache;
  // Differential output verification (src/verify, DESIGN.md §6.5): replay
  // compiled blocks on the simulator against the reference interpreter
  // before trusting them. A mismatch quarantines a repro artifact, counts
  // into the block's "verify" phase, and degrades to the (re-verified)
  // baseline generator; unverifiable results are never cached. The
  // verifier version salts the cache fingerprint, so verifying sessions
  // never share keys with non-verifying ones and a verifier bump forces
  // fresh compiles. Level kOff preserves pre-verification behaviour.
  VerifyOptions verify;
  // Record the image's first-use-order symbol list into
  // CompiledBlock::symbolNames (forcing the scope-independent recording
  // encode even when neither cache nor verification needs it). External
  // verification harnesses need the list to rebind the image into a
  // private scope (verifyCompiledBlock / writeQuarantineArtifact).
  bool recordSymbolNames = false;
};

struct CompiledBlock {
  CoreResult core;  // winning assignment, graph (post-peephole), schedule
  RegAssignment regs;
  PeepholeStats peephole;
  CodeImage image;
  // True when this block was hydrated from the result cache. core/regs/
  // peephole are then default-constructed (no covering artifacts exist);
  // the image carries everything downstream consumers (asm text, binary
  // assembler, simulator) need.
  bool fromCache = false;
  // True when the AVIV covering flow failed (deadline expiry or recoverable
  // internal error) and this block was produced by the sequential baseline
  // instead (DriverOptions::baselineFallback). The image is valid but its
  // quality is not the covering flow's; degraded results bypass the cache.
  bool degraded = false;
  // True when differential verification caught this block's covering-flow
  // output disagreeing with the reference interpreter. The image is the
  // verified baseline replacement (degraded is also set); a repro artifact
  // was quarantined if a quarantine dir is configured. Never cached.
  bool quarantined = false;
  // Scope-independent form of the compile, recorded only under
  // DriverOptions::recordSymbolNames: `portableImage` carries provisional
  // symbol ordinals whose i-th entry names symbolNames[i] (the cache-entry
  // shape). Feed the pair to verifyCompiledBlock / writeQuarantineArtifact;
  // `image` itself is already rebound into the consumer's scope.
  std::vector<std::string> symbolNames;
  CodeImage portableImage;

  [[nodiscard]] int numInstructions() const {
    return image.numInstructions();
  }
};

// A standalone block served from the result cache without a copy of its
// image (CodeGenerator::compileCachedBlock): the shared, immutable entry,
// read in place, and the address each of its symbol ordinals binds to in
// the consumer's table (bindSymbols, asmgen/encode.h). The entry's image
// and symbol names are the block's scope-independent form; rendered
// through symbolAddrs (CodeImage::appendAsmText), the image prints the
// listing compileBlock's cache hit would.
struct CachedBlock {
  std::shared_ptr<const CacheEntry> entry;
  std::vector<int> symbolAddrs;
};

// One result-cache lookup made before the block's DAG exists. The request
// path looks a standalone block up by its memoized digest
// (CodeGenerator::compileCachedBlock); when that cannot serve, it parses
// and hands the probe to compileBlock, which reuses the answer instead of
// looking the same key up twice.
struct CacheProbe {
  bool looked = false;  // false: no lookup ran (the session has no cache)
  Hash128 key;
  std::shared_ptr<const CacheEntry> entry;  // null: the cache missed
};

// Control-flow instruction covering a block terminator (Section III-C's
// "conventional tree-covering" step — each terminator kind is one pattern).
struct ControlInstr {
  TermKind kind = TermKind::kReturn;
  int targetBlock = -1;   // kJump / kBranch taken side
  int elseBlock = -1;     // kBranch fall-through side
  int condAddr = -1;      // kBranch: data-memory address of the condition
};

struct CompiledProgram {
  std::vector<CompiledBlock> blocks;
  std::vector<ControlInstr> control;  // one per block
  SymbolTable symbols;

  // Block-body instructions plus one control instruction per non-return
  // terminator (the code-size figure a ROM would hold).
  [[nodiscard]] int totalInstructions() const;
};

class CodeGenerator {
 public:
  // The generator owns the pipeline session (CodegenContext): a share of
  // the resolved machine (validated Machine, derived databases,
  // fingerprint), the phase-telemetry tree and the thread pool. Compiled
  // results reference the session's machine: the generator must outlive
  // them. With options.core.jobs > 1, coverBlock covers its candidate
  // assignments in parallel and compileProgram compiles independent blocks
  // in parallel; both are bit-identical to the serial run.
  explicit CodeGenerator(std::shared_ptr<const ResolvedMachine> machine,
                         DriverOptions options = {});
  // Resolves `machine` into a private bundle first, so temporaries (e.g.
  // loadMachine(...)) are safe to pass.
  explicit CodeGenerator(Machine machine, DriverOptions options = {});

  // Compiles one standalone block. The returned structure references
  // `ir` and this generator's machine; both must outlive it. `probe`, when
  // set and looked, is the result-cache lookup a compileCachedBlock call
  // already made for this block; the compile uses it instead of a lookup.
  [[nodiscard]] CompiledBlock compileBlock(const BlockDag& ir);
  [[nodiscard]] CompiledBlock compileBlock(const BlockDag& ir,
                                           SymbolTable& symbols,
                                           const CacheProbe* probe = nullptr);

  // Serves one standalone block from the result cache by its name and its
  // fingerprintDag digest alone: no DAG, no pipeline phase, no image copy.
  // Binds the entry's symbols into `symbols` and counts the hit exactly as
  // compileBlock's cache hit would, or returns nullopt when the session has
  // no cache, the cache misses, or the entry must be verified first;
  // `probe` then holds the lookup for compileBlock.
  [[nodiscard]] std::optional<CachedBlock> compileCachedBlock(
      const std::string& blockName, const Hash128& dagDigest,
      SymbolTable& symbols, CacheProbe& probe);

  // Compiles a whole program; forces outputs-to-memory so inter-block
  // dataflow works. `program` must outlive the result.
  [[nodiscard]] CompiledProgram compileProgram(const Program& program);

  [[nodiscard]] const Machine& machine() const { return ctx_.machine(); }
  [[nodiscard]] const MachineDatabases& databases() const {
    return ctx_.databases();
  }
  [[nodiscard]] const DriverOptions& options() const { return options_; }

  // The pipeline session and its phase-telemetry tree (one subtree per
  // compiled block / program; serialize with telemetry().toJson()).
  [[nodiscard]] CodegenContext& context() { return ctx_; }
  [[nodiscard]] const TelemetryNode& telemetry() const {
    return ctx_.telemetry();
  }

 private:
  CompiledBlock compileBlockWith(const BlockDag& ir, SymbolScope& symbols,
                                 const CodegenOptions& coreOptions,
                                 TelemetryNode& tel,
                                 const CacheProbe* probe = nullptr);
  // The session's result cache; null when off or under the baseline engine.
  [[nodiscard]] ResultCache* resultCache() const;
  [[nodiscard]] Hash128 cacheKey(const Hash128& dagDigest,
                                 const CodegenOptions& coreOptions) const;
  // The verified-bit rule: an entry serves as is unless this block is
  // verified and the entry lacks a current verified bit.
  [[nodiscard]] bool entryServesAsIs(const CacheEntry& entry,
                                     bool verifyThis) const;
  // The one cache-hit routine: binds `entry`'s symbol names into
  // `symbols`, checks that the variables fit below its spill slots, counts
  // the hit and returns the ordinal -> address map.
  std::vector<int> bindCachedEntry(const CacheEntry& entry,
                                   const std::string& blockName,
                                   SymbolScope& symbols, TelemetryNode& tel);
  CoreResult baselineCore(const BlockDag& ir,
                          const CodegenOptions& coreOptions,
                          TelemetryNode& tel, const std::string& why);

  DriverOptions options_;
  CodegenContext ctx_;
  SymbolTable ownSymbols_;
};

// Executes a compiled program on the instruction-level simulator: writes
// `inputs` into data memory, runs block bodies and control instructions
// until a return, and returns the final values of every symbol-table
// variable. Defined here (not in sim/) because it needs ControlInstr.
[[nodiscard]] std::map<std::string, int64_t> simulateProgram(
    const Machine& machine, const CompiledProgram& compiled,
    const std::map<std::string, int64_t>& inputs,
    size_t maxBlockExecutions = 10000, size_t* totalCycles = nullptr);

}  // namespace aviv
