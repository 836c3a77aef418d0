#include "fuzz/diff.h"

#include <exception>
#include <initializer_list>
#include <utility>
#include <vector>

#include "driver/codegen.h"
#include "frontend/minic.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/repro_bundle.h"
#include "verify/quarantine.h"
#include "verify/verify.h"

namespace aviv {

namespace {

// One stage's verdict: its worst side's, with that side's detail. The
// signature names the side, or `both` when two sides share the verdict.
DiffResult verdictOf(
    std::initializer_list<std::pair<const char*, const SideOutcome*>> sides) {
  DiffResult result;
  for (const auto& [side, outcome] : sides) {
    if (outcome->verdict < result.verdict) continue;
    const bool tie = outcome->verdict == result.verdict;
    if (!tie) result.detail = outcome->detail;
    result.verdict = outcome->verdict;
    result.signature =
        std::string(verdictName(result.verdict)) + ":" + (tie ? "both" : side);
  }
  if (result.verdict == DiffVerdict::kPass) result.signature = "pass";
  return result;
}

// One engine's compile, reduced to scope-independent images (one per
// program block). The CodeGenerator (and the CompiledBlocks referencing
// its session) dies here; only copies survive.
struct SideImage {
  SideOutcome outcome;
  std::vector<CodeImage> images;
  std::vector<std::vector<std::string>> symbolNames;
  int failedBlock = -1;  // first block the verifier rejected
  VerifyReport report;   // that block's report
};

SideImage compileOn(Engine engine, const Machine& machine,
                    const Program& program, const DiffOptions& options) {
  SideImage side;
  DriverOptions dopts;
  dopts.engine = engine;
  dopts.recordSymbolNames = true;
  // No safety nets: the harness wants the raw engine outcome, not the
  // ladder's recovery of it.
  dopts.baselineFallback = false;
  dopts.verify.level = VerifyLevel::kOff;
  dopts.core.timeLimitSeconds = options.timeLimitSeconds;
  // Tighter ceilings than production: a hostile generated input should
  // reject in milliseconds, not grind through the default gigabyte budget.
  dopts.core.maxSndNodes = 200'000;
  dopts.core.maxSndBytes = 64ull << 20;
  dopts.core.maxTotalCliques = 500'000;
  side.outcome = guarded([&] {
    CodeGenerator gen(machine, dopts);
    std::vector<CompiledBlock> blocks;
    if (program.numBlocks() == 1)
      blocks.push_back(gen.compileBlock(program.block(0)));
    else
      blocks = gen.compileProgram(program).blocks;
    for (CompiledBlock& block : blocks) {
      side.images.push_back(std::move(block.portableImage));
      side.symbolNames.push_back(std::move(block.symbolNames));
    }
  });
  return side;
}

// Verifies a compiled side block by block; the first mismatch makes it a
// kMiscompile.
void verifySide(const Machine& machine, const Program& program,
                const VerifyOptions& vopts, SideImage& side) {
  if (side.outcome.verdict != DiffVerdict::kPass) return;
  for (size_t i = 0; i < side.images.size(); ++i) {
    side.report = verifyCompiledBlock(machine, program.block(i),
                                      side.images[i], side.symbolNames[i],
                                      vopts);
    if (side.report.passed) continue;
    side.failedBlock = static_cast<int>(i);
    side.outcome = {DiffVerdict::kMiscompile, side.report.detail()};
    return;
  }
}

}  // namespace

const char* verdictName(DiffVerdict verdict) {
  switch (verdict) {
    case DiffVerdict::kPass: return "pass";
    case DiffVerdict::kReject: return "reject";
    case DiffVerdict::kCrash: return "crash";
    case DiffVerdict::kEscape: return "escape";
    case DiffVerdict::kMiscompile: return "miscompile";
  }
  return "?";
}

bool isFailureVerdict(DiffVerdict verdict) {
  return verdict >= DiffVerdict::kMiscompile;
}

Program singleBlockProgram(BlockDag dag) {
  Program program(dag.name());
  program.addBlock(std::move(dag), Terminator{});
  return program;
}

SideOutcome guarded(const std::function<void()>& body) {
  try {
    body();
    return {};
  } catch (const InternalError& e) {
    return {DiffVerdict::kCrash, e.what()};
  } catch (const Error& e) {
    // ParseError, ResourceLimitExceeded, DeadlineExceeded (surfaced as
    // Error), unsatisfiable-input errors: the clean rejection taxonomy.
    return {DiffVerdict::kReject, e.what()};
  } catch (const std::exception& e) {
    return {DiffVerdict::kEscape, e.what()};
  } catch (...) {
    return {DiffVerdict::kEscape, "non-standard exception"};
  }
}

ParsedInput parseInput(const FuzzInput& input) {
  ParsedInput parsed;
  parsed.machine = parseMachine(input.machineText, kBundleMachineFile);
  if (input.blockFile == kBundleMiniCFile)
    parsed.program = parseMiniC(input.blockText, input.blockFile).program;
  else if (!input.blockFile.empty())
    parsed.program = parseProgram(input.blockText, input.blockFile);
  return parsed;
}

DiffResult runDifferential(const FuzzInput& input,
                           const DiffOptions& options) {
  const FailPoints::State before = FailPoints::instance().save();
  ParsedInput parsed;
  const SideOutcome parse = guarded([&] {
    // Planted fault: a parser invariant tripping, on demand.
    if (FailPoints::instance().shouldFail("fuzz-parse-internal"))
      throw InternalError("fail point 'fuzz-parse-internal' fired");
    parsed = parseInput(input);
  });
  DiffResult result = verdictOf({{"parse", &parse}});
  if (parse.verdict == DiffVerdict::kPass && !input.blockFile.empty())
    result = runDifferential(parsed.machine, parsed.program, options);
  result.failpoints = FailPoints::instance().firedSince(before);
  return result;
}

DiffResult runDifferential(const Machine& machine, const Program& program,
                           const DiffOptions& options) {
  SideImage heur = compileOn(Engine::kHeuristic, machine, program, options);
  SideImage base = compileOn(Engine::kBaseline, machine, program, options);

  // Planted fault: corrupt the baseline image between compile and verify,
  // manufacturing an engine disagreement the pipeline must catch.
  if (base.outcome.verdict == DiffVerdict::kPass &&
      FailPoints::instance().shouldFail("fuzz-engine-disagree"))
    corruptImageForTesting(base.images.front());

  VerifyOptions vopts;
  vopts.level = VerifyLevel::kAll;
  vopts.vectors = options.vectors;
  vopts.seed = options.vectorSeed;
  verifySide(machine, program, vopts, heur);
  verifySide(machine, program, vopts, base);

  DiffResult result = verdictOf(
      {{"heuristic", &heur.outcome}, {"baseline", &base.outcome}});
  if (result.verdict == DiffVerdict::kMiscompile) {
    // The failing image as a kind=miscompile bundle ("" when
    // quarantineDir is empty), replayable by `fuzz_gen --replay`.
    const SideImage& bad = heur.failedBlock >= 0 ? heur : base;
    const auto block = static_cast<size_t>(bad.failedBlock);
    result.quarantinePath = writeQuarantineArtifact(
        options.quarantineDir, machine, program.block(block),
        bad.images[block], bad.symbolNames[block], vopts, bad.report);
  }
  return result;
}

}  // namespace aviv
