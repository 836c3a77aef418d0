#include "fuzz/diff.h"

#include <utility>
#include <vector>

#include "driver/codegen.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "verify/quarantine.h"
#include "verify/verify.h"

namespace aviv {

namespace {

// One engine's compile, reduced to its scope-independent image. The
// CodeGenerator (and the CompiledBlock referencing its session) dies here;
// only copies survive.
struct SideImage {
  EngineOutcome outcome;
  CodeImage image;
  std::vector<std::string> symbolNames;
};

SideImage compileOn(Engine engine, const Machine& machine, const BlockDag& dag,
                    const DiffOptions& options) {
  SideImage side;
  DriverOptions dopts;
  dopts.engine = engine;
  dopts.recordSymbolNames = true;
  // No safety nets: the harness wants the raw engine outcome, not the
  // ladder's recovery of it.
  dopts.baselineFallback = false;
  dopts.verify.level = VerifyLevel::kOff;
  dopts.core = CodegenOptions::heuristicsOn();
  dopts.core.timeLimitSeconds = options.timeLimitSeconds;
  // Tighter ceilings than production: a hostile generated input should
  // reject in milliseconds, not grind through the default gigabyte budget.
  dopts.core.maxSndNodes = 200'000;
  dopts.core.maxSndBytes = 64ull << 20;
  dopts.core.maxTotalCliques = 500'000;
  try {
    CodeGenerator gen(machine, dopts);
    CompiledBlock block = gen.compileBlock(dag);
    side.outcome.compiled = true;
    side.image = std::move(block.portableImage);
    side.symbolNames = std::move(block.symbolNames);
  } catch (const InternalError& e) {
    side.outcome.crashed = true;
    side.outcome.detail = e.what();
  } catch (const Error& e) {
    // ResourceLimitExceeded, DeadlineExceeded (surfaced as Error),
    // unsatisfiable-input errors: the clean rejection taxonomy.
    side.outcome.rejected = true;
    side.outcome.detail = e.what();
  } catch (const std::exception& e) {
    side.outcome.escaped = true;
    side.outcome.detail = e.what();
  } catch (...) {
    side.outcome.escaped = true;
    side.outcome.detail = "non-standard exception";
  }
  return side;
}

std::string sideTag(bool heuristic, bool baseline) {
  if (heuristic && baseline) return "both";
  return heuristic ? "heuristic" : "baseline";
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
  return verdict == DiffVerdict::kCrash || verdict == DiffVerdict::kEscape ||
         verdict == DiffVerdict::kMiscompile;
}

DiffResult runDifferential(const Machine& machine, const BlockDag& dag,
                           const DiffOptions& options) {
  DiffResult result;
  SideImage heur = compileOn(Engine::kHeuristic, machine, dag, options);
  SideImage base = compileOn(Engine::kBaseline, machine, dag, options);

  // Planted fault: corrupt the baseline image between compile and verify,
  // manufacturing an engine disagreement the pipeline must catch.
  if (base.outcome.compiled &&
      FailPoints::instance().shouldFail("fuzz-engine-disagree")) {
    corruptImageForTesting(base.image);
    result.plantedFault = true;
  }

  VerifyOptions vopts;
  vopts.level = VerifyLevel::kAll;
  vopts.vectors = options.vectors;
  vopts.seed = options.vectorSeed;
  VerifyReport heurReport, baseReport;
  if (heur.outcome.compiled) {
    heurReport =
        verifyCompiledBlock(machine, dag, heur.image, heur.symbolNames, vopts);
    heur.outcome.verifyFailed = !heurReport.passed;
    if (heur.outcome.verifyFailed) heur.outcome.detail = heurReport.detail();
  }
  if (base.outcome.compiled) {
    baseReport =
        verifyCompiledBlock(machine, dag, base.image, base.symbolNames, vopts);
    base.outcome.verifyFailed = !baseReport.passed;
    if (base.outcome.verifyFailed) base.outcome.detail = baseReport.detail();
  }

  result.heuristic = heur.outcome;
  result.baseline = base.outcome;

  // Failure priority: escape > crash > miscompile — an escape IS more
  // alarming than the invariant that fired on the same input.
  if (heur.outcome.escaped || base.outcome.escaped) {
    result.verdict = DiffVerdict::kEscape;
    result.signature = std::string("escape:") +
                       sideTag(heur.outcome.escaped, base.outcome.escaped);
    result.detail = heur.outcome.escaped ? heur.outcome.detail
                                         : base.outcome.detail;
  } else if (heur.outcome.crashed || base.outcome.crashed) {
    result.verdict = DiffVerdict::kCrash;
    result.signature = std::string("crash:") +
                       sideTag(heur.outcome.crashed, base.outcome.crashed);
    result.detail =
        heur.outcome.crashed ? heur.outcome.detail : base.outcome.detail;
  } else if (heur.outcome.verifyFailed || base.outcome.verifyFailed) {
    result.verdict = DiffVerdict::kMiscompile;
    result.signature =
        std::string("miscompile:") +
        sideTag(heur.outcome.verifyFailed, base.outcome.verifyFailed);
    result.detail = heur.outcome.verifyFailed ? heur.outcome.detail
                                              : base.outcome.detail;
    // The failing image as a kind=miscompile bundle ("" when
    // quarantineDir is empty), replayable by `fuzz_gen --replay`.
    const bool heurFailed = heur.outcome.verifyFailed;
    result.quarantinePath = writeQuarantineArtifact(
        options.quarantineDir, machine, dag,
        heurFailed ? heur.image : base.image,
        heurFailed ? heur.symbolNames : base.symbolNames, vopts,
        heurFailed ? heurReport : baseReport);
  } else if (heur.outcome.rejected || base.outcome.rejected) {
    result.verdict = DiffVerdict::kReject;
    result.signature = std::string("reject:") +
                       sideTag(heur.outcome.rejected, base.outcome.rejected);
    result.detail = heur.outcome.rejected ? heur.outcome.detail
                                          : base.outcome.detail;
  } else {
    result.verdict = DiffVerdict::kPass;
    result.signature = "pass";
  }
  return result;
}

}  // namespace aviv
