#include "fuzz/repro.h"

#include "ir/emit.h"
#include "ir/parser.h"
#include "isdl/emit.h"
#include "isdl/parser.h"
#include "support/failpoint.h"

namespace aviv {

std::string writeFuzzRepro(const std::string& outDir, const Machine& machine,
                           const BlockDag& dag, const FuzzCase& info,
                           const DiffOptions& options,
                           const DiffResult& result) {
  BundleEntries meta = {
      {"machine", machine.name()}, {"block", dag.name()},
      {"family", familyName(info.family)},
      {"machineSeed", std::to_string(info.machineSeed)},
      {"blockSeed", std::to_string(info.blockSeed)},
      {"iteration", std::to_string(info.iteration)},
      {"vectors", std::to_string(options.vectors)},
      {"vectorSeed", std::to_string(options.vectorSeed)},
      {"timeLimitSeconds", std::to_string(options.timeLimitSeconds)},
      {"failpoints", info.failpoints}, {"verdict", verdictName(result.verdict)},
      {"signature", result.signature}, {"detail", result.detail}};
  if (!result.quarantinePath.empty())
    meta.emplace_back("quarantine", result.quarantinePath);
  return writeBundle(BundleKind::kFuzz,
                     outDir + "/" + machine.name() + "-" + dag.name(),
                     {{kBundleMachineFile, emitMachineText(machine)},
                      {kBundleBlockFile, emitBlockText(dag)}},
                     meta);
}

FuzzRepro loadFuzzRepro(const ReproBundle& bundle) {
  FuzzRepro repro;
  repro.info.family = familyFromName(bundle.text("family"));
  repro.info.machineSeed = bundle.number<uint64_t>("machineSeed");
  repro.info.blockSeed = bundle.number<uint64_t>("blockSeed");
  repro.info.iteration = bundle.number<int>("iteration");
  repro.info.failpoints = bundle.text("failpoints");
  repro.options.vectors = bundle.number<int>("vectors");
  repro.options.vectorSeed = bundle.number<uint64_t>("vectorSeed");
  repro.options.timeLimitSeconds = bundle.number<double>("timeLimitSeconds");
  repro.signature = bundle.text("signature");
  repro.machine =
      parseMachine(bundle.read(kBundleMachineFile), kBundleMachineFile);
  repro.dag = parseBlock(bundle.read(kBundleBlockFile));
  return repro;
}

FuzzReplayResult replayFuzzRepro(const FuzzRepro& repro) {
  FuzzReplayResult replay;
  if (!repro.info.failpoints.empty())
    FailPoints::instance().configure(repro.info.failpoints);
  try {
    replay.result = runDifferential(repro.machine, repro.dag, repro.options);
  } catch (...) {
    if (!repro.info.failpoints.empty()) FailPoints::instance().clear();
    throw;
  }
  if (!repro.info.failpoints.empty()) FailPoints::instance().clear();
  replay.reproduced = replay.result.signature == repro.signature;
  replay.detail = "signature " + replay.result.signature;
  if (!replay.result.detail.empty())
    replay.detail += " (" + replay.result.detail + ")";
  return replay;
}

}  // namespace aviv
