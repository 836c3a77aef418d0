#include "fuzz/repro.h"

#include "support/error.h"
#include "support/failpoint.h"

namespace aviv {

std::string writeFuzzRepro(const std::string& dir, const FuzzInput& input,
                           const DiffOptions& options,
                           const DiffResult& result,
                           const BundleEntries& provenance) {
  BundleEntries meta = provenance;
  meta.insert(
      meta.end(),
      {{"blockFile", input.blockFile},
       {"vectors", std::to_string(options.vectors)},
       {"vectorSeed", std::to_string(options.vectorSeed)},
       {"timeLimitSeconds", std::to_string(options.timeLimitSeconds)},
       {"failpoints", result.failpoints},
       {"verdict", verdictName(result.verdict)},
       {"signature", result.signature},
       {"detail", result.detail}});
  if (!result.quarantinePath.empty())
    meta.emplace_back("quarantine", result.quarantinePath);
  BundleEntries files = {{kBundleMachineFile, input.machineText}};
  if (!input.blockFile.empty())
    files.emplace_back(input.blockFile, input.blockText);
  return writeBundle(BundleKind::kFuzz, dir, files, meta);
}

FuzzRepro loadFuzzRepro(const ReproBundle& bundle) {
  FuzzRepro repro;
  repro.options.vectors = bundle.number<int>("vectors");
  repro.options.vectorSeed = bundle.number<uint64_t>("vectorSeed");
  repro.options.timeLimitSeconds = bundle.number<double>("timeLimitSeconds");
  repro.failpoints = bundle.text("failpoints");
  repro.signature = bundle.text("signature");
  repro.input.machineText = bundle.read(kBundleMachineFile);
  const std::string& blockFile = bundle.text("blockFile");
  if (blockFile != kBundleBlockFile && blockFile != kBundleMiniCFile &&
      !blockFile.empty())
    throw Error(bundle.dir() + "/meta.txt: blockFile '" + blockFile +
                "' is not " + kBundleBlockFile + ", " + kBundleMiniCFile +
                " or empty");
  repro.input.blockFile = blockFile;
  if (!blockFile.empty()) repro.input.blockText = bundle.read(blockFile);
  return repro;
}

BundleReplay replayFuzzRepro(const FuzzRepro& repro) {
  const ScopedFailPoints failpoints(repro.failpoints);
  const DiffResult result = runDifferential(repro.input, repro.options);
  BundleReplay replay{result.signature == repro.signature,
                      "signature " + result.signature};
  if (!result.detail.empty()) replay.detail += " (" + result.detail + ")";
  return replay;
}

}  // namespace aviv
