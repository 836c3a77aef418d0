#include "verify/quarantine.h"

#include "ir/emit.h"
#include "ir/parser.h"
#include "isdl/emit.h"
#include "isdl/parser.h"
#include "service/cache.h"
#include "support/failpoint.h"
#include "support/hash.h"

namespace aviv {

std::string writeQuarantineArtifact(const std::string& quarantineDir,
                                    const Machine& machine,
                                    const BlockDag& dag,
                                    const CodeImage& image,
                                    const std::vector<std::string>& symbolNames,
                                    const VerifyOptions& options,
                                    const VerifyReport& report) {
  if (quarantineDir.empty()) return "";
  try {
    FailPoints::instance().maybeThrow("quarantine-write");

    CacheEntry entry;
    entry.blockName = dag.name();
    entry.machineName = machine.name();
    entry.symbolNames = symbolNames;
    entry.verified = false;
    entry.verifierVersion = options.verifierVersion;
    entry.image = image;
    const std::string payload = serializeCacheEntry(entry);

    // Content-addressed directory name: identical failures land in the
    // same bundle; distinct images never collide.
    Hasher h;
    h.str(payload);
    return writeBundle(
        BundleKind::kMiscompile,
        quarantineDir + "/" + machine.name() + "-" + dag.name() + "-" +
            h.digest().hex(),
        {{kBundleMachineFile, emitMachineText(machine)},
         {kBundleBlockFile, emitBlockText(dag)}, {kBundleEntryFile, payload},
         {kBundleAsmFile, image.asmText(machine)}},
        {{"machine", machine.name()}, {"block", dag.name()},
         {"seed", std::to_string(options.seed)},
         {"vectors", std::to_string(options.vectors)},
         {"verifierVersion", std::to_string(options.verifierVersion)},
         {"detail", report.detail()}});
  } catch (...) {
    // Best-effort: a failed quarantine write must not mask the original
    // verification failure the caller is handling.
    return "";
  }
}

ReplayResult replayQuarantineArtifact(const ReproBundle& bundle) {
  VerifyOptions options;
  options.level = VerifyLevel::kAll;
  options.seed = bundle.number<uint64_t>("seed");
  options.vectors = bundle.number<int>("vectors");
  options.verifierVersion = bundle.number<uint32_t>("verifierVersion");
  const Machine machine =
      parseMachine(bundle.read(kBundleMachineFile), kBundleMachineFile);
  const BlockDag dag = parseBlock(bundle.read(kBundleBlockFile));
  const CacheEntry entry =
      deserializeCacheEntry(bundle.read(kBundleEntryFile));

  ReplayResult result;
  result.report = verifyCompiledBlock(machine, dag, entry.image,
                                      entry.symbolNames, options);
  result.reproduced = result.report.checked && !result.report.passed;
  result.detail = result.report.detail();
  return result;
}

}  // namespace aviv
