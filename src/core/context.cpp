#include "core/context.h"

#include "support/error.h"

namespace aviv {

CodegenContext::CodegenContext(std::shared_ptr<const ResolvedMachine> machine,
                               CodegenOptions options, uint64_t seed)
    : resolved_(std::move(machine)),
      options_(options),
      seed_(seed),
      telemetry_("codegen") {
  telemetry_.setCounter("seed", static_cast<int64_t>(seed_));
  telemetry_.setCounter("jobs", jobs());
  deadline_.arm(options_.timeLimitSeconds);
  if (options_.jobs > 1)
    pool_ = std::make_unique<ThreadPool>(options_.jobs);
}

CodegenContext::CodegenContext(Machine machine, CodegenOptions options,
                               uint64_t seed)
    : CodegenContext(
          std::make_shared<const ResolvedMachine>(std::move(machine)),
          options, seed) {}

void CodegenContext::setMachineFingerprint(Hash128 fp) const {
  if (fp != resolved_->fingerprint)
    throw InternalError("machine fingerprint disagrees with the session's "
                        "resolved machine '" + machine().name() + "'");
}

}  // namespace aviv
