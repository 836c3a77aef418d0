#include "service/fingerprint.h"

#include <type_traits>

namespace aviv {

Hash128 fingerprintDag(const BlockDag& dag) {
  Hasher h;
  h.str("dag");
  // The block name lands in the assembly listing header, so it is output-
  // relevant.
  h.str(dag.name());
  h.u64(dag.size());
  for (const DagNode& node : dag.nodes()) {
    h.u8(static_cast<uint8_t>(node.op));
    if (node.op == Op::kConst) h.i64(node.value);
    if (node.op == Op::kInput) h.str(node.name);
    h.u64(node.operands.size());
    for (NodeId operand : node.operands) h.u32(operand);
  }
  h.u64(dag.outputs().size());
  for (const auto& [name, id] : dag.outputs()) {
    h.str(name);
    h.u32(id);
  }
  return h.digest();
}

Hash128 fingerprintOptions(const CodegenOptions& core, bool runPeephole,
                           bool outputsToMemoryFallback) {
  Hasher h;
  h.str("options");
  core.forEachFingerprintField([&h](const char* name, auto value) {
    h.str(name);
    using T = decltype(value);
    if constexpr (std::is_same_v<T, bool>) {
      h.boolean(value);
    } else if constexpr (std::is_floating_point_v<T>) {
      h.f64(value);
    } else if constexpr (std::is_unsigned_v<T>) {
      h.u64(static_cast<uint64_t>(value));
    } else {
      h.i64(static_cast<int64_t>(value));
    }
  });
  h.str("runPeephole");
  h.boolean(runPeephole);
  h.str("outputsToMemoryFallback");
  h.boolean(outputsToMemoryFallback);
  return h.digest();
}

Hash128 compileFingerprint(const CodegenContext& ctx, const BlockDag& dag,
                           const CodegenOptions& core, bool runPeephole,
                           bool outputsToMemoryFallback,
                           uint32_t verifierSalt) {
  return compileFingerprint(ctx, fingerprintDag(dag), core, runPeephole,
                            outputsToMemoryFallback, verifierSalt);
}

Hash128 compileFingerprint(const CodegenContext& ctx, const Hash128& dagFp,
                           const CodegenOptions& core, bool runPeephole,
                           bool outputsToMemoryFallback,
                           uint32_t verifierSalt) {
  const Hash128& machineFp = ctx.machineFingerprint();
  const Hash128 optionsFp =
      fingerprintOptions(core, runPeephole, outputsToMemoryFallback);
  Hasher h;
  h.str("aviv-compile");
  h.u32(kFingerprintVersion);
  h.u32(verifierSalt);
  h.u64(machineFp.hi).u64(machineFp.lo);
  h.u64(dagFp.hi).u64(dagFp.lo);
  h.u64(optionsFp.hi).u64(optionsFp.lo);
  return h.digest();
}

}  // namespace aviv
