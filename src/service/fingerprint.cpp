#include "service/fingerprint.h"

#include <array>
#include <bit>
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

namespace {

constexpr size_t kOptionFields = [] {
  size_t n = 0;
  CodegenOptions{}.forEachFingerprintField([&n](const char*, auto) { ++n; });
  return n;
}();

// Every hashed option as its 64-bit pattern, then the two driver flags.
// Floating-point fields compare by bit pattern, as Hasher::f64 hashes them,
// so 0.0 and -0.0 (or two NaNs) never share a memo entry they would not
// share a digest with.
using OptionBits = std::array<uint64_t, kOptionFields + 2>;

OptionBits optionBits(const CodegenOptions& core, bool runPeephole,
                      bool outputsToMemoryFallback) {
  OptionBits bits{};
  size_t i = 0;
  core.forEachFingerprintField([&](const char*, auto value) {
    if constexpr (std::is_floating_point_v<decltype(value)>)
      bits[i++] = std::bit_cast<uint64_t>(static_cast<double>(value));
    else
      bits[i++] = static_cast<uint64_t>(value);
  });
  bits[i++] = runPeephole ? 1 : 0;
  bits[i] = outputsToMemoryFallback ? 1 : 0;
  return bits;
}

Hash128 hashOptions(const CodegenOptions& core, bool runPeephole,
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

}  // namespace

Hash128 fingerprintOptions(const CodegenOptions& core, bool runPeephole,
                           bool outputsToMemoryFallback) {
  // A serving thread sees the same few option sets again and again, so it
  // keeps its last digest, keyed by the values the digest hashes: a memo
  // hit returns exactly what hashOptions would.
  struct Last {
    bool valid = false;
    OptionBits bits{};
    Hash128 digest;
  };
  thread_local Last last;
  const OptionBits bits =
      optionBits(core, runPeephole, outputsToMemoryFallback);
  if (!last.valid || last.bits != bits)
    last = {true, bits,
            hashOptions(core, runPeephole, outputsToMemoryFallback)};
  return last.digest;
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
