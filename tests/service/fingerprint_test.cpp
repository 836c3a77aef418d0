// Canonicalization rules of the compile fingerprint (service/fingerprint.h):
// everything that can change the compiled output must move the hash, and the
// documented exclusions (jobs, session seed) must NOT move it — they are what
// make one cache entry replayable across worker counts and sessions.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/context.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "service/fingerprint.h"
#include "verify/verify.h"

namespace aviv {
namespace {

TEST(FingerprintMachine, StableAcrossLoads) {
  EXPECT_EQ(fingerprintMachine(loadMachine("arch1")),
            fingerprintMachine(loadMachine("arch1")));
}

TEST(FingerprintMachine, DistinguishesMachines) {
  const Hash128 arch1 = fingerprintMachine(loadMachine("arch1"));
  EXPECT_NE(arch1, fingerprintMachine(loadMachine("arch2")));
  // Structural edits matter even when the name is unchanged: register-file
  // sizes feed straight into covering and register allocation.
  EXPECT_NE(arch1,
            fingerprintMachine(loadMachine("arch1").withRegisterCount(2)));
}

TEST(FingerprintDag, StableAcrossParses) {
  EXPECT_EQ(fingerprintDag(loadBlock("ex1")), fingerprintDag(loadBlock("ex1")));
}

TEST(FingerprintDag, DistinguishesBlocks) {
  EXPECT_NE(fingerprintDag(loadBlock("ex1")), fingerprintDag(loadBlock("fig2")));
}

TEST(FingerprintDag, ConstantValueMatters) {
  auto dagFor = [](const char* text) {
    return fingerprintDag(parseProgram(text, "t").block(0));
  };
  const Hash128 a = dagFor("block t { input x; output y; y = x + 1; }");
  const Hash128 b = dagFor("block t { input x; output y; y = x + 2; }");
  EXPECT_NE(a, b);
}

// Every field forEachFingerprintField enumerates must move the options
// fingerprint. The mutator list below is cross-checked against the visitor's
// field count, so adding a field to the visitor without adding a mutation
// here fails the test.
TEST(FingerprintOptions, EveryEnumeratedFieldChangesTheHash) {
  struct Mutation {
    const char* field;
    std::function<void(CodegenOptions&)> apply;
  };
  const std::vector<Mutation> mutations = {
      {"assignPruneIncremental", [](auto& o) { o.assignPruneIncremental = !o.assignPruneIncremental; }},
      {"assignPruneSlack", [](auto& o) { o.assignPruneSlack += 0.5; }},
      {"assignBeamWidth", [](auto& o) { o.assignBeamWidth += 1; }},
      {"assignKeepBest", [](auto& o) { o.assignKeepBest += 1; }},
      {"maxAssignments", [](auto& o) { o.maxAssignments += 1; }},
      {"registerAwareAssignment", [](auto& o) { o.registerAwareAssignment = !o.registerAwareAssignment; }},
      {"enableComplexPatterns", [](auto& o) { o.enableComplexPatterns = !o.enableComplexPatterns; }},
      {"cliqueLevelWindow", [](auto& o) { o.cliqueLevelWindow += 1; }},
      {"coverLookahead", [](auto& o) { o.coverLookahead = !o.coverLookahead; }},
      {"timeLimitSeconds", [](auto& o) { o.timeLimitSeconds += 1.0; }},
      {"constantsInMemory", [](auto& o) { o.constantsInMemory = !o.constantsInMemory; }},
      {"outputsToMemory", [](auto& o) { o.outputsToMemory = !o.outputsToMemory; }},
      {"maxSndNodes", [](auto& o) { o.maxSndNodes += 1; }},
      {"maxSndBytes", [](auto& o) { o.maxSndBytes += 1; }},
      {"maxTotalCliques", [](auto& o) { o.maxTotalCliques += 1; }},
  };

  size_t enumerated = 0;
  CodegenOptions probe;
  probe.forEachFingerprintField([&](const char*, auto) { ++enumerated; });
  ASSERT_EQ(mutations.size(), enumerated)
      << "forEachFingerprintField and this test enumerate different field "
         "sets; update both together";

  const Hash128 base = fingerprintOptions(CodegenOptions{}, true, true);
  for (const Mutation& m : mutations) {
    CodegenOptions mutated;
    m.apply(mutated);
    EXPECT_NE(base, fingerprintOptions(mutated, true, true))
        << "field " << m.field << " does not move the fingerprint";
  }
}

TEST(FingerprintOptions, DriverFlagsChangeTheHash) {
  const CodegenOptions opts;
  const Hash128 base = fingerprintOptions(opts, true, true);
  EXPECT_NE(base, fingerprintOptions(opts, false, true));
  EXPECT_NE(base, fingerprintOptions(opts, true, false));
}

TEST(FingerprintOptions, JobsIsExcluded) {
  CodegenOptions serial;
  serial.jobs = 1;
  CodegenOptions parallel;
  parallel.jobs = 8;
  // Parallel covering is bit-identical to serial, so a cache populated at
  // any worker count must replay at any other.
  EXPECT_EQ(fingerprintOptions(serial, true, true),
            fingerprintOptions(parallel, true, true));
}

TEST(CompileFingerprint, SeedIsExcludedAndMemoAgreesWithLocal) {
  const Machine machine = loadMachine("arch1");
  const BlockDag dag = loadBlock("ex1");
  const CodegenOptions opts;

  CodegenContext plain(machine, opts, /*seed=*/1);
  CodegenContext seeded(machine, opts, /*seed=*/999);
  // A session sharing a resolved machine keys exactly like one that
  // resolved a private copy.
  const auto shared = std::make_shared<const ResolvedMachine>(machine);
  CodegenContext memoized(shared, opts, /*seed=*/1);
  EXPECT_EQ(&memoized.machine(), &shared->machine);
  EXPECT_EQ(memoized.machineFingerprint(), fingerprintMachine(machine));

  const Hash128 a = compileFingerprint(plain, dag, opts, true, true);
  EXPECT_EQ(a, compileFingerprint(seeded, dag, opts, true, true));
  EXPECT_EQ(a, compileFingerprint(memoized, dag, opts, true, true));
  EXPECT_FALSE(a.isZero());

  // The retained setter only checks agreement with the resolved machine.
  memoized.setMachineFingerprint(fingerprintMachine(machine));
  EXPECT_THROW(
      memoized.setMachineFingerprint(fingerprintMachine(loadMachine("arch2"))),
      InternalError);
}

TEST(CompileFingerprint, ComponentsAreNotInterchangeable) {
  const Machine arch1 = loadMachine("arch1");
  const Machine arch2 = loadMachine("arch2");
  const BlockDag ex1 = loadBlock("ex1");
  const BlockDag fig2 = loadBlock("fig2");
  const CodegenOptions opts;

  CodegenContext c1(arch1, opts, 1);
  CodegenContext c2(arch2, opts, 1);
  const Hash128 base = compileFingerprint(c1, ex1, opts, true, true);
  EXPECT_NE(base, compileFingerprint(c2, ex1, opts, true, true));
  EXPECT_NE(base, compileFingerprint(c1, fig2, opts, true, true));
  EXPECT_NE(base,
            compileFingerprint(c1, ex1, CodegenOptions::heuristicsOff(), true,
                               true));
}

// The request path keys a memoized block by its fingerprintDag digest:
// the digest overload must be the BlockDag overload, salt for salt.
TEST(CompileFingerprint, DigestOverloadEqualsDagOverload) {
  const CodegenOptions opts;
  CodegenContext ctx(loadMachine("dsp16"), opts, 1);
  for (const char* name : {"ex1", "fig2", "dct4"}) {
    const BlockDag dag = loadBlock(name);
    for (const uint32_t salt : {0u, 7u}) {
      EXPECT_EQ(compileFingerprint(ctx, fingerprintDag(dag), opts, true, false,
                                   salt),
                compileFingerprint(ctx, dag, opts, true, false, salt))
          << name << " salt " << salt;
    }
  }
}

// Cache keys of arch1/ex1, captured before fingerprintOptions kept a
// per-thread memo: a key that moves strands every cached entry. The option
// sets alternate on this thread, so a memo entry served for the wrong
// options fails here.
TEST(CompileFingerprint, PinnedKeysSurviveAlternatingOptions) {
  CodegenOptions outputsMem;
  outputsMem.outputsToMemory = true;
  const struct {
    const char* name;
    CodegenOptions options;
  } optionSets[] = {{"default", CodegenOptions{}},
                    {"heuristicsOff", CodegenOptions::heuristicsOff()},
                    {"outputs-mem", outputsMem}};
  const struct {
    const char* name;
    uint32_t salt;  // the verifier salt the driver passes
  } verifyLevels[] = {{"verify=off", 0u}, {"verify=all", kVerifierVersion}};
  const char* const pinned[2][3] = {
      {"fec9402f191017c7625f324b97ab1d3a", "7be246ac65a27c3ade8020b79ba2f421",
       "bfe27361cd415a27256aeec09031885a"},
      {"abf09471a75e6b9a23ddeb610e40c115", "86319b9f5d386667dd3ba9a7dd89a5fc",
       "0a639579d22af0b87e0cee386442fa0b"},
  };
  const BlockDag dag = loadBlock("ex1");
  CodegenContext ctx(loadMachine("arch1"), CodegenOptions{}, 1);
  for (int round = 0; round < 3; ++round)
    for (size_t v = 0; v < 2; ++v)
      for (size_t o = 0; o < 3; ++o)
        EXPECT_EQ(compileFingerprint(ctx, dag, optionSets[o].options, true,
                                     true, verifyLevels[v].salt)
                      .hex(),
                  pinned[v][o])
            << optionSets[o].name << " " << verifyLevels[v].name
            << " round " << round;
}

// The options memo compares doubles by bit pattern, as the hash does:
// 0.0 and -0.0 hash differently, so alternating them must too.
TEST(FingerprintOptions, MemoKeepsSignedZerosApart) {
  CodegenOptions positive;
  positive.timeLimitSeconds = 0.0;
  CodegenOptions negative;
  negative.timeLimitSeconds = -0.0;
  const Hash128 a = fingerprintOptions(positive, true, true);
  const Hash128 b = fingerprintOptions(negative, true, true);
  EXPECT_NE(a, b);
  EXPECT_EQ(fingerprintOptions(positive, true, true), a);
  EXPECT_EQ(fingerprintOptions(negative, true, true), b);
  // The two driver flags are part of the memo key too.
  EXPECT_NE(fingerprintOptions(positive, false, true), a);
  EXPECT_NE(fingerprintOptions(positive, true, false), a);
  EXPECT_EQ(fingerprintOptions(positive, true, true), a);
}

}  // namespace
}  // namespace aviv
