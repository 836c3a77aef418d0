// fuzz_gen — generative differential fuzzer (DESIGN.md System 28). Where
// fuzz_inputs mutates *text* to attack the parsers, fuzz_gen generates
// *valid* machine x block pairs (src/fuzz/genmachine, genblock) to attack
// the code generator itself: every pair is compiled on both the heuristic
// engine and the sequential baseline, and both images are differentially
// verified against the reference interpreter (src/fuzz/diff). Crashes,
// taxonomy escapes, and miscompiles are failures; each one lands as a
// standalone kind=fuzz repro bundle (src/fuzz/repro), is auto-minimized by
// delta debugging (src/fuzz/minimize), and — for miscompiles — additionally
// quarantines a kind=miscompile bundle under <out-dir>/quarantine/.
//
// All randomness flows from --seed through one SplitMix64 stream: the same
// seed re-derives the same machines, blocks, and verdicts, and any repro
// bundle replays from the command line alone.
//
// Modes:
//   fuzz_gen [--seed S] [--iterations N] [--time-budget SECS]
//            [--families wide,tiny,...] [--out-dir DIR] [--vectors N]
//            [--time-limit SECS] [--failpoints SPEC] [--auto-minimize]
//       generate + differential loop; exit 1 when any failure was found
//   fuzz_gen --replay DIR
//       replay a repro bundle of any kind (miscompile, fuzz, crash, kill);
//       exit 0 iff the recorded failure reproduces, as docs/fuzzing.md
//       "Reproducing a failure" defines per kind
//   fuzz_gen --minimize DIR
//       shrink a repro bundle; writes DIR/minimized/<machine>-<block>/
//   fuzz_gen --emit-zoo DIR
//       write the canonical zoo machines (fixed seeds per family) as .isdl
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "fuzz/diff.h"
#include "fuzz/genblock.h"
#include "fuzz/genmachine.h"
#include "fuzz/minimize.h"
#include "fuzz/repro.h"
#include "isdl/emit.h"
#include "proc/crash_repro.h"
#include "support/cli.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/repro_bundle.h"
#include "support/rng.h"
#include "support/strings.h"
#include "verify/quarantine.h"

namespace {

using namespace aviv;
namespace fs = std::filesystem;

// Fixed per-family seeds behind --emit-zoo: these exact machines are
// checked in as machines/zoo/ and pinned by the golden determinism matrix,
// so regenerating the zoo is reproducible forever.
constexpr uint64_t kZooSeed = 2024;

std::vector<MachineFamily> parseFamilies(const std::string& spec) {
  std::vector<MachineFamily> families;
  if (spec.empty() || spec == "all") {
    for (int f = 0; f < kNumMachineFamilies; ++f)
      families.push_back(static_cast<MachineFamily>(f));
    return families;
  }
  for (const std::string& name : split(spec, ','))
    if (!name.empty()) families.push_back(familyFromName(name));
  if (families.empty()) throw Error("--families lists no families");
  return families;
}

// Minimizes the kind=fuzz bundle at `dir` and writes the shrunken bundle
// under <dir>/minimized/. Returns the minimized bundle path.
std::string minimizeBundle(const std::string& dir) {
  const FuzzRepro repro = loadFuzzRepro(ReproBundle::load(dir));
  if (!repro.info.failpoints.empty())
    FailPoints::instance().configure(repro.info.failpoints);
  const MinimizeResult min = minimizeFuzzCase(
      repro.machine, repro.dag, repro.options, repro.signature);
  // Fresh verdict for the minimized pair's meta (same signature by
  // construction of the minimizer's acceptance test).
  const DiffResult verdict =
      runDifferential(min.machine, min.dag, repro.options);
  if (!repro.info.failpoints.empty()) FailPoints::instance().clear();
  const std::string out = writeFuzzRepro(dir + "/minimized", min.machine,
                                         min.dag, repro.info, repro.options,
                                         verdict);
  std::printf(
      "fuzz_gen: minimized %s: size %d -> %d (%d attempts, %d accepted)\n",
      dir.c_str(), min.stats.sizeTrajectory.front(),
      min.stats.sizeTrajectory.back(), min.stats.attempts,
      min.stats.accepted);
  return out;
}

int runReplay(const std::string& dir) {
  const ReproBundle bundle = ReproBundle::load(dir);
  BundleReplay replay;
  switch (bundle.kind()) {
    case BundleKind::kMiscompile:
      replay = replayQuarantineArtifact(bundle);
      break;
    case BundleKind::kFuzz:
      replay = replayFuzzRepro(loadFuzzRepro(bundle));
      break;
    case BundleKind::kCrash:
    case BundleKind::kKill:
      replay = proc::replayCrashRepro(proc::loadCrashRepro(bundle));
      replay.detail += " (recorded: " + bundle.text("exit") + ")";
      break;
  }
  std::printf("fuzz_gen: replay %s (kind=%s): %s — %s\n", dir.c_str(),
              bundleKindName(bundle.kind()), replay.detail.c_str(),
              replay.reproduced ? "reproduced" : "DID NOT REPRODUCE");
  return replay.reproduced ? 0 : 1;
}

int runEmitZoo(const std::string& dir) {
  fs::create_directories(dir);
  for (int f = 0; f < kNumMachineFamilies; ++f) {
    const MachineFamily family = static_cast<MachineFamily>(f);
    const Machine machine = generateMachine({family, kZooSeed});
    const std::string path =
        (fs::path(dir) / (std::string(familyName(family)) + ".isdl"))
            .string();
    writeFile(path, emitMachineText(machine));
    std::printf("fuzz_gen: wrote %s (%s)\n", path.c_str(),
                machine.name().c_str());
  }
  return 0;
}

int runFuzzLoop(uint64_t seed, int iterations, double timeBudget,
                const std::vector<MachineFamily>& families,
                const std::string& outDir, int vectors, double timeLimit,
                bool autoMinimize, const std::string& failpointSpec) {
  fs::create_directories(outDir);
  DiffOptions diffOptions;
  diffOptions.vectors = vectors;
  diffOptions.timeLimitSeconds = timeLimit;
  diffOptions.quarantineDir = outDir + "/quarantine";

  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  Rng stream(seed);
  std::map<std::string, int> verdictCounts;
  std::vector<std::string> failures;
  int ran = 0;
  for (int i = 0; i < iterations; ++i) {
    if (timeBudget > 0 && elapsed() > timeBudget) break;
    // Every iteration's seeds come from one deterministic stream: the
    // verdict schedule of `--seed S` is a pure function of S.
    const MachineFamily family = families[i % families.size()];
    const uint64_t machineSeed = stream.next();
    const uint64_t blockSeed = stream.next();
    const Machine machine = generateMachine({family, machineSeed});
    const BlockDag dag = generateBlock(machine, {blockSeed, 3, 24});
    const DiffResult result = runDifferential(machine, dag, diffOptions);
    ++ran;
    ++verdictCounts[verdictName(result.verdict)];
    if (!isFailureVerdict(result.verdict)) continue;

    FuzzCase info;
    info.family = family;
    info.machineSeed = machineSeed;
    info.blockSeed = blockSeed;
    info.iteration = i;
    // Record the planted fault as an always-fire spec so the bundle
    // replays independently of this run's probability/count schedule.
    if (result.plantedFault) info.failpoints = "fuzz-engine-disagree";
    const std::string dir =
        writeFuzzRepro(outDir, machine, dag, info, diffOptions, result);
    failures.push_back(dir);
    std::fprintf(stderr,
                 "fuzz_gen: FAILURE at iteration %d (%s): %s\n  repro: %s\n",
                 i, result.signature.c_str(), result.detail.c_str(),
                 dir.c_str());
    if (autoMinimize) {
      const std::string minimized = minimizeBundle(dir);
      std::fprintf(stderr, "  minimized: %s\n", minimized.c_str());
      // minimizeBundle may have swapped in the repro's always-fire spec;
      // restore this run's schedule for the remaining iterations.
      FailPoints::instance().configure(failpointSpec, seed);
    }
  }

  std::printf("fuzz_gen: seed %llu: %d iterations",
              static_cast<unsigned long long>(seed), ran);
  for (const auto& [verdict, count] : verdictCounts)
    std::printf(", %d %s", count, verdict.c_str());
  std::printf("\n");
  if (!failures.empty()) {
    std::fprintf(stderr, "fuzz_gen: %zu failure(s); repros under %s\n",
                 failures.size(), outDir.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    CliFlags flags(argc, argv);
    const std::string replayDir = flags.getString("replay", "");
    const std::string minimizeDir = flags.getString("minimize", "");
    const std::string zooDir = flags.getString("emit-zoo", "");
    const uint64_t seed = static_cast<uint64_t>(flags.getInt("seed", 1));
    const int iterations = static_cast<int>(flags.getInt("iterations", 100));
    const double timeBudget = flags.getDouble("time-budget", 0.0);
    const std::string familiesSpec = flags.getString("families", "all");
    const std::string outDir = flags.getString("out-dir", "fuzz-out");
    const int vectors = static_cast<int>(flags.getInt("vectors", 4));
    const double timeLimit = flags.getDouble("time-limit", 2.0);
    const std::string failpoints = flags.getString("failpoints", "");
    const bool autoMinimize = flags.getBool("auto-minimize", true);
    flags.finish();

    if (!replayDir.empty()) return runReplay(replayDir);
    if (!minimizeDir.empty()) {
      minimizeBundle(minimizeDir);
      return 0;
    }
    if (!zooDir.empty()) return runEmitZoo(zooDir);

    if (!failpoints.empty())
      FailPoints::instance().configure(failpoints, seed);
    return runFuzzLoop(seed, iterations, timeBudget,
                       parseFamilies(familiesSpec), outDir, vectors,
                       timeLimit, autoMinimize, failpoints);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_gen: %s\n", e.what());
    return 2;
  }
}
