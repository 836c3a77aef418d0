// fuzz_gen — AVIV's fuzzer (DESIGN.md System 28). Every input goes through
// one oracle (src/fuzz/diff): a parse stage, then a compile stage that
// builds the program on both the heuristic engine and the sequential
// baseline and differentially verifies both images against the reference
// interpreter. Inputs come from one of two sources:
//
//   generated  valid machine x block pairs (src/fuzz/genmachine, genblock)
//              attack the code generator itself;
//   --corpus   seeded byte- and token-level mutants of the corpus files
//              (.isdl machines, .blk blocks, .c MiniC) attack the parsers;
//              block and MiniC mutants that still parse compile on arch1.
//              Every unmutated corpus file must parse.
//
// Crashes, taxonomy escapes and miscompiles are failures, at either stage;
// each one lands as a standalone kind=fuzz repro bundle holding the raw
// input text (src/fuzz/repro), is auto-minimized by delta debugging
// (src/fuzz/minimize) when it parsed, and — for miscompiles — additionally
// quarantines a kind=miscompile bundle under <out-dir>/quarantine/.
//
// All randomness flows from --seed through one SplitMix64 stream: the same
// seed re-derives the same inputs and verdicts, and any repro bundle
// replays from the command line alone.
//
// Modes:
//   fuzz_gen [--seed S] [--iterations N] [--time-budget SECS]
//            [--families wide,tiny,...] [--corpus DIR] [--out-dir DIR]
//            [--vectors N] [--time-limit SECS] [--failpoints SPEC]
//            [--auto-minimize]
//       fuzz loop (generated, or corpus mutants with --corpus); exit 1
//       when any failure was found
//   fuzz_gen --replay DIR
//       replay a repro bundle of any kind (miscompile, fuzz, crash, kill);
//       exit 0 iff the recorded failure reproduces, as docs/fuzzing.md
//       "Reproducing a failure" defines per kind
//   fuzz_gen --minimize DIR
//       shrink a kind=fuzz bundle whose input parsed; writes
//       DIR/minimized/<machine>-<block>/
//   fuzz_gen --emit-zoo DIR
//       write the canonical zoo machines (fixed seeds per family) as .isdl
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/diff.h"
#include "fuzz/genblock.h"
#include "fuzz/genmachine.h"
#include "fuzz/minimize.h"
#include "fuzz/repro.h"
#include "ir/emit.h"
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

// False when the parse stage decided the verdict (signature side `parse`).
bool reachedCompile(const std::string& signature) {
  return !endsWith(signature, ":parse");
}

// One fuzz iteration's input, the bundle directory name for it, and the
// human-only meta keys that say where it came from.
struct FuzzCase {
  FuzzInput input;
  std::string name;
  BundleEntries provenance;
};

FuzzCase generatedCase(MachineFamily family, Rng& stream, int iteration) {
  const uint64_t machineSeed = stream.next();
  const uint64_t blockSeed = stream.next();
  const Machine machine = generateMachine({family, machineSeed});
  const BlockDag dag = generateBlock(machine, {blockSeed, 3, 24});
  return {{emitMachineText(machine), kBundleBlockFile, emitBlockText(dag)},
          machine.name() + "-" + dag.name(),
          {{"machine", machine.name()},
           {"block", dag.name()},
           {"family", familyName(family)},
           {"machineSeed", std::to_string(machineSeed)},
           {"blockSeed", std::to_string(blockSeed)},
           {"iteration", std::to_string(iteration)}}};
}

// The corpus files, sorted by name: an .isdl file is a machine alone, a
// .blk or .c file a block for arch1.
std::vector<FuzzCase> loadCorpus(const std::string& dir) {
  std::vector<fs::path> paths;
  for (const auto& entry : fs::directory_iterator(dir))
    if (entry.is_regular_file()) paths.push_back(entry.path());
  // directory_iterator order is unspecified; sort for determinism.
  std::sort(paths.begin(), paths.end());
  const std::string arch1 = readFile(machinePath("arch1"));
  std::vector<FuzzCase> corpus;
  for (const fs::path& path : paths) {
    const std::string ext = path.extension().string();
    const char* blockFile = ext == ".blk" ? kBundleBlockFile
                            : ext == ".c" ? kBundleMiniCFile
                                          : nullptr;
    if (ext != ".isdl" && blockFile == nullptr) continue;
    const std::string text = readFile(path.string());
    FuzzInput input{text, "", ""};
    if (blockFile != nullptr) input = {arch1, blockFile, text};
    const std::string name = path.filename().string();
    corpus.push_back({input, "corpus-" + name, {{"corpus", name}}});
  }
  if (corpus.empty()) throw Error("no .isdl/.blk/.c seeds under " + dir);
  return corpus;
}

// Structure-ish tokens the mutator splices in: valid keywords and
// punctuation reach deeper grammar states than raw byte noise does.
const char* const kFragments[] = {
    "block",    "input",  "output", "machine", "regfile", "unit",
    "memory",   "bus",    "op",     "transfer", "constraint", "repeat",
    "goto",     "if",     "else",   "while",   "int",     "return",
    "{", "}", "(", ")", ";", ",", "=", "+", "-", "*", "/", "%", "<<",
    ">>", "->", "size", "data", "latency", "0", "1", "999999999999999999999",
    "0x", "$i", "x", "y",
};

std::string mutate(std::string text, Rng& rng) {
  const int edits = static_cast<int>(rng.intIn(1, 4));
  for (int e = 0; e < edits; ++e) {
    if (text.empty()) {
      text = kFragments[rng.below(std::size(kFragments))];
      continue;
    }
    switch (rng.below(6)) {
      case 0: {  // flip one byte to a random printable char
        text[rng.below(text.size())] =
            static_cast<char>(rng.intIn(32, 126));
        break;
      }
      case 1: {  // insert a grammar fragment
        const char* frag = kFragments[rng.below(std::size(kFragments))];
        text.insert(rng.below(text.size() + 1), std::string(" ") + frag + " ");
        break;
      }
      case 2: {  // delete a span
        const size_t at = rng.below(text.size());
        text.erase(at, rng.intIn(1, 24));
        break;
      }
      case 3: {  // duplicate a span elsewhere
        const size_t at = rng.below(text.size());
        const std::string span =
            text.substr(at, static_cast<size_t>(rng.intIn(1, 32)));
        text.insert(rng.below(text.size() + 1), span);
        break;
      }
      case 4: {  // truncate (simulates a cut-off file)
        text.resize(rng.below(text.size() + 1));
        break;
      }
      default: {  // swap two characters
        const size_t a = rng.below(text.size());
        const size_t b = rng.below(text.size());
        std::swap(text[a], text[b]);
        break;
      }
    }
    if (text.size() > 64 * 1024) text.resize(64 * 1024);
  }
  return text;
}

// A mutant of a corpus file: the same Rng stream picks the file and its
// edits. Machine files mutate their ISDL; block files their block text.
FuzzCase mutantCase(const std::vector<FuzzCase>& corpus, Rng& rng,
                    int iteration) {
  FuzzCase mutant = corpus[rng.below(corpus.size())];
  std::string& text = mutant.input.blockFile.empty()
                          ? mutant.input.machineText
                          : mutant.input.blockText;
  text = mutate(std::move(text), rng);
  mutant.name += "-" + std::to_string(iteration);
  mutant.provenance.emplace_back("iteration", std::to_string(iteration));
  return mutant;
}

// Minimizes the kind=fuzz bundle at `dir` and writes the shrunken bundle
// under <dir>/minimized/. Returns the minimized bundle path, or "" when
// the input never reached the compile stage (nothing parsed to shrink).
// The bundle's failpoint spec applies only inside; the caller's failpoint
// schedule resumes untouched.
std::string minimizeBundle(const std::string& dir) {
  const FuzzRepro repro = loadFuzzRepro(ReproBundle::load(dir));
  if (!reachedCompile(repro.signature)) {
    std::printf("fuzz_gen: %s: not minimized (%s is a parse-stage failure)\n",
                dir.c_str(), repro.signature.c_str());
    return "";
  }
  const ScopedFailPoints failpoints(repro.failpoints);
  const ParsedInput parsed = parseInput(repro.input);
  const MinimizeResult min = minimizeFuzzCase(
      parsed.machine, parsed.program, repro.options, repro.signature);
  // A multi-block program keeps its blocks, so it keeps its source text.
  FuzzInput input = repro.input;
  input.machineText = emitMachineText(min.machine);
  if (min.program.numBlocks() == 1) {
    input.blockFile = kBundleBlockFile;
    input.blockText = emitBlockText(min.program.block(0));
  }
  // Fresh verdict for the minimized input's meta (same signature by
  // construction of the minimizer's acceptance test).
  const DiffResult verdict = runDifferential(input, repro.options);
  const std::string out = writeFuzzRepro(
      dir + "/minimized/" + min.machine.name() + "-" +
          min.program.block(0).name(),
      input, repro.options, verdict, {{"minimizedFrom", dir}});
  std::printf(
      "fuzz_gen: minimized %s: size %d -> %d (%d attempts, %d accepted)\n",
      dir.c_str(), min.stats.sizeTrajectory.front(),
      min.stats.sizeTrajectory.back(), min.stats.attempts,
      static_cast<int>(min.stats.sizeTrajectory.size()) - 1);
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

// Fuzzes corpus mutants when `corpusDir` is set, else generated pairs.
int runFuzzLoop(uint64_t seed, int iterations, double timeBudget,
                const std::vector<MachineFamily>& families,
                const std::string& corpusDir, const std::string& outDir,
                const DiffOptions& diffOptions, bool autoMinimize) {
  fs::create_directories(outDir);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeBudget);

  std::vector<std::string> failures;
  // Runs one input through the oracle; a failure writes (and minimizes)
  // its bundle.
  auto check = [&](const FuzzCase& fuzzCase, const std::string& where) {
    const DiffResult result = runDifferential(fuzzCase.input, diffOptions);
    if (!isFailureVerdict(result.verdict)) return result;
    const std::string dir =
        writeFuzzRepro(outDir + "/" + fuzzCase.name, fuzzCase.input,
                       diffOptions, result, fuzzCase.provenance);
    failures.push_back(dir);
    std::fprintf(stderr, "fuzz_gen: FAILURE at %s (%s): %s\n  repro: %s\n",
                 where.c_str(), result.signature.c_str(),
                 result.detail.c_str(), dir.c_str());
    if (autoMinimize) {
      const std::string minimized = minimizeBundle(dir);
      if (!minimized.empty())
        std::fprintf(stderr, "  minimized: %s\n", minimized.c_str());
    }
    return result;
  };

  std::vector<FuzzCase> corpus;
  if (!corpusDir.empty()) {
    corpus = loadCorpus(corpusDir);
    // The unmutated files run without the run's failpoints, so a planted
    // fault lands on a mutant.
    const ScopedFailPoints none("");
    for (const FuzzCase& file : corpus) {
      const DiffResult result = check(file, "unmutated " + file.name);
      if (result.signature == "reject:parse")
        throw Error("corpus file " + file.name + " does not parse: " +
                    result.detail);
    }
  }
  const size_t unmutatedFailures = failures.size();

  Rng stream(seed);
  std::map<std::string, int> verdictCounts;
  int parsed = 0;
  int i = 0;
  for (; i < iterations; ++i) {
    if (timeBudget > 0 && std::chrono::steady_clock::now() > deadline)
      break;
    // Every iteration's input comes from one deterministic stream: the
    // verdict schedule of `--seed S` is a pure function of S.
    const FuzzCase fuzzCase =
        corpus.empty() ? generatedCase(families[i % families.size()], stream, i)
                       : mutantCase(corpus, stream, i);
    const DiffResult result = check(fuzzCase, "iteration " + std::to_string(i));
    parsed += reachedCompile(result.signature) ? 1 : 0;
    ++verdictCounts[verdictName(result.verdict)];
  }

  std::printf("fuzz_gen: seed %llu: %d iterations",
              static_cast<unsigned long long>(seed), i);
  if (!corpus.empty())
    std::printf(" over %zu corpus files (%zu failing), %d parsed",
                corpus.size(), unmutatedFailures, parsed);
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
    const std::string corpusDir = flags.getString("corpus", "");
    const std::string outDir = flags.getString("out-dir", "fuzz-out");
    DiffOptions diffOptions;
    diffOptions.vectors = static_cast<int>(flags.getInt("vectors", 4));
    diffOptions.timeLimitSeconds = flags.getDouble("time-limit", 2.0);
    diffOptions.quarantineDir = outDir + "/quarantine";
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
                       parseFamilies(familiesSpec), corpusDir, outDir,
                       diffOptions, autoMinimize);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fuzz_gen: %s\n", e.what());
    return 2;
  }
}
