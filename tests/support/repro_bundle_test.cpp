// Repro bundles (src/support/repro_bundle.h), one table row per kind:
// every kind is written by its real capture path, starts meta.txt with
// kind= and ends it with replay=, rejects malformed copies with an
// aviv::Error naming the file and key, and replays from a moved copy
// through `fuzz_gen --replay` (AVIV_FUZZ_GEN is that binary's path).
#include "support/repro_bundle.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "driver/codegen.h"
#include "fuzz/repro.h"
#include "ir/parser.h"
#include "isdl/parser.h"
#include "proc/crash_repro.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/strings.h"
#include "verify/quarantine.h"

#if defined(__SANITIZE_THREAD__)
#define AVIV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AVIV_TSAN 1
#endif
#endif

namespace aviv {
namespace {

namespace fs = std::filesystem;

#ifdef AVIV_TSAN
constexpr bool kForkReplaySupported = false;
#else
constexpr bool kForkReplaySupported = true;
#endif

class TempDir {
 public:
  TempDir() {
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("aviv_bundle_test_" + std::to_string(::getpid()) + "_" +
              std::to_string(++counter)))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string onlySubdir(const std::string& root) {
  std::vector<std::string> dirs;
  for (const auto& entry : fs::directory_iterator(root))
    if (entry.is_directory()) dirs.push_back(entry.path().string());
  EXPECT_EQ(dirs.size(), 1u) << root;
  return dirs.empty() ? std::string() : dirs.front();
}

std::string writeMiscompile(const std::string& root) {
  FailPoints::instance().configure("verify-corrupt-asm:1:1");
  DriverOptions options;
  options.verify.level = VerifyLevel::kAll;
  options.verify.quarantineDir = root + "/quarantine";
  CodeGenerator generator(loadMachine("arch1"), options);
  SymbolTable symbols;
  (void)generator.compileBlock(loadBlock("ex1"), symbols);
  FailPoints::instance().clear();
  return onlySubdir(options.verify.quarantineDir);
}

std::string writeFuzz(const std::string& root) {
  const Machine machine = loadMachine("arch1");
  const BlockDag dag = loadBlock("ex1");
  FailPoints::instance().configure("fuzz-engine-disagree");
  const DiffResult result = runDifferential(machine, dag, {});
  FailPoints::instance().clear();
  EXPECT_EQ(result.signature, "miscompile:baseline");
  FuzzCase info;
  info.failpoints = "fuzz-engine-disagree";
  return writeFuzzRepro(root, machine, dag, info, {}, result);
}

proc::CrashCapture capture(const std::string& root) {
  proc::CrashCapture capture;
  capture.crashDir = root;
  capture.requestLine = "machine=arch1 block=ex1";
  capture.exitStatus = 6;  // raw waitpid status of a SIGABRT death
  capture.failpointSite = "worker-abort";
  capture.deadlineMs = 5000;
  return capture;
}

std::string writeCrash(const std::string& root) {
  return proc::writeCrashRepro(capture(root));
}

std::string writeKill(const std::string& root) {
  proc::CrashCapture kill = capture(root);
  kill.exitStatus = 9;  // SIGKILL, as the supervisor delivered it
  kill.killedByDeadline = true;
  kill.failpointSite = "worker-hang";
  kill.deadlineMs = 300;
  return proc::writeCrashRepro(kill);
}

struct KindRow {
  BundleKind kind;
  std::function<std::string(const std::string& root)> write;
  // Loads the bundle as this kind (miscompile bundles load and replay in
  // one step); throws on any malformed bundle.
  std::function<void(const ReproBundle&)> load;
  const char* numericKey;   // corrupted to a non-number
  const char* requiredKey;  // deleted
  bool forks;               // replay forks a sandboxed child
};

const std::vector<KindRow>& kindRows() {
  static const std::vector<KindRow> rows = {
      {BundleKind::kMiscompile, writeMiscompile,
       [](const ReproBundle& b) { (void)replayQuarantineArtifact(b); },
       "vectors", "verifierVersion", false},
      {BundleKind::kFuzz, writeFuzz,
       [](const ReproBundle& b) { (void)loadFuzzRepro(b); },
       "timeLimitSeconds", "signature", false},
      {BundleKind::kCrash, writeCrash,
       [](const ReproBundle& b) { (void)proc::loadCrashRepro(b); },
       "rssLimitBytes", "failpoints", true},
      {BundleKind::kKill, writeKill,
       [](const ReproBundle& b) { (void)proc::loadCrashRepro(b); },
       "deadlineMs", "exit", true},
  };
  return rows;
}

// A copy of `dir` whose meta.txt has `key` set to `value`, or dropped when
// `value` is nullopt.
std::string editedCopy(const std::string& dir, const std::string& name,
                       const std::string& key,
                       const std::optional<std::string>& value) {
  const std::string copy = fs::path(dir).parent_path().string() + "/" + name;
  fs::remove_all(copy);
  fs::copy(dir, copy, fs::copy_options::recursive);
  std::string meta;
  for (const std::string& line : split(readFile(copy + "/meta.txt"), '\n')) {
    if (line.empty()) continue;
    if (startsWith(line, key + "=")) {
      if (value) meta += key + "=" + *value + "\n";
    } else {
      meta += line + "\n";
    }
  }
  writeFile(copy + "/meta.txt", meta);
  return copy;
}

template <typename F>
void expectErrorMentioning(F&& f, const std::string& needle) {
  try {
    f();
    ADD_FAILURE() << "no aviv::Error; expected one mentioning '" << needle
                  << "'";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << e.what();
  }
}

TEST(ReproBundle, LoaderRejectsMalformedBundles) {
  TempDir tmp;
  const std::vector<KindRow>& rows = kindRows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const KindRow& row = rows[i];
    const std::string name = bundleKindName(row.kind);
    SCOPED_TRACE(name);
    const std::string root = tmp.path() + "/" + name;
    const std::string dir = row.write(root);
    ASSERT_FALSE(dir.empty());

    // Well-formed: loads as its own kind. Another kind's loader rejects it
    // for lacking that kind's required keys.
    const ReproBundle bundle = ReproBundle::load(dir);
    EXPECT_EQ(bundle.kind(), row.kind);
    row.load(bundle);
    const KindRow& other = rows[(i + 2) % rows.size()];
    expectErrorMentioning([&] { other.load(bundle); },
                          "meta.txt: missing required key");

    expectErrorMentioning(
        [&] { (void)ReproBundle::load(root + "/no-such-bundle"); },
        "no such directory");
    fs::create_directories(root + "/no-meta");
    expectErrorMentioning([&] { (void)ReproBundle::load(root + "/no-meta"); },
                          "meta.txt");
    expectErrorMentioning(
        [&] {
          (void)ReproBundle::load(
              editedCopy(dir, "no-kind", "kind", std::nullopt));
        },
        "missing kind=");
    expectErrorMentioning(
        [&] {
          (void)ReproBundle::load(
              editedCopy(dir, "bad-kind", "kind", "segfault"));
        },
        "unknown kind 'segfault'");
    expectErrorMentioning(
        [&] {
          row.load(ReproBundle::load(
              editedCopy(dir, "bad-value", row.numericKey, "lots")));
        },
        std::string("meta.txt: bad value for '") + row.numericKey + "'");
    expectErrorMentioning(
        [&] {
          (void)ReproBundle::load(
              editedCopy(dir, "no-key", row.requiredKey, std::nullopt));
        },
        std::string("meta.txt: missing required key '") + row.requiredKey +
            "'");
  }
}

TEST(ReproBundle, MovedCopyReplaysForEveryKind) {
  TempDir tmp;
  for (const KindRow& row : kindRows()) {
    const std::string name = bundleKindName(row.kind);
    SCOPED_TRACE(name);
    if (row.forks && !kForkReplaySupported) continue;
    const std::string dir = row.write(tmp.path() + "/" + name);
    ASSERT_FALSE(dir.empty());
    const std::vector<std::string> lines =
        split(std::string(trim(readFile(dir + "/meta.txt"))), '\n');
    EXPECT_EQ(lines.front(), "kind=" + name);
    EXPECT_EQ(lines.back(), "replay=fuzz_gen --replay " + dir);

    // The original is gone: the copy must replay from its own files.
    const std::string moved = tmp.path() + "/moved-" + name;
    fs::copy(dir, moved, fs::copy_options::recursive);
    fs::remove_all(dir);
    const std::string command =
        std::string(AVIV_FUZZ_GEN) + " --replay " + moved;
    EXPECT_EQ(std::system(command.c_str()), 0) << command;
  }
}

TEST(ReproBundle, WriterFoldsValuesOntoOneLine) {
  TempDir tmp;
  const ReproBundle bundle = ReproBundle::load(writeBundle(
      BundleKind::kMiscompile, tmp.path() + "/b", {},
      {{"detail", "line one\nline two\r"}, {"seed", "7"}, {"vectors", "3"},
       {"verifierVersion", "2"}}));
  EXPECT_EQ(bundle.text("detail"), "line one line two ");
  EXPECT_EQ(bundle.number<uint64_t>("seed"), 7u);
  expectErrorMentioning([&] { (void)bundle.number<int>("detail"); },
                        "meta.txt: bad value for 'detail'");
  expectErrorMentioning([&] { (void)bundle.text("absent"); },
                        "meta.txt: missing required key 'absent'");
}

}  // namespace
}  // namespace aviv
