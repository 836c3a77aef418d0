// Crash repro bundles (src/proc/crash_repro.h): capture -> load -> replay
// round trips, bundle relocatability (machine=/block= rewritten to
// bundle-local copies), kind=crash vs kind=kill replay semantics, and
// partial bundles for unparseable request lines. Malformed-bundle handling
// shared by every kind lives in tests/support/repro_bundle_test.cpp.
#include "proc/crash_repro.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <string>

#include "support/error.h"
#include "support/io.h"

#if defined(__SANITIZE_THREAD__)
#define AVIV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AVIV_TSAN 1
#endif
#endif
#ifdef AVIV_TSAN
#define AVIV_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based replay tests are unsupported under TSan"
#else
#define AVIV_SKIP_UNDER_TSAN() (void)0
#endif

namespace aviv::proc {
namespace {

namespace fs = std::filesystem;

// Raw waitpid statuses (Linux layout): low 7 bits = terminating signal.
constexpr int kStatusSigabrt = 6;
constexpr int kStatusSigsegv = 11;

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    static std::atomic<int> counter{0};
    path_ = (fs::temp_directory_path() /
             ("aviv_repro_test_" + std::to_string(::getpid()) + "_" + tag +
              "_" + std::to_string(++counter)))
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

CrashCapture abortCapture(const std::string& crashDir) {
  CrashCapture capture;
  capture.crashDir = crashDir;
  capture.requestLine = "machine=arch1 block=ex1 timeout=2";
  capture.wantAsm = true;
  capture.exitStatus = kStatusSigabrt;
  capture.failpointSite = "worker-abort";
  capture.deadlineMs = 5000;
  capture.sequence = 7;
  return capture;
}

TEST(CrashRepro, WriteLoadRoundTripsAndRelocates) {
  TempDir tmp("roundtrip");
  const std::string dir = writeCrashRepro(abortCapture(tmp.path()));
  ASSERT_FALSE(dir.empty());
  EXPECT_NE(dir.find("crash-7-worker-abort"), std::string::npos);
  EXPECT_TRUE(fs::exists(dir + "/machine.isdl"));
  EXPECT_TRUE(fs::exists(dir + "/block.blk"));
  EXPECT_TRUE(fs::exists(dir + "/request.txt"));

  const CrashRepro repro = loadCrashRepro(ReproBundle::load(dir));
  EXPECT_EQ(repro.kind, BundleKind::kCrash);
  EXPECT_TRUE(repro.wantAsm);
  EXPECT_EQ(repro.failpointSite, "worker-abort");
  EXPECT_EQ(repro.deadlineMs, 5000);
  EXPECT_NE(ReproBundle::load(dir).text("exit").find("signal 6"),
            std::string::npos);
  // Relocatable: the loaded line points at the bundle's OWN copies, so the
  // bundle replays wherever it is moved — the original specs are gone.
  EXPECT_NE(repro.requestLine.find(dir + "/machine.isdl"), std::string::npos);
  EXPECT_NE(repro.requestLine.find(dir + "/block.blk"), std::string::npos);
  EXPECT_NE(repro.requestLine.find("timeout=2"), std::string::npos);
  EXPECT_EQ(repro.requestLine.find("machine=arch1"), std::string::npos);
}

TEST(CrashRepro, AbortBundleReplaysStandalone) {
  AVIV_SKIP_UNDER_TSAN();
  TempDir tmp("abort");
  const std::string dir = writeCrashRepro(abortCapture(tmp.path()));
  ASSERT_FALSE(dir.empty());
  const BundleReplay replay =
      replayCrashRepro(loadCrashRepro(ReproBundle::load(dir)));
  EXPECT_TRUE(replay.reproduced) << replay.detail;
  EXPECT_NE(replay.detail.find("signal 6"), std::string::npos);
}

TEST(CrashRepro, KillBundleReproducesByOutlivingTheDeadline) {
  AVIV_SKIP_UNDER_TSAN();
  TempDir tmp("kill");
  CrashCapture capture = abortCapture(tmp.path());
  capture.exitStatus = 9;  // SIGKILL, as the supervisor delivered it
  capture.killedByDeadline = true;
  capture.failpointSite = "worker-hang";
  capture.deadlineMs = 300;
  const std::string dir = writeCrashRepro(capture);
  ASSERT_FALSE(dir.empty());

  const CrashRepro repro = loadCrashRepro(ReproBundle::load(dir));
  EXPECT_EQ(repro.kind, BundleKind::kKill);
  const BundleReplay replay = replayCrashRepro(repro);
  EXPECT_TRUE(replay.reproduced) << replay.detail;
  EXPECT_NE(replay.detail.find("still running"), std::string::npos);
}

TEST(CrashRepro, CleanRequestDoesNotReproduceACrash) {
  AVIV_SKIP_UNDER_TSAN();
  TempDir tmp("clean");
  // A recorded SIGSEGV with no fail point behind it: the replay child runs
  // the request cleanly, so the bundle must honestly report no repro.
  CrashCapture capture = abortCapture(tmp.path());
  capture.exitStatus = kStatusSigsegv;
  capture.failpointSite.clear();
  capture.wantAsm = false;
  const std::string dir = writeCrashRepro(capture);
  ASSERT_FALSE(dir.empty());
  const BundleReplay replay =
      replayCrashRepro(loadCrashRepro(ReproBundle::load(dir)));
  EXPECT_FALSE(replay.reproduced);
  EXPECT_NE(replay.detail.find("exit code 0"), std::string::npos);
}

TEST(CrashRepro, UnparseableLineStillGetsAPartialBundle) {
  TempDir tmp("partial");
  CrashCapture capture = abortCapture(tmp.path());
  capture.requestLine = "this is not a request line";
  capture.failpointSite.clear();
  capture.exitStatus = kStatusSigsegv;
  const std::string dir = writeCrashRepro(capture);
  ASSERT_FALSE(dir.empty());
  // No sources to resolve, but the evidence survives: request + meta.
  EXPECT_FALSE(fs::exists(dir + "/machine.isdl"));
  const CrashRepro repro = loadCrashRepro(ReproBundle::load(dir));
  EXPECT_EQ(repro.requestLine, "this is not a request line");
}

TEST(CrashRepro, DiscriminatorRejectsNonCrashBundles) {
  TempDir tmp("notbundle");
  EXPECT_THROW((void)ReproBundle::load(tmp.path() + "/missing"), Error);
  // A meta.txt with no kind= line is no bundle of any kind.
  writeFile(tmp.path() + "/meta.txt", "signature=miscompile\nseed=1\n");
  EXPECT_THROW((void)ReproBundle::load(tmp.path()), Error);
  // A well-formed bundle of another kind loads, but not as a crash.
  const ReproBundle miscompile = ReproBundle::load(writeBundle(
      BundleKind::kMiscompile, tmp.path() + "/miscompile", {},
      {{"seed", "1"}, {"vectors", "4"}, {"verifierVersion", "1"}}));
  EXPECT_THROW((void)loadCrashRepro(miscompile), Error);
}

TEST(CrashRepro, MalformedMetaValueThrowsNotCrashes) {
  TempDir tmp("badmeta");
  const std::string dir = writeBundle(
      BundleKind::kCrash, tmp.path() + "/crash",
      {{kBundleRequestFile, "machine=arch1 block=ex1\n"}},
      {{"exit", "signal 11"},
       {"wantAsm", "0"},
       {"blockFile", ""},
       {"failpoints", ""},
       {"rssLimitBytes", "lots"},
       {"deadlineMs", "0"}});
  EXPECT_THROW((void)loadCrashRepro(ReproBundle::load(dir)), Error);
}

TEST(CrashRepro, CaptureIsBestEffortNeverThrows) {
  CrashCapture capture = abortCapture("");
  EXPECT_EQ(writeCrashRepro(capture), "");  // capture disabled
  capture.crashDir = "/proc/definitely/not/writable";
  EXPECT_EQ(writeCrashRepro(capture), "");  // capture failed, not fatal
}

}  // namespace
}  // namespace aviv::proc
