// WorkerPool supervision semantics (src/proc/pool.h): crash -> retry once
// on a healthy worker (zero lost responses), double crash -> typed kError,
// hard-deadline SIGKILL of hung workers, torn mid-write frames handled as
// crashes without wedging the supervisor, the per-line crash-loop breaker
// tripping and recovering, rlimit-backed OOM containment, crash repro
// bundles that replay standalone, and the onCrash hook.
//
// Every test forks real worker processes through a real socketpair; the
// crash-class fail points (worker-segv & co.) are configured in the parent
// BEFORE the pool forks, so the initial fleet inherits them armed while
// any respawn after FailPoints::clear() comes up clean — which is exactly
// the "crash once, retry on a healthy worker" shape the pool guarantees.
#include "proc/pool.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "proc/crash_repro.h"
#include "support/failpoint.h"
#include "support/io.h"

// Fork-based tests are unsupported under TSan (the child inherits a
// runtime that expects the parent's threads); they skip rather than hang.
#if defined(__SANITIZE_THREAD__)
#define AVIV_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define AVIV_TSAN 1
#endif
#endif
#ifdef AVIV_TSAN
#define AVIV_SKIP_UNDER_TSAN() \
  GTEST_SKIP() << "fork-based worker tests are unsupported under TSan"
#else
#define AVIV_SKIP_UNDER_TSAN() (void)0
#endif

namespace aviv::proc {
namespace {

namespace fs = std::filesystem;

// Clears the global fail-point table on every exit path of a test.
struct FailPointGuard {
  ~FailPointGuard() { FailPoints::instance().clear(); }
};

std::string uniqueTempDir(const std::string& tag) {
  static std::atomic<int> counter{0};
  const std::string dir = (fs::temp_directory_path() /
                           ("aviv_pool_test_" + std::to_string(::getpid()) +
                            "_" + tag + "_" + std::to_string(++counter)))
                              .string();
  fs::remove_all(dir);
  return dir;
}

// The one repro bundle a single crash leaves under `crashDir` (the
// .worker-* files beside it are per-slot scratch, not bundles).
std::string onlyBundle(const std::string& crashDir) {
  std::vector<std::string> bundles;
  for (const fs::directory_entry& entry : fs::directory_iterator(crashDir))
    if (entry.is_directory()) bundles.push_back(entry.path().string());
  EXPECT_EQ(bundles.size(), 1u) << "crash bundles under " << crashDir;
  return bundles.empty() ? std::string() : bundles.front();
}

PoolConfig quickConfig() {
  PoolConfig config;
  config.workers = 1;
  config.hardDeadlineMs = 20000;
  config.heartbeatTimeoutMs = 5000;
  config.crashLoopK = 10;  // breaker out of the way unless a test wants it
  config.respawnBackoffMs = 20;
  config.env.cacheEnabled = false;
  return config;
}

constexpr const char* kLine = "machine=arch1 block=ex1";

TEST(ProcPool, CleanRequestRoundTrips) {
  AVIV_SKIP_UNDER_TSAN();
  WorkerPool pool(quickConfig());
  const net::NetResponse result = pool.execute(kLine, false);
  EXPECT_EQ(result.type, net::FrameType::kOk) << result.detail;
  EXPECT_EQ(result.crashRetries, 0);
  EXPECT_NE(result.detail.find("block=ex1"), std::string::npos);
  EXPECT_EQ(pool.aliveWorkers(), 1);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.crashes, 0u);
}

TEST(ProcPool, CrashedWorkerIsRetriedOnceOnAHealthyWorker) {
  AVIV_SKIP_UNDER_TSAN();
  FailPointGuard guard;
  const std::string crashDir = uniqueTempDir("retry");
  PoolConfig config = quickConfig();
  config.crashDir = crashDir;
  FailPoints::instance().configure("worker-segv");
  WorkerPool pool(config);             // initial worker inherits the segv
  FailPoints::instance().clear();      // ...but its respawn comes up clean

  const net::NetResponse result = pool.execute(kLine, false);
  EXPECT_EQ(result.type, net::FrameType::kOk) << result.detail;
  EXPECT_EQ(result.crashRetries, 1);
  EXPECT_NE(result.detail.find("crashed=1"), std::string::npos);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.crashRetried, 1u);
  EXPECT_EQ(stats.crashFailed, 0u);
  EXPECT_EQ(stats.reproBundles, 1u);

  // The crash landed as a bundle recording the exact fail-point site.
  const std::string bundle = onlyBundle(crashDir);
  ASSERT_FALSE(bundle.empty());
  const std::string meta = readFile(bundle + "/meta.txt");
  EXPECT_NE(meta.find("kind=crash"), std::string::npos);
  EXPECT_NE(meta.find("failpoints=worker-segv"), std::string::npos);
  EXPECT_NE(meta.find("signal 11"), std::string::npos);
  fs::remove_all(crashDir);
}

TEST(ProcPool, DoubleCrashYieldsTypedErrorNotALostResponse) {
  AVIV_SKIP_UNDER_TSAN();
  FailPointGuard guard;
  PoolConfig config = quickConfig();
  FailPoints::instance().configure("worker-abort");
  WorkerPool pool(config);  // armed worker; respawns stay armed too

  const net::NetResponse result = pool.execute(kLine, false);
  EXPECT_EQ(result.type, net::FrameType::kError);
  EXPECT_EQ(result.crashRetries, 2);
  EXPECT_NE(result.detail.find("crashed twice"), std::string::npos);
  EXPECT_NE(result.detail.find("signal 6"), std::string::npos);

  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.crashes, 2u);
  EXPECT_EQ(stats.crashFailed, 1u);
  EXPECT_EQ(stats.crashRetried, 0u);

  // The supervisor itself survived; a clean fleet serves the next request.
  FailPoints::instance().clear();
  const net::NetResponse after = pool.execute(kLine, false);
  EXPECT_EQ(after.type, net::FrameType::kOk) << after.detail;
}

TEST(ProcPool, BreakerTripsOnCrashLoopAndRecoversAfterWindow) {
  AVIV_SKIP_UNDER_TSAN();
  FailPointGuard guard;
  PoolConfig config = quickConfig();
  config.crashLoopK = 2;
  config.crashLoopWindowSeconds = 1.0;
  FailPoints::instance().configure("worker-abort");
  WorkerPool pool(config);

  // Two crashes of the same line inside the window trip the breaker.
  const net::NetResponse first = pool.execute(kLine, false);
  EXPECT_EQ(first.type, net::FrameType::kError);
  EXPECT_EQ(first.crashRetries, 2);
  EXPECT_EQ(pool.stats().breakerOpens, 1u);

  // Open breaker: served in-process by the baseline engine — no worker is
  // burned, the caller still gets a real compile.
  const net::NetResponse served = pool.execute(kLine, false);
  EXPECT_EQ(served.type, net::FrameType::kDegraded) << served.detail;
  EXPECT_NE(served.detail.find("breaker=baseline"), std::string::npos);
  EXPECT_EQ(served.crashRetries, 0);
  EXPECT_EQ(pool.stats().breakerServed, 1u);
  EXPECT_EQ(pool.stats().crashes, 2u);  // breaker path burned no workers

  // Window expiry half-opens: with the fault gone, workers serve again.
  FailPoints::instance().clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(1200));
  const net::NetResponse recovered = pool.execute(kLine, false);
  EXPECT_EQ(recovered.type, net::FrameType::kOk) << recovered.detail;
  EXPECT_EQ(pool.stats().breakerServed, 1u);  // a worker answered this one
}

TEST(ProcPool, HardDeadlineKillsHungWorkerAndBundleReplaysAsKill) {
  AVIV_SKIP_UNDER_TSAN();
  FailPointGuard guard;
  const std::string crashDir = uniqueTempDir("hang");
  PoolConfig config = quickConfig();
  config.hardDeadlineMs = 300;
  config.crashDir = crashDir;
  FailPoints::instance().configure("worker-hang");
  WorkerPool pool(config);
  FailPoints::instance().clear();

  const net::NetResponse result = pool.execute(kLine, false);
  EXPECT_EQ(result.type, net::FrameType::kOk) << result.detail;
  EXPECT_EQ(result.crashRetries, 1);
  const PoolStats stats = pool.stats();
  EXPECT_EQ(stats.deadlineKills, 1u);
  EXPECT_EQ(stats.crashRetried, 1u);

  // The SIGKILL landed as a kind=kill bundle whose replay hangs past the
  // recorded deadline — the standalone reproduction of "this hung".
  const std::string bundle = onlyBundle(crashDir);
  ASSERT_FALSE(bundle.empty());
  const CrashRepro repro = loadCrashRepro(ReproBundle::load(bundle));
  EXPECT_EQ(repro.kind, BundleKind::kKill);
  EXPECT_EQ(repro.failpointSite, "worker-hang");
  EXPECT_EQ(repro.deadlineMs, 300);
  const BundleReplay replay = replayCrashRepro(repro);
  EXPECT_TRUE(replay.reproduced) << replay.detail;
  fs::remove_all(crashDir);
}

TEST(ProcPool, TornMidWriteFrameIsACrashNotAWedge) {
  AVIV_SKIP_UNDER_TSAN();
  FailPointGuard guard;
  PoolConfig config = quickConfig();
  FailPoints::instance().configure("worker-torn-write");
  WorkerPool pool(config);
  FailPoints::instance().clear();

  // The worker compiles, writes HALF a response frame, and dies. The
  // supervisor must treat the torn stream as a crash and retry — never
  // deliver garbage, never hang on the poisoned decoder.
  const net::NetResponse result = pool.execute(kLine, false);
  EXPECT_EQ(result.type, net::FrameType::kOk) << result.detail;
  EXPECT_EQ(result.crashRetries, 1);
  EXPECT_EQ(pool.stats().crashes, 1u);

  // And the pool is fully live afterwards.
  const net::NetResponse after = pool.execute(kLine, false);
  EXPECT_EQ(after.type, net::FrameType::kOk) << after.detail;
  EXPECT_EQ(after.crashRetries, 0);
}

TEST(ProcPool, OomWorkerIsContainedByRssCap) {
  AVIV_SKIP_UNDER_TSAN();
  FailPointGuard guard;
  PoolConfig config = quickConfig();
  config.env.rssLimitBytes = 256ull << 20;
  FailPoints::instance().configure("worker-oom");
  WorkerPool pool(config);
  FailPoints::instance().clear();

  // The OOM model allocates until RLIMIT_AS refuses, then aborts: one dead
  // worker, one retry, zero effect on the supervisor's own memory.
  const net::NetResponse result = pool.execute(kLine, false);
  EXPECT_EQ(result.type, net::FrameType::kOk) << result.detail;
  EXPECT_EQ(result.crashRetries, 1);
}

TEST(ProcPool, OnCrashHookFiresBeforeTheRetry) {
  AVIV_SKIP_UNDER_TSAN();
  FailPointGuard guard;
  std::atomic<int> sweeps{0};
  PoolConfig config = quickConfig();
  config.onCrash = [&sweeps] { ++sweeps; };
  FailPoints::instance().configure("worker-segv");
  WorkerPool pool(config);
  FailPoints::instance().clear();

  const net::NetResponse result = pool.execute(kLine, false);
  EXPECT_EQ(result.type, net::FrameType::kOk) << result.detail;
  EXPECT_EQ(sweeps.load(), 1);
}

TEST(ProcPool, EveryRequestGetsExactlyOneTypedAnswerUnderRandomCrashes) {
  AVIV_SKIP_UNDER_TSAN();
  FailPointGuard guard;
  PoolConfig config = quickConfig();
  config.workers = 2;
  config.crashLoopK = 1000;  // let every crash reach the retry path
  // Probabilistic crash mix, fixed seed: the supervision path sees a
  // deterministic but irregular schedule of segvs and aborts.
  FailPoints::instance().configure("worker-segv:0.3,worker-abort:0.2", 42);
  WorkerPool pool(config);

  constexpr int kThreads = 3;
  constexpr int kPerThread = 5;
  std::atomic<int> answered{0};
  std::atomic<int> badType{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &answered, &badType, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Distinct lines per thread keep the breaker counts per-line honest.
        const std::string line = std::string(kLine) + " timeout=" +
                                 std::to_string(10 + t);
        const net::NetResponse result = pool.execute(line, false);
        ++answered;
        if (!net::isResponseType(result.type)) ++badType;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // The contract: one typed answer per request, no exceptions, and the
  // supervisor outlives every worker death.
  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  EXPECT_EQ(badType.load(), 0);
  EXPECT_EQ(pool.stats().requests,
            static_cast<uint64_t>(kThreads * kPerThread));

  FailPoints::instance().clear();
  const net::NetResponse after = pool.execute(kLine, false);
  EXPECT_EQ(after.type, net::FrameType::kOk) << after.detail;
}

}  // namespace
}  // namespace aviv::proc
