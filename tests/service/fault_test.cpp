// Fault-injection tests for the result cache's disk tier: torn writes,
// rename failures, transient read/write errors with retry (the fixed
// policy of support/retry.h: two retries, so an operation fails only after
// three fires), and stale temp-file sweeping. Faults
// come from the FailPoints registry (support/failpoint.h); every scenario
// must end with the cache healthy and the process alive — the cache never
// fails a compile.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "service/cache.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/hash.h"
#include "support/io.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

class CacheFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("aviv_fault_test_") + info->name()))
               .string();
    fs::remove_all(dir_);
    FailPoints::instance().clear();
  }
  void TearDown() override {
    // The registry is process-global: a leaked fail point would inject
    // faults into unrelated tests in this binary.
    FailPoints::instance().clear();
    fs::remove_all(dir_);
  }

  [[nodiscard]] CacheConfig diskOnlyConfig() const {
    CacheConfig config;
    config.dir = dir_;
    config.memoryEntries = 0;  // force every lookup to the disk tier
    return config;
  }

  std::string dir_;
};

Hash128 makeKey(uint64_t i) { return Hasher().str("fault").u64(i).digest(); }

CacheEntry makeEntry(uint64_t i) {
  CacheEntry entry;
  entry.blockName = "block" + std::to_string(i);
  entry.machineName = "mach";
  entry.symbolNames = {"x"};
  entry.image.blockName = entry.blockName;
  entry.image.machineName = entry.machineName;
  entry.image.spillBase = 8;
  return entry;
}

TEST_F(CacheFaultTest, TornWriteSelfHealsOnNextLookup) {
  ResultCache cache(diskOnlyConfig());
  FailPoints::instance().configure("cache-torn-write:1:1");
  cache.store(makeKey(1), makeEntry(1));
  ASSERT_TRUE(fs::exists(cache.entryPath(makeKey(1))))
      << "the torn entry still reaches its final path";

  // The framing (payload size + checksum) catches the truncation: corrupt,
  // removed, miss — then a rewrite restores a servable entry.
  EXPECT_EQ(cache.lookup(makeKey(1)), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 1);
  EXPECT_FALSE(fs::exists(cache.entryPath(makeKey(1))));
  cache.store(makeKey(1), makeEntry(1));
  EXPECT_NE(cache.lookup(makeKey(1)), nullptr);
}

TEST_F(CacheFaultTest, RenameFailureCleansUpTempAndCounts) {
  ResultCache cache(diskOnlyConfig());
  // Unbounded: every retry fails too, so the write error sticks.
  FailPoints::instance().configure("cache-rename");
  cache.store(makeKey(2), makeEntry(2));

  EXPECT_EQ(cache.stats().writeErrors, 1);
  EXPECT_EQ(cache.stats().ioRetries, 2);
  EXPECT_FALSE(fs::exists(cache.entryPath(makeKey(2))));
  for (const auto& entry :
       fs::recursive_directory_iterator(fs::path(dir_) / "objects"))
    EXPECT_FALSE(entry.is_regular_file()) << "temp file left behind: "
                                          << entry.path();
  // The entry is simply uncached; a later store succeeds.
  FailPoints::instance().clear();
  cache.store(makeKey(2), makeEntry(2));
  EXPECT_NE(cache.lookup(makeKey(2)), nullptr);
}

TEST_F(CacheFaultTest, TransientWriteFailureIsRetriedToSuccess) {
  ResultCache cache(diskOnlyConfig());
  // Two injected failures, two retries: the third attempt lands the entry.
  FailPoints::instance().configure("cache-write:1:2");
  cache.store(makeKey(3), makeEntry(3));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.ioRetries, 2);
  EXPECT_EQ(stats.writeErrors, 0);
  EXPECT_NE(cache.lookup(makeKey(3)), nullptr);
}

TEST_F(CacheFaultTest, ExhaustedWriteRetriesCountAsWriteError) {
  ResultCache cache(diskOnlyConfig());
  FailPoints::instance().configure("cache-write");  // always fails
  cache.store(makeKey(4), makeEntry(4));

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.ioRetries, 2);
  EXPECT_EQ(stats.writeErrors, 1);
  EXPECT_EQ(cache.lookup(makeKey(4)), nullptr);
}

TEST_F(CacheFaultTest, TransientReadFailureIsMissNotCorrupt) {
  ResultCache cache(diskOnlyConfig());
  cache.store(makeKey(5), makeEntry(5));
  // Three fires exhaust the read and both of its retries.
  FailPoints::instance().configure("cache-read:1:3");

  // The read failed, the entry's health is unknown: miss, keep the file.
  EXPECT_EQ(cache.lookup(makeKey(5)), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 0);
  EXPECT_TRUE(fs::exists(cache.entryPath(makeKey(5))));
  // The fault was transient: the next lookup serves the entry.
  EXPECT_NE(cache.lookup(makeKey(5)), nullptr);
}

TEST_F(CacheFaultTest, TransientReadFailureIsRetriedWithinOneLookup) {
  ResultCache cache(diskOnlyConfig());
  cache.store(makeKey(6), makeEntry(6));
  FailPoints::instance().configure("cache-read:1:2");

  EXPECT_NE(cache.lookup(makeKey(6)), nullptr);
  EXPECT_EQ(cache.stats().ioRetries, 2);
}

TEST_F(CacheFaultTest, SerializeFailureLeavesEntryUncached) {
  ResultCache cache(diskOnlyConfig());
  FailPoints::instance().configure("cache-serialize:1:1");
  cache.store(makeKey(7), makeEntry(7));
  EXPECT_EQ(cache.stats().writeErrors, 1);
  EXPECT_EQ(cache.lookup(makeKey(7)), nullptr);
}

TEST_F(CacheFaultTest, StartupSweepsStaleTempFiles) {
  const Hash128 key = makeKey(8);
  std::string entryPath;
  {
    ResultCache writer(diskOnlyConfig());
    writer.store(key, makeEntry(8));
    entryPath = writer.entryPath(key);
  }
  // Simulate writers killed between writeFile and rename.
  const fs::path parent = fs::path(entryPath).parent_path();
  writeFile((parent / "deadbeef.avivce.tmp0").string(), "partial");
  writeFile((parent / "deadbeef.avivce.tmp17").string(), "partial");

  ResultCache cache(diskOnlyConfig());
  EXPECT_EQ(cache.stats().tmpSwept, 2);
  EXPECT_FALSE(fs::exists(parent / "deadbeef.avivce.tmp0"));
  EXPECT_FALSE(fs::exists(parent / "deadbeef.avivce.tmp17"));
  EXPECT_NE(cache.lookup(key), nullptr) << "real entries survive the sweep";
}

}  // namespace
}  // namespace aviv
