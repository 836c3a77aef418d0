// ResultCache unit tests: entry codec round-trips, memory-tier LRU
// behavior, disk persistence across instances, and — the robustness
// acceptance criterion — corrupt on-disk entries (flipped bytes, truncation,
// garbage, stale format) being detected, counted, removed, and rewritten
// without ever surfacing a stale result. The concurrency test runs the
// shared cache from pool workers and is part of the TSan CI job.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "service/cache.h"
#include "support/error.h"
#include "support/hash.h"
#include "support/io.h"
#include "support/serial.h"
#include "support/thread_pool.h"

namespace aviv {
namespace {

namespace fs = std::filesystem;

// Per-test scratch directory (ctest runs tests as separate processes that
// may overlap, so the name must be unique per test).
class CacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = (fs::temp_directory_path() /
            (std::string("aviv_cache_test_") + info->name()))
               .string();
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir_;
};

Hash128 makeKey(uint64_t i) { return Hasher().str("key").u64(i).digest(); }

// An entry exercising every serialized field.
CacheEntry makeEntry(uint64_t i) {
  CacheEntry entry;
  entry.blockName = "block" + std::to_string(i);
  entry.machineName = "mach";
  entry.symbolNames = {"x", "y", "spill#0"};

  CodeImage& image = entry.image;
  image.blockName = entry.blockName;
  image.machineName = entry.machineName;
  image.spillBase = 16;
  image.numSpillSlots = 2;
  image.constPool = {{16, 42}, {17, static_cast<int64_t>(i)}};

  OutputBinding out;
  out.name = "y";
  out.inMemory = true;
  out.loc = Loc::memory(0);
  out.memAddr = -2;  // provisional ordinal 0
  image.outputs.push_back(out);

  EncInstr instr;
  EncOp op;
  op.unit = 1;
  op.op = Op::kAdd;
  op.mnemonic = "add";
  op.dstReg = 2;
  op.srcs = {EncOperand{false, 0, 0}, EncOperand{true, -1, 7}};
  instr.ops.push_back(op);
  EncXfer xfer;
  xfer.bus = 0;
  xfer.from = Loc::memory(0);
  xfer.to = Loc::regFile(0);
  xfer.srcReg = -1;
  xfer.dstReg = 0;
  xfer.memAddr = -3;  // provisional ordinal 1
  xfer.comment = "load y";
  instr.xfers.push_back(xfer);
  image.instrs.push_back(instr);
  return entry;
}

TEST_F(CacheTest, EntryCodecRoundTrips) {
  const CacheEntry original = makeEntry(7);
  const CacheEntry decoded = deserializeCacheEntry(serializeCacheEntry(original));
  EXPECT_EQ(decoded.blockName, original.blockName);
  EXPECT_EQ(decoded.machineName, original.machineName);
  EXPECT_EQ(decoded.symbolNames, original.symbolNames);
  EXPECT_EQ(decoded.image.constPool, original.image.constPool);
  EXPECT_EQ(decoded.image.instrs.size(), original.image.instrs.size());
  // Field-by-field equality in one shot: identical re-serialization.
  EXPECT_EQ(serializeCacheEntry(decoded), serializeCacheEntry(original));
}

TEST_F(CacheTest, CodecRejectsEveryTruncation) {
  const std::string full = serializeCacheEntry(makeEntry(1));
  for (size_t cut = 0; cut < full.size(); ++cut)
    EXPECT_THROW((void)deserializeCacheEntry(
                     std::string_view(full).substr(0, cut)),
                 Error)
        << "cut at " << cut;
}

TEST_F(CacheTest, CodecRejectsTrailingBytes) {
  std::string padded = serializeCacheEntry(makeEntry(1));
  padded.push_back('\0');
  EXPECT_THROW((void)deserializeCacheEntry(padded), Error);
}

TEST_F(CacheTest, MemoryTierEvictsLeastRecentlyUsed) {
  CacheConfig config;
  config.memoryEntries = 2;
  config.shards = 1;  // one shard so capacity is exactly 2 entries
  ResultCache cache(config);
  cache.store(makeKey(1), makeEntry(1));
  cache.store(makeKey(2), makeEntry(2));
  cache.store(makeKey(3), makeEntry(3));  // evicts key 1

  EXPECT_EQ(cache.stats().evictions, 1);
  EXPECT_EQ(cache.lookup(makeKey(1)), nullptr);
  ASSERT_NE(cache.lookup(makeKey(2)), nullptr);
  ASSERT_NE(cache.lookup(makeKey(3)), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, 3);
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.memoryHits, 2);
  EXPECT_EQ(stats.misses, 1);
}

TEST_F(CacheTest, LookupRefreshesLruOrder) {
  CacheConfig config;
  config.memoryEntries = 2;
  config.shards = 1;
  ResultCache cache(config);
  cache.store(makeKey(1), makeEntry(1));
  cache.store(makeKey(2), makeEntry(2));
  ASSERT_NE(cache.lookup(makeKey(1)), nullptr);  // 1 is now hottest
  cache.store(makeKey(3), makeEntry(3));         // evicts 2, not 1
  EXPECT_NE(cache.lookup(makeKey(1)), nullptr);
  EXPECT_EQ(cache.lookup(makeKey(2)), nullptr);
}

TEST_F(CacheTest, DiskTierPersistsAcrossInstances) {
  CacheConfig config;
  config.dir = dir_;
  const CacheEntry original = makeEntry(5);
  {
    ResultCache writer(config);
    writer.store(makeKey(5), original);
  }
  ResultCache reader(config);  // fresh instance: memory tier is empty
  const auto entry = reader.lookup(makeKey(5));
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(serializeCacheEntry(*entry), serializeCacheEntry(original));
  EXPECT_EQ(reader.stats().diskHits, 1);
  // The disk hit repopulated the memory tier.
  ASSERT_NE(reader.lookup(makeKey(5)), nullptr);
  EXPECT_EQ(reader.stats().memoryHits, 1);
}

TEST_F(CacheTest, ZeroMemoryEntriesDisablesTierOne) {
  CacheConfig config;
  config.dir = dir_;
  config.memoryEntries = 0;
  ResultCache cache(config);
  cache.store(makeKey(1), makeEntry(1));
  ASSERT_NE(cache.lookup(makeKey(1)), nullptr);
  ASSERT_NE(cache.lookup(makeKey(1)), nullptr);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.memoryHits, 0);
  EXPECT_EQ(stats.diskHits, 2);
}

// One corruption scenario end to end: mutate the stored file, assert the
// lookup reports corrupt + miss and removes the file, then assert a rewrite
// restores a valid entry.
void expectSelfHealing(const std::string& dir,
                       void (*mutate)(const std::string& path)) {
  CacheConfig config;
  config.dir = dir;
  config.memoryEntries = 0;  // force every lookup to the disk tier
  const Hash128 key = makeKey(9);
  {
    ResultCache writer(config);
    writer.store(key, makeEntry(9));
    mutate(writer.entryPath(key));
  }
  ResultCache cache(config);
  EXPECT_EQ(cache.lookup(key), nullptr);
  const CacheStats afterCorrupt = cache.stats();
  EXPECT_EQ(afterCorrupt.corrupt, 1);
  EXPECT_EQ(afterCorrupt.misses, 1);
  EXPECT_FALSE(fs::exists(cache.entryPath(key)))
      << "corrupt file must be removed";

  // The caller recompiles and rewrites; the rewritten entry must be valid.
  cache.store(key, makeEntry(9));
  const auto entry = cache.lookup(key);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(serializeCacheEntry(*entry), serializeCacheEntry(makeEntry(9)));
  EXPECT_EQ(cache.stats().corrupt, 1) << "valid rewrite must not re-count";
}

TEST_F(CacheTest, FlippedPayloadByteIsCorrupt) {
  expectSelfHealing(dir_, [](const std::string& path) {
    std::string bytes = readFile(path);
    bytes[bytes.size() / 2] ^= 0x01;
    writeFile(path, bytes);
  });
}

TEST_F(CacheTest, TruncatedFileIsCorrupt) {
  expectSelfHealing(dir_, [](const std::string& path) {
    const std::string bytes = readFile(path);
    writeFile(path, bytes.substr(0, bytes.size() / 2));
  });
}

TEST_F(CacheTest, GarbageFileIsCorrupt) {
  expectSelfHealing(dir_, [](const std::string& path) {
    writeFile(path, "this is not a cache entry");
  });
}

TEST_F(CacheTest, StaleFormatVersionIsCorrupt) {
  EXPECT_NO_THROW(expectSelfHealing(dir_, [](const std::string& path) {
    // Rewrite the framing with a future format version but an otherwise
    // self-consistent payload: the version check alone must reject it.
    std::string bytes = readFile(path);
    ByteWriter w;
    w.u32(0x45435641u);  // magic "AVCE"
    w.u32(ResultCache::kEntryFormatVersion + 1);
    bytes.replace(0, w.buffer().size(), w.buffer());
    writeFile(path, bytes);
  }));
  EXPECT_NO_THROW(expectSelfHealing(dir_, [](const std::string& path) {
    // A store written by the previous format, byte for byte: its payload
    // still carries the producing compile's stats JSON after the symbol
    // names, under a correct key, size and checksum.
    const std::string bytes = readFile(path);
    const CacheEntry entry = makeEntry(9);
    ByteWriter symbols;
    symbols.str(entry.blockName);
    symbols.str(entry.machineName);
    symbols.u32(static_cast<uint32_t>(entry.symbolNames.size()));
    for (const std::string& name : entry.symbolNames) symbols.str(name);
    ByteWriter stats;
    stats.str("{\"name\": \"block:block9\"}");
    std::string payload = serializeCacheEntry(entry);
    payload.insert(symbols.buffer().size(), stats.buffer());
    ByteWriter w;
    w.u32(0x45435641u);  // magic "AVCE"
    w.u32(ResultCache::kEntryFormatVersion - 1);
    std::string framed = w.take() + bytes.substr(8, 16);  // the key
    ByteWriter size;
    size.u64(payload.size());
    ByteWriter checksum;
    checksum.u64(hash64(payload.data(), payload.size()));
    writeFile(path, framed + size.buffer() + payload + checksum.buffer());
  }));
}

TEST_F(CacheTest, WrongKeyInFramingIsCorrupt) {
  // A file renamed to the wrong content address must not be served.
  CacheConfig config;
  config.dir = dir_;
  config.memoryEntries = 0;
  ResultCache cache(config);
  cache.store(makeKey(1), makeEntry(1));
  const std::string wrongPath = cache.entryPath(makeKey(2));
  fs::create_directories(fs::path(wrongPath).parent_path());
  fs::rename(cache.entryPath(makeKey(1)), wrongPath);
  EXPECT_EQ(cache.lookup(makeKey(2)), nullptr);
  EXPECT_EQ(cache.stats().corrupt, 1);
}

TEST_F(CacheTest, ConcurrentStoresAndLookupsAreSafe) {
  CacheConfig config;
  config.dir = dir_;
  config.memoryEntries = 8;  // small: force evictions under contention
  config.shards = 4;
  ResultCache cache(config);

  constexpr size_t kOps = 256;
  constexpr uint64_t kKeys = 16;
  ThreadPool pool(4);
  pool.parallelFor(kOps, [&](size_t i, int) {
    const uint64_t k = i % kKeys;
    if (i % 3 == 0) {
      cache.store(makeKey(k), makeEntry(k));
    } else if (const auto entry = cache.lookup(makeKey(k))) {
      // Entries are immutable; a hit must always decode to the stored value.
      EXPECT_EQ(entry->blockName, "block" + std::to_string(k));
    }
  });

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_EQ(stats.corrupt, 0);
  EXPECT_GE(stats.stores, static_cast<int64_t>(kKeys));
  // gcd(3, kKeys) = 1, so the store branch reached every key; after the
  // storm each one must be durably readable from disk.
  ResultCache verify(config);
  for (uint64_t k = 0; k < kKeys; ++k)
    EXPECT_NE(verify.lookup(makeKey(k)), nullptr) << "key " << k;
}

}  // namespace
}  // namespace aviv
