// Two-tier compile-result cache (DESIGN.md System 23). Keyed by the
// canonical fingerprint (service/fingerprint.h), an entry holds everything
// needed to replay one block compile without covering work:
//
//   * the CodeImage in scope-independent form — data-memory addresses are
//     SymbolScope provisional ordinals, replayed into the consumer's
//     symbol scope on a hit (rebindSymbols, asmgen/encode.h), which makes
//     one entry valid for standalone blocks and for any block position
//     inside a program;
//   * the interned symbol names in first-use order;
//   * the verification pedigree (verified bit + verifier version).
//
// An entry carries no telemetry of the compile that produced it: a hit
// records only its own `cacheHits` counter.
//
// Tier 1 is an in-memory sharded LRU (lock per shard). Tier 2 is an
// on-disk content-addressed store: dir/objects/<h2>/<h30>.avivce. Each
// entry is self-describing: framed with a magic, a format version, the
// fingerprint, and a checksum; any mismatch —
// truncation, bit flips, stale format — is counted as `corrupt`, the file
// is removed, and the lookup reports a miss so the caller recompiles and
// rewrites a valid entry. The cache never fails a compile.
//
// Thread-safety: all public methods are safe to call concurrently (the
// daemon and the parallel program driver hit one cache from pool workers).
// Stats are atomics; disk writes go through a unique temp file + rename.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "asmgen/code_image.h"
#include "support/hash.h"
#include "support/stat_fields.h"

namespace aviv {

struct CacheEntry {
  std::string blockName;    // informational (diagnostics, cache tooling)
  std::string machineName;  // informational
  // Symbol names in first-use order; ordinal i backs provisional address
  // SymbolScope::provisionalAddr(i) inside `image`.
  std::vector<std::string> symbolNames;
  // Differential-verification pedigree (src/verify/): `verified` records
  // that the image passed simulator-vs-interpreter replay before it was
  // stored, under verifier version `verifierVersion`. Verified warm hits
  // skip the simulator entirely; unverified entries (stored under
  // VerifyLevel::kSampled, or with verification off but the same salt) are
  // re-checked on the first verifying hit and upgraded in place.
  bool verified = false;
  uint32_t verifierVersion = 0;
  // Scope-independent encoded block (provisional data-memory addresses).
  CodeImage image;
};

// Payload codec (the framing with magic/version/checksum is the cache's
// job). deserializeCacheEntry throws aviv::Error on malformed input.
[[nodiscard]] std::string serializeCacheEntry(const CacheEntry& entry);
[[nodiscard]] CacheEntry deserializeCacheEntry(std::string_view data);

struct CacheStats {
  int64_t lookups = 0;
  int64_t hits = 0;        // memoryHits + diskHits
  int64_t misses = 0;
  int64_t memoryHits = 0;
  int64_t diskHits = 0;
  int64_t stores = 0;
  int64_t evictions = 0;   // memory-tier LRU evictions
  int64_t corrupt = 0;     // disk entries rejected (and removed)
  int64_t writeErrors = 0; // disk stores abandoned (entry stays uncached)
  int64_t ioRetries = 0;   // transient I/O failures retried (support/retry.h)
  int64_t tmpSwept = 0;    // stale temp files removed by the startup sweep
  int64_t lookupNanos = 0; // total wall time spent inside lookup()

  // The one field list every sink walks (support/stat_fields.h).
  static constexpr auto fields() {
    using S = CacheStats;
    return std::to_array<StatField<S>>({
        {"lookups", &S::lookups},         {"hits", &S::hits},
        {"misses", &S::misses},           {"memoryHits", &S::memoryHits},
        {"diskHits", &S::diskHits},       {"stores", &S::stores},
        {"evictions", &S::evictions},     {"corrupt", &S::corrupt},
        {"writeErrors", &S::writeErrors}, {"ioRetries", &S::ioRetries},
        {"tmpSwept", &S::tmpSwept},       {"lookupNanos", &S::lookupNanos},
    });
  }
};
static_assert(coversEveryMember<CacheStats>());

struct CacheConfig {
  // On-disk store directory; empty = memory-only cache.
  std::string dir;
  // Memory-tier capacity in entries across all shards; 0 disables tier 1.
  size_t memoryEntries = 1024;
  // Lock shards for the memory tier.
  int shards = 8;
  // Minimum age for the constructor's torn-write sweep. The default (0)
  // sweeps everything — right for a daemon opening its store first. A
  // respawned compile worker (src/proc) opening the SAME store while
  // siblings are writing sets this so the startup sweep cannot remove a
  // live sibling's in-progress temp.
  double sweepMinAgeSeconds = 0.0;
};

class ResultCache {
 public:
  // Bump when the entry payload or framing layout changes; old files then
  // fail the version check, are counted corrupt, and get rewritten.
  // v2: verified bit + verifier version (PR 4 verification guardrail).
  // v3: the stats JSON of the producing compile is no longer stored.
  static constexpr uint32_t kEntryFormatVersion = 3;

  // Creates the store directory when `config.dir` is set.
  // Throws aviv::Error when the directory cannot be created.
  explicit ResultCache(CacheConfig config);

  // nullptr on miss. The returned entry is shared and immutable; copy the
  // image before mutating it.
  [[nodiscard]] std::shared_ptr<const CacheEntry> lookup(const Hash128& key);

  void store(const Hash128& key, CacheEntry entry);

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  // On-disk path an entry for `key` would live at; empty for memory-only
  // caches. Exposed for the corruption tests and cache tooling.
  [[nodiscard]] std::string entryPath(const Hash128& key) const;

  // Removes stale `*.tmp` files under objects/ — the startup torn-write
  // sweep, callable again mid-run. A compile worker SIGKILLed between
  // writeFile and rename (src/proc) leaves a fresh temp behind, so the
  // supervisor re-sweeps after every worker crash; `minAgeSeconds` skips
  // temps younger than that, so a sweep racing a *live* writer's
  // in-progress temp leaves it alone (and even a misjudged removal is
  // recoverable: the writer's rename failure is a counted writeError, the
  // entry is simply not cached). Counts into stats().tmpSwept; never
  // throws. No-op for memory-only caches.
  void sweepStaleTemps(double minAgeSeconds = 0.0);

 private:
  struct Shard {
    std::mutex mu;
    // Front = most recently used.
    std::list<std::pair<Hash128, std::shared_ptr<const CacheEntry>>> lru;
    std::map<Hash128,
             std::list<std::pair<Hash128,
                                 std::shared_ptr<const CacheEntry>>>::iterator>
        index;
  };

  Shard& shardFor(const Hash128& key);
  void memoryInsert(const Hash128& key,
                    std::shared_ptr<const CacheEntry> entry);
  [[nodiscard]] std::shared_ptr<const CacheEntry> memoryLookup(
      const Hash128& key);
  [[nodiscard]] std::shared_ptr<const CacheEntry> diskLookup(
      const Hash128& key);
  void diskStore(const Hash128& key, const CacheEntry& entry);
  // Removes temp files a crashed/killed writer left under objects/, aged
  // at least `minAgeSeconds`.
  void sweepTempFiles(double minAgeSeconds = 0.0);
  // Runs `fn` under the transient-retry policy (support/retry.h), counting
  // each retry into ioRetries; the final failure propagates.
  void retryIo(const std::function<void()>& fn);

  CacheConfig config_;
  size_t perShardCapacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<uint64_t> tempCounter_{0};
  AtomicStats<CacheStats> stats_;
};

}  // namespace aviv
