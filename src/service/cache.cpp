#include "service/cache.h"

#include <algorithm>
#include <chrono>
#include <filesystem>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/error.h"
#include "support/failpoint.h"
#include "support/io.h"
#include "support/retry.h"
#include "support/serial.h"
#include "support/timer.h"

namespace aviv {

namespace fs = std::filesystem;

namespace {

// "AVCE" little-endian.
constexpr uint32_t kEntryMagic = 0x45435641u;

void putLoc(ByteWriter& w, const Loc& loc) {
  w.u8(static_cast<uint8_t>(loc.kind));
  w.u16(loc.index);
}

Loc getLoc(ByteReader& r) {
  Loc loc;
  loc.kind = static_cast<Loc::Kind>(r.u8());
  if (loc.kind != Loc::Kind::kRegFile && loc.kind != Loc::Kind::kMemory)
    throw Error("cache entry: invalid storage-location kind");
  loc.index = r.u16();
  return loc;
}

}  // namespace

std::string serializeCacheEntry(const CacheEntry& entry) {
  ByteWriter w;
  w.str(entry.blockName);
  w.str(entry.machineName);
  w.u32(static_cast<uint32_t>(entry.symbolNames.size()));
  for (const std::string& name : entry.symbolNames) w.str(name);
  w.u8(entry.verified ? 1 : 0);
  w.u32(entry.verifierVersion);

  const CodeImage& image = entry.image;
  w.str(image.blockName);
  w.str(image.machineName);
  w.i32(image.spillBase);
  w.i32(image.numSpillSlots);
  w.u32(static_cast<uint32_t>(image.constPool.size()));
  for (const auto& [addr, value] : image.constPool) {
    w.i32(addr);
    w.i64(value);
  }
  w.u32(static_cast<uint32_t>(image.outputs.size()));
  for (const OutputBinding& binding : image.outputs) {
    w.str(binding.name);
    w.u8(binding.inMemory ? 1 : 0);
    putLoc(w, binding.loc);
    w.i32(binding.reg);
    w.i32(binding.memAddr);
  }
  w.u32(static_cast<uint32_t>(image.instrs.size()));
  for (const EncInstr& instr : image.instrs) {
    w.u32(static_cast<uint32_t>(instr.ops.size()));
    for (const EncOp& op : instr.ops) {
      w.u16(op.unit);
      w.u8(static_cast<uint8_t>(op.op));
      w.str(op.mnemonic);
      w.i32(op.dstReg);
      w.u32(static_cast<uint32_t>(op.srcs.size()));
      for (const EncOperand& src : op.srcs) {
        w.u8(src.isImm ? 1 : 0);
        w.i32(src.reg);
        w.i64(src.imm);
      }
    }
    w.u32(static_cast<uint32_t>(instr.xfers.size()));
    for (const EncXfer& xfer : instr.xfers) {
      w.u16(xfer.bus);
      putLoc(w, xfer.from);
      putLoc(w, xfer.to);
      w.i32(xfer.srcReg);
      w.i32(xfer.dstReg);
      w.i32(xfer.memAddr);
      w.str(xfer.comment);
    }
  }
  return w.take();
}

CacheEntry deserializeCacheEntry(std::string_view data) {
  ByteReader r(data);
  CacheEntry entry;
  entry.blockName = r.str();
  entry.machineName = r.str();
  const uint32_t numSymbols = r.u32();
  entry.symbolNames.reserve(numSymbols);
  for (uint32_t i = 0; i < numSymbols; ++i)
    entry.symbolNames.push_back(r.str());
  entry.verified = r.u8() != 0;
  entry.verifierVersion = r.u32();

  CodeImage& image = entry.image;
  image.blockName = r.str();
  image.machineName = r.str();
  image.spillBase = r.i32();
  image.numSpillSlots = r.i32();
  const uint32_t numCells = r.u32();
  image.constPool.reserve(numCells);
  for (uint32_t i = 0; i < numCells; ++i) {
    const int addr = r.i32();
    const int64_t value = r.i64();
    image.constPool.emplace_back(addr, value);
  }
  const uint32_t numOutputs = r.u32();
  image.outputs.reserve(numOutputs);
  for (uint32_t i = 0; i < numOutputs; ++i) {
    OutputBinding binding;
    binding.name = r.str();
    binding.inMemory = r.u8() != 0;
    binding.loc = getLoc(r);
    binding.reg = r.i32();
    binding.memAddr = r.i32();
    image.outputs.push_back(std::move(binding));
  }
  const uint32_t numInstrs = r.u32();
  image.instrs.reserve(numInstrs);
  for (uint32_t i = 0; i < numInstrs; ++i) {
    EncInstr instr;
    const uint32_t numOps = r.u32();
    instr.ops.reserve(numOps);
    for (uint32_t j = 0; j < numOps; ++j) {
      EncOp op;
      op.unit = r.u16();
      op.op = static_cast<Op>(r.u8());
      op.mnemonic = r.str();
      op.dstReg = r.i32();
      const uint32_t numSrcs = r.u32();
      op.srcs.reserve(numSrcs);
      for (uint32_t k = 0; k < numSrcs; ++k) {
        EncOperand src;
        src.isImm = r.u8() != 0;
        src.reg = r.i32();
        src.imm = r.i64();
        op.srcs.push_back(src);
      }
      instr.ops.push_back(std::move(op));
    }
    const uint32_t numXfers = r.u32();
    instr.xfers.reserve(numXfers);
    for (uint32_t j = 0; j < numXfers; ++j) {
      EncXfer xfer;
      xfer.bus = r.u16();
      xfer.from = getLoc(r);
      xfer.to = getLoc(r);
      xfer.srcReg = r.i32();
      xfer.dstReg = r.i32();
      xfer.memAddr = r.i32();
      xfer.comment = r.str();
      instr.xfers.push_back(std::move(xfer));
    }
    image.instrs.push_back(std::move(instr));
  }
  if (!r.atEnd())
    throw Error("cache entry: " + std::to_string(r.remaining()) +
                " trailing bytes");
  return entry;
}

ResultCache::ResultCache(CacheConfig config) : config_(std::move(config)) {
  if (config_.shards < 1) config_.shards = 1;
  if (config_.memoryEntries > 0) {
    perShardCapacity_ =
        std::max<size_t>(1, config_.memoryEntries /
                                static_cast<size_t>(config_.shards));
    shards_.reserve(static_cast<size_t>(config_.shards));
    for (int i = 0; i < config_.shards; ++i)
      shards_.push_back(std::make_unique<Shard>());
  }
  if (!config_.dir.empty()) {
    std::error_code ec;
    fs::create_directories(fs::path(config_.dir) / "objects", ec);
    if (ec)
      throw Error("cannot create cache directory '" + config_.dir +
                  "': " + ec.message());
    sweepTempFiles(config_.sweepMinAgeSeconds);
  }
}

// A writer that crashed (or was killed) between writeFile and rename leaves
// a *.tmp<N> file behind. They are dead weight — no reader ever opens them
// and no writer reuses their names — so each startup clears them out.
void ResultCache::sweepTempFiles(double minAgeSeconds) {
  std::error_code ec;
  const fs::path objects = fs::path(config_.dir) / "objects";
  fs::recursive_directory_iterator it(objects, ec), end;
  const auto now = fs::file_time_type::clock::now();
  while (!ec && it != end) {
    std::error_code fileEc;
    if (it->is_regular_file(fileEc) && !fileEc &&
        it->path().filename().string().find(".tmp") != std::string::npos) {
      bool oldEnough = true;
      if (minAgeSeconds > 0) {
        const fs::file_time_type mtime = fs::last_write_time(it->path(), fileEc);
        // An unreadable mtime (file already renamed/removed) is not a
        // reason to sweep: leave it for the next pass.
        oldEnough = !fileEc &&
                    std::chrono::duration<double>(now - mtime).count() >=
                        minAgeSeconds;
      }
      if (oldEnough) {
        fs::remove(it->path(), fileEc);
        if (!fileEc) stats_.add(&CacheStats::tmpSwept);
      }
    }
    it.increment(ec);
  }
}

void ResultCache::sweepStaleTemps(double minAgeSeconds) {
  if (config_.dir.empty()) return;
  sweepTempFiles(minAgeSeconds);
}

void ResultCache::retryIo(const std::function<void()>& fn) {
  retryTransient(fn, [this] { stats_.add(&CacheStats::ioRetries); });
}

ResultCache::Shard& ResultCache::shardFor(const Hash128& key) {
  return *shards_[key.hi % static_cast<uint64_t>(shards_.size())];
}

std::shared_ptr<const CacheEntry> ResultCache::memoryLookup(
    const Hash128& key) {
  if (shards_.empty()) return nullptr;
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it == shard.index.end()) return nullptr;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  return it->second->second;
}

void ResultCache::memoryInsert(const Hash128& key,
                               std::shared_ptr<const CacheEntry> entry) {
  if (shards_.empty()) return;
  Shard& shard = shardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.index.find(key);
  if (it != shard.index.end()) {
    it->second->second = std::move(entry);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(key, std::move(entry));
  shard.index[key] = shard.lru.begin();
  while (shard.lru.size() > perShardCapacity_) {
    shard.index.erase(shard.lru.back().first);
    shard.lru.pop_back();
    stats_.add(&CacheStats::evictions);
  }
}

std::string ResultCache::entryPath(const Hash128& key) const {
  if (config_.dir.empty()) return {};
  const std::string hex = key.hex();
  return (fs::path(config_.dir) / "objects" / hex.substr(0, 2) /
          (hex.substr(2) + ".avivce"))
      .string();
}

std::shared_ptr<const CacheEntry> ResultCache::diskLookup(
    const Hash128& key) {
  if (config_.dir.empty()) return nullptr;
  const std::string path = entryPath(key);
  std::error_code ec;
  if (!fs::exists(path, ec)) return nullptr;
  std::string framed;
  try {
    retryIo([&] {
      FailPoints::instance().maybeThrow("cache-read");
      framed = readFile(path);
    });
  } catch (const Error&) {
    // A read that keeps failing says nothing about the entry's health —
    // report a miss and leave the file for a later, luckier lookup.
    return nullptr;
  }
  try {
    ByteReader r(framed);
    if (r.u32() != kEntryMagic)
      throw Error("cache entry: bad magic");
    if (r.u32() != kEntryFormatVersion)
      throw Error("cache entry: stale format version");
    if (Hash128{r.u64(), r.u64()} != key)
      throw Error("cache entry: fingerprint mismatch");
    const uint64_t payloadSize = r.u64();
    if (r.remaining() < sizeof(uint64_t) ||
        payloadSize != r.remaining() - sizeof(uint64_t))
      throw Error("cache entry: payload size mismatch");
    const size_t payloadOffset = framed.size() - r.remaining();
    const std::string_view payload(framed.data() + payloadOffset,
                                   payloadSize);
    ByteReader tail(
        std::string_view(framed).substr(payloadOffset + payloadSize));
    if (tail.u64() != hash64(payload.data(), payload.size()))
      throw Error("cache entry: checksum mismatch");
    FailPoints::instance().maybeThrow("cache-deserialize");
    auto entry =
        std::make_shared<const CacheEntry>(deserializeCacheEntry(payload));
    memoryInsert(key, entry);
    return entry;
  } catch (const Error&) {
    // Truncated, bit-flipped, or stale-format file: drop it so the caller
    // recompiles and rewrites a valid entry.
    stats_.add(&CacheStats::corrupt);
    fs::remove(path, ec);
    return nullptr;
  }
}

void ResultCache::diskStore(const Hash128& key, const CacheEntry& entry) {
  if (config_.dir.empty()) return;
  FailPoints& fp = FailPoints::instance();
  if (fp.shouldFail("cache-serialize")) {
    // Simulated serialization failure: the entry stays uncached, nothing
    // reaches the disk.
    stats_.add(&CacheStats::writeErrors);
    return;
  }
  const std::string payload = serializeCacheEntry(entry);
  ByteWriter w;
  w.u32(kEntryMagic);
  w.u32(kEntryFormatVersion);
  w.u64(key.hi);
  w.u64(key.lo);
  w.u64(payload.size());
  ByteWriter framed = std::move(w);
  std::string out = framed.take();
  out += payload;
  ByteWriter checksum;
  checksum.u64(hash64(payload.data(), payload.size()));
  out += checksum.buffer();

  const fs::path path = entryPath(key);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  // Unique temp name per writer, then an atomic rename: concurrent stores
  // of the same key are both valid, last rename wins.
  const fs::path temp =
      path.parent_path() /
      (path.filename().string() + ".tmp" +
       std::to_string(tempCounter_.fetch_add(1, std::memory_order_relaxed)));
  try {
    retryIo([&] {
      fp.maybeThrow("cache-write");
      if (fp.shouldFail("cache-torn-write")) {
        // Simulated power loss mid-write: only a prefix of the entry makes
        // it to disk, and the rename still lands it at the final path. The
        // framing (size + checksum) catches it on the next lookup.
        writeFile(temp.string(), out.substr(0, out.size() / 2));
      } else {
        writeFile(temp.string(), out);
      }
      fp.maybeThrow("cache-rename");
      std::error_code renameEc;
      fs::rename(temp, path, renameEc);
      if (renameEc)
        throw Error("cache entry rename failed: " + renameEc.message());
    });
  } catch (const Error&) {
    // A cache that cannot write (full disk, permissions, injected faults)
    // must not fail the compile; the result simply stays uncached, the
    // temp file is cleaned up, and the event is counted.
    stats_.add(&CacheStats::writeErrors);
    fs::remove(temp, ec);
  }
}

std::shared_ptr<const CacheEntry> ResultCache::lookup(const Hash128& key) {
  const WallTimer timer;
  stats_.add(&CacheStats::lookups);
  std::shared_ptr<const CacheEntry> entry = memoryLookup(key);
  if (entry != nullptr) {
    stats_.add(&CacheStats::memoryHits);
  } else {
    entry = diskLookup(key);
    if (entry != nullptr)
      stats_.add(&CacheStats::diskHits);
    else
      stats_.add(&CacheStats::misses);
  }
  const auto nanos = static_cast<int64_t>(timer.seconds() * 1e9);
  stats_.add(&CacheStats::lookupNanos, nanos);
  if (metrics::on())
    metrics::Registry::instance()
        .histogram("cache.lookup.us")
        .record(nanos / 1000);
  return entry;
}

void ResultCache::store(const Hash128& key, CacheEntry entry) {
  trace::instant("service", "cache.store:", entry.blockName);
  auto shared = std::make_shared<const CacheEntry>(std::move(entry));
  diskStore(key, *shared);
  memoryInsert(key, std::move(shared));
  stats_.add(&CacheStats::stores);
}

CacheStats ResultCache::stats() const {
  CacheStats s = stats_.snapshot();
  s.hits = s.memoryHits + s.diskHits;
  return s;
}

}  // namespace aviv
