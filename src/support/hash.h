// Self-contained 128-bit content hashing for the compilation service. The
// service keys its result cache on a canonical fingerprint of (machine, IR
// DAG, options); that key must be stable across processes, platforms, and
// rebuilds, so the hash here is defined entirely by this file — no
// std::hash (implementation-defined), no external libraries.
//
// Hasher is a streaming hash: every primitive is fed as a 1-byte type tag
// followed by a fixed-width little-endian payload, so adjacent fields can
// never alias each other ("ab" + "c" hashes differently from "a" + "bc").
// The two 64-bit lanes use different FNV-style primes and are finalized
// with a murmur-style avalanche, which is plenty for cache keying (corrupt
// entries are additionally caught by a per-entry checksum, see hash64).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace aviv {

struct Hash128 {
  uint64_t hi = 0;
  uint64_t lo = 0;

  bool operator==(const Hash128&) const = default;
  auto operator<=>(const Hash128&) const = default;

  [[nodiscard]] bool isZero() const { return hi == 0 && lo == 0; }
  // 32 lowercase hex characters, hi first.
  [[nodiscard]] std::string hex() const;
};

class Hasher {
 public:
  // Raw bytes (no tag, no length); building block for the typed feeders.
  Hasher& bytes(const void* data, size_t n);

  Hasher& u8(uint8_t v);
  Hasher& u16(uint16_t v);
  Hasher& u32(uint32_t v);
  Hasher& u64(uint64_t v);
  Hasher& i64(int64_t v);
  Hasher& boolean(bool v);
  // Bit pattern of the double; all producers write the same canonical
  // value, so bitwise identity is the right equality here.
  Hasher& f64(double v);
  // Length-prefixed, so consecutive strings cannot alias.
  Hasher& str(std::string_view s);

  [[nodiscard]] Hash128 digest() const;

 private:
  uint64_t h1_ = 0xcbf29ce484222325ull;  // FNV-1a 64 offset basis
  uint64_t h2_ = 0x9e3779b97f4a7c15ull;  // golden-ratio seed
  uint64_t length_ = 0;
};

// One-shot 64-bit hash of a byte buffer — the cache's entry checksum.
[[nodiscard]] uint64_t hash64(const void* data, size_t n);

// In-process 128-bit key of a byte buffer: the request path's memo key for
// a machine or block file's bytes (service/request.cpp). It reads 8-byte
// little-endian words, two lanes at a time, so it is several times faster
// than Hasher's byte loop and still independent of host endianness. It is
// never persisted: no cache key, fingerprint, checksum or file holds it,
// so its definition may change with any build.
[[nodiscard]] Hash128 contentHash(std::string_view bytes);

}  // namespace aviv
