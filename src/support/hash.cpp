#include "support/hash.h"

#include <bit>
#include <cstring>

namespace aviv {

namespace {

// Murmur3's 64-bit finalizer: full avalanche, well studied.
uint64_t fmix64(uint64_t k) {
  k ^= k >> 33;
  k *= 0xff51afd7ed558ccdull;
  k ^= k >> 33;
  k *= 0xc4ceb9fe1a85ec53ull;
  k ^= k >> 33;
  return k;
}

}  // namespace

std::string Hash128::hex() const {
  static const char* digits = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    const uint64_t word = i < 8 ? hi : lo;
    const int shift = 56 - 8 * (i % 8);
    const uint8_t byte = static_cast<uint8_t>(word >> shift);
    out[static_cast<size_t>(2 * i)] = digits[byte >> 4];
    out[static_cast<size_t>(2 * i + 1)] = digits[byte & 0xf];
  }
  return out;
}

Hasher& Hasher::bytes(const void* data, size_t n) {
  // Byte-at-a-time keeps the result independent of host endianness and
  // alignment. Fingerprint inputs are small (a machine model, a block DAG),
  // so throughput is irrelevant next to a covering run.
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h1_ = (h1_ ^ p[i]) * 0x100000001b3ull;        // FNV-1a 64 prime
    h2_ = (h2_ ^ p[i]) * 0x00000100000001b3ull ^  // second lane: same prime,
          (h2_ << 7 | h2_ >> 57);                 // extra rotation mixing
  }
  length_ += n;
  return *this;
}

namespace {
enum Tag : uint8_t {
  kTagU8 = 1,
  kTagU16,
  kTagU32,
  kTagU64,
  kTagI64,
  kTagBool,
  kTagF64,
  kTagStr,
};
}  // namespace

Hasher& Hasher::u8(uint8_t v) {
  const uint8_t buf[2] = {kTagU8, v};
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::u16(uint16_t v) {
  const uint8_t buf[3] = {kTagU16, static_cast<uint8_t>(v),
                          static_cast<uint8_t>(v >> 8)};
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::u32(uint32_t v) {
  uint8_t buf[5] = {kTagU32};
  for (int i = 0; i < 4; ++i) buf[i + 1] = static_cast<uint8_t>(v >> (8 * i));
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::u64(uint64_t v) {
  uint8_t buf[9] = {kTagU64};
  for (int i = 0; i < 8; ++i) buf[i + 1] = static_cast<uint8_t>(v >> (8 * i));
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::i64(int64_t v) {
  uint8_t buf[9] = {kTagI64};
  const auto u = static_cast<uint64_t>(v);
  for (int i = 0; i < 8; ++i) buf[i + 1] = static_cast<uint8_t>(u >> (8 * i));
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::boolean(bool v) {
  const uint8_t buf[2] = {kTagBool, static_cast<uint8_t>(v ? 1 : 0)};
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::f64(double v) {
  uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof bits);
  uint8_t buf[9] = {kTagF64};
  for (int i = 0; i < 8; ++i)
    buf[i + 1] = static_cast<uint8_t>(bits >> (8 * i));
  return bytes(buf, sizeof buf);
}

Hasher& Hasher::str(std::string_view s) {
  uint8_t buf[9] = {kTagStr};
  const auto n = static_cast<uint64_t>(s.size());
  for (int i = 0; i < 8; ++i) buf[i + 1] = static_cast<uint8_t>(n >> (8 * i));
  bytes(buf, sizeof buf);
  return bytes(s.data(), s.size());
}

Hash128 Hasher::digest() const {
  uint64_t a = fmix64(h1_ ^ length_);
  uint64_t b = fmix64(h2_ ^ (length_ * 0x9e3779b97f4a7c15ull));
  // Cross-mix so each output word depends on both lanes.
  Hash128 out;
  out.hi = fmix64(a + (b << 32 | b >> 32));
  out.lo = fmix64(b + a);
  return out;
}

uint64_t hash64(const void* data, size_t n) {
  Hasher h;
  h.bytes(data, n);
  const Hash128 d = h.digest();
  return d.hi ^ d.lo;
}

namespace {

// One little-endian word from any alignment.
uint64_t loadWord(const char* p) {
  uint64_t w = 0;
  std::memcpy(&w, p, sizeof w);
  if constexpr (std::endian::native == std::endian::big)
    w = __builtin_bswap64(w);
  return w;
}

constexpr uint64_t kMixA = 0x87c37b91114253d5ull;
constexpr uint64_t kMixB = 0x4cf5ad432745937full;

// Bijective per-word scramble before a word enters a lane.
uint64_t scramble(uint64_t w, int rot, uint64_t m1, uint64_t m2) {
  return std::rotl(w * m1, rot) * m2;
}

}  // namespace

Hash128 contentHash(std::string_view bytes) {
  // Two lanes over alternating words (Murmur3 x64-128's shape). For fixed
  // words each step, the tail and the finalizer are bijections of the
  // (a, b) state, and for a fixed state a step is injective in its words,
  // so two inputs of one length that differ anywhere get different keys.
  const char* p = bytes.data();
  const size_t n = bytes.size();
  uint64_t a = 0x243f6a8885a308d3ull ^ n;
  uint64_t b = 0x13198a2e03707344ull + n;
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    a ^= scramble(loadWord(p + i), 31, kMixA, kMixB);
    a = (std::rotl(a, 27) + b) * 5 + 0x52dce729;
    b ^= scramble(loadWord(p + i + 8), 33, kMixB, kMixA);
    b = (std::rotl(b, 31) + a) * 5 + 0x38495ab5;
  }
  // Tail: up to two zero-padded words; the length mixed in above keeps
  // trailing zero bytes from aliasing a shorter input.
  uint64_t tail[2] = {0, 0};
  if (n > i) std::memcpy(tail, p + i, n - i);
  if constexpr (std::endian::native == std::endian::big) {
    tail[0] = __builtin_bswap64(tail[0]);
    tail[1] = __builtin_bswap64(tail[1]);
  }
  a ^= scramble(tail[0], 31, kMixA, kMixB);
  b ^= scramble(tail[1], 33, kMixB, kMixA);
  a += b;
  b += a;
  a = fmix64(a);
  b = fmix64(b);
  a += b;
  b += a;
  return Hash128{a, b};
}

}  // namespace aviv
