#include "support/bitset.h"

#include <gtest/gtest.h>

#include "support/rng.h"

namespace aviv {
namespace {

TEST(DynBitset, StartsEmpty) {
  DynBitset bits(100);
  EXPECT_EQ(bits.size(), 100u);
  EXPECT_EQ(bits.count(), 0u);
  EXPECT_TRUE(bits.none());
  EXPECT_FALSE(bits.any());
}

TEST(DynBitset, SetResetTest) {
  DynBitset bits(130);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 4u);
  bits.reset(63);
  EXPECT_FALSE(bits.test(63));
  EXPECT_EQ(bits.count(), 3u);
}

TEST(DynBitset, ConstructAllSetTrimsTail) {
  DynBitset bits(70, true);
  EXPECT_EQ(bits.count(), 70u);
  bits.resetAll();
  EXPECT_EQ(bits.count(), 0u);
  bits.setAll();
  EXPECT_EQ(bits.count(), 70u);
}

TEST(DynBitset, ResizeGrowWithValue) {
  DynBitset bits(10, false);
  bits.set(3);
  bits.resize(100, true);
  EXPECT_TRUE(bits.test(3));
  EXPECT_FALSE(bits.test(4));
  for (size_t i = 10; i < 100; ++i) EXPECT_TRUE(bits.test(i)) << i;
  EXPECT_EQ(bits.count(), 91u);
}

TEST(DynBitset, SetAlgebra) {
  DynBitset a(80);
  DynBitset b(80);
  a.set(1);
  a.set(70);
  b.set(70);
  b.set(3);

  DynBitset u = a;
  u |= b;
  EXPECT_EQ(u.count(), 3u);

  DynBitset i = a;
  i &= b;
  EXPECT_EQ(i.count(), 1u);
  EXPECT_TRUE(i.test(70));

  DynBitset d = a;
  d.andNot(b);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_TRUE(d.test(1));

  DynBitset x = a;
  x ^= b;
  EXPECT_EQ(x.count(), 2u);
  EXPECT_TRUE(x.test(1));
  EXPECT_TRUE(x.test(3));
}

TEST(DynBitset, SubsetAndIntersect) {
  DynBitset small(200);
  DynBitset big(200);
  small.set(5);
  small.set(150);
  big.set(5);
  big.set(150);
  big.set(199);
  EXPECT_TRUE(small.isSubsetOf(big));
  EXPECT_FALSE(big.isSubsetOf(small));
  EXPECT_TRUE(small.intersects(big));
  EXPECT_EQ(small.intersectCount(big), 2u);

  DynBitset disjoint(200);
  disjoint.set(7);
  EXPECT_FALSE(small.intersects(disjoint));
}

TEST(DynBitset, FindFirstAndIteration) {
  DynBitset bits(300);
  bits.set(65);
  bits.set(128);
  bits.set(299);
  EXPECT_EQ(bits.findFirst(), 65u);
  EXPECT_EQ(bits.findFirst(66), 128u);
  EXPECT_EQ(bits.findFirst(129), 299u);
  EXPECT_EQ(bits.findFirst(300), 300u);

  EXPECT_EQ(bits.toIndices(), (std::vector<size_t>{65, 128, 299}));
}

TEST(DynBitset, LexLessGivesTotalOrder) {
  DynBitset a(70);
  DynBitset b(70);
  a.set(0);
  b.set(1);
  EXPECT_TRUE(a.lexLess(b));
  EXPECT_FALSE(b.lexLess(a));
  EXPECT_FALSE(a.lexLess(a));
}

TEST(DynBitset, RandomizedAgainstReferenceSets) {
  Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.below(250);
    DynBitset bits(n);
    std::vector<bool> ref(n, false);
    for (int step = 0; step < 100; ++step) {
      const size_t i = rng.below(n);
      if (rng.chance(0.5)) {
        bits.set(i);
        ref[i] = true;
      } else {
        bits.reset(i);
        ref[i] = false;
      }
    }
    size_t refCount = 0;
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(bits.test(i), ref[i]);
      refCount += ref[i] ? 1 : 0;
    }
    EXPECT_EQ(bits.count(), refCount);
  }
}

// Word-boundary edge cases: sizes straddling the 64-bit word seams are
// where tail-masking bugs live, and the flattened clique loops (raw-word
// bits:: helpers, assignWords round-trips) lean on these invariants hard.
class DynBitsetBoundary : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(Seams, DynBitsetBoundary,
                         ::testing::Values(63u, 64u, 65u, 128u, 129u));

TEST_P(DynBitsetBoundary, AllSetPopcountAndTailStaysTrimmed) {
  const size_t n = GetParam();
  DynBitset bits(n, true);
  EXPECT_EQ(bits.count(), n);
  // The tail bits past n in the last word must be zero, or lexLess /
  // operator== / assignWords would see phantom bits.
  const uint64_t last = bits.wordData()[bits.wordCount() - 1];
  if (n % 64 != 0) {
    EXPECT_EQ(last & ~((uint64_t{1} << (n % 64)) - 1), 0u);
  }
  bits.setAll();
  EXPECT_EQ(bits.count(), n);
}

TEST_P(DynBitsetBoundary, EdgeBitsSetResetFind) {
  const size_t n = GetParam();
  DynBitset bits(n);
  bits.set(0);
  bits.set(n - 1);
  if (n > 64) bits.set(63), bits.set(64);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(n - 1));
  EXPECT_EQ(bits.findFirst(), 0u);
  EXPECT_EQ(bits.findFirst(n - 1), n - 1);
  EXPECT_EQ(bits.findFirst(n), n);
  bits.reset(n - 1);
  EXPECT_FALSE(bits.test(n - 1));
  std::vector<size_t> seen;
  bits.forEach([&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, bits.toIndices());
}

TEST_P(DynBitsetBoundary, ResizeAcrossTheSeam) {
  const size_t n = GetParam();
  DynBitset bits(n);
  bits.set(n - 1);
  bits.resize(n + 1, true);  // one past: new bit true, old bits kept
  EXPECT_TRUE(bits.test(n - 1));
  EXPECT_TRUE(bits.test(n));
  EXPECT_EQ(bits.count(), 2u);
  bits.resize(n - 1);  // shrink back across the seam: tail must re-trim
  EXPECT_EQ(bits.size(), n - 1);
  EXPECT_EQ(bits.count(), 0u);
  bits.setAll();
  EXPECT_EQ(bits.count(), n - 1);
}

TEST_P(DynBitsetBoundary, AlgebraSubsetAndIntersectCount) {
  const size_t n = GetParam();
  DynBitset odd(n);
  DynBitset low(n);
  for (size_t i = 1; i < n; i += 2) odd.set(i);
  for (size_t i = 0; i < n / 2; ++i) low.set(i);
  DynBitset d = odd;
  d.andNot(low);
  for (size_t i = 0; i < n; ++i)
    EXPECT_EQ(d.test(i), i % 2 == 1 && i >= n / 2) << i;
  EXPECT_EQ(odd.intersectCount(low), low.count() / 2);
  EXPECT_TRUE(d.isSubsetOf(odd));
  EXPECT_FALSE(odd.isSubsetOf(d));
  EXPECT_EQ(d.count() + low.count() / 2, odd.count());
}

TEST_P(DynBitsetBoundary, AssignWordsRoundTripsAndClearAndResize) {
  const size_t n = GetParam();
  DynBitset src(n);
  src.set(0);
  src.set(n - 1);
  DynBitset dst;
  dst.assignWords(n, src.wordData());
  EXPECT_EQ(dst, src);
  EXPECT_EQ(dst.count(), 2u);
  dst.clearAndResize(n);
  EXPECT_EQ(dst.size(), n);
  EXPECT_TRUE(dst.none());
}

TEST_P(DynBitsetBoundary, UncheckedAccessorsAgreeWithChecked) {
  const size_t n = GetParam();
  DynBitset bits(n);
  bits.setUnchecked(n - 1);
  EXPECT_TRUE(bits.testUnchecked(n - 1));
  EXPECT_TRUE(bits.testChecked(n - 1));
  bits.resetUnchecked(n - 1);
  EXPECT_FALSE(bits.test(n - 1));
  bits.setChecked(0);
  EXPECT_TRUE(bits.testUnchecked(0));
}

TEST_P(DynBitsetBoundary, RawWordHelpersMatchDynBitset) {
  const size_t n = GetParam();
  DynBitset a(n);
  DynBitset b(n);
  for (size_t i = 0; i < n; i += 3) a.set(i);
  for (size_t i = 0; i < n; i += 2) b.set(i);
  const size_t words = a.wordCount();
  std::vector<uint64_t> buf(words);
  bits::andInto(buf.data(), a.wordData(), b.wordData(), words);
  DynBitset both = a;
  both &= b;
  DynBitset fromRaw;
  fromRaw.assignWords(n, buf.data());
  EXPECT_EQ(fromRaw, both);
  bits::andNotInto(buf.data(), a.wordData(), b.wordData(), words);
  DynBitset diff = a;
  diff.andNot(b);
  fromRaw.assignWords(n, buf.data());
  EXPECT_EQ(fromRaw, diff);
  // findFirst over the raw words agrees with the DynBitset walk, including
  // the limit sentinel at exactly n.
  size_t expect = both.findFirst();
  size_t got = bits::findFirst(both.wordData(), 0, n);
  while (expect != n || got != n) {
    EXPECT_EQ(got, expect);
    expect = both.findFirst(expect + 1);
    got = bits::findFirst(both.wordData(), got + 1, n);
  }
  EXPECT_EQ(bits::findFirst(both.wordData(), n, n), n);
}

// --- inline / heap storage seam ------------------------------------------
//
// Sets of up to 128 bits keep their words inside the object; larger ones
// own an exact-size heap buffer. Every copy, move and resize must carry the
// bits across that seam in both directions and leave no stale words.

static_assert(sizeof(DynBitset) <= 24);

constexpr size_t kSeamSizes[] = {0, 1, 63, 64, 65, 127, 128, 129, 256, 1400};

DynBitset patterned(size_t n, size_t salt) {
  DynBitset bits(n);
  for (size_t i = 0; i < n; ++i)
    if ((i * 7 + salt) % 3 == 0) bits.set(i);
  return bits;
}

class DynBitsetStorage : public ::testing::TestWithParam<size_t> {};

INSTANTIATE_TEST_SUITE_P(InlineHeapSeam, DynBitsetStorage,
                         ::testing::ValuesIn(kSeamSizes));

TEST_P(DynBitsetStorage, CopyAndMoveConstruct) {
  const size_t n = GetParam();
  const DynBitset src = patterned(n, 1);
  DynBitset copy(src);
  EXPECT_EQ(copy, src);
  if (n > 0) {
    copy.setTo(n - 1, !copy.test(n - 1));  // the copy owns its words
    EXPECT_NE(copy, src);
    copy.setTo(n - 1, src.test(n - 1));
  }
  DynBitset moved(std::move(copy));
  EXPECT_EQ(moved, src);
  // Moved-from: empty, and usable again.
  EXPECT_EQ(copy.size(), 0u);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(copy.wordCount(), 0u);
  EXPECT_TRUE(copy.none());
  copy.clearAndResize(n);
  copy |= src;
  EXPECT_EQ(copy, src);
}

TEST_P(DynBitsetStorage, AssignAcrossEverySizeBothWays) {
  const size_t n = GetParam();
  const DynBitset src = patterned(n, 1);
  for (const size_t m : kSeamSizes) {
    const DynBitset other = patterned(m, 2);
    DynBitset dst = other;
    dst = src;
    EXPECT_EQ(dst, src) << m << " <- " << n;
    EXPECT_EQ(dst.count(), src.count());
    dst = other;  // and back
    EXPECT_EQ(dst, other) << n << " <- " << m;

    DynBitset moveDst = other;
    DynBitset moveSrc = src;
    moveDst = std::move(moveSrc);
    EXPECT_EQ(moveDst, src) << m << " <- " << n;
    EXPECT_EQ(moveSrc.size(), 0u);  // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(moveSrc.none());
    moveSrc = other;  // a moved-from set takes a new value
    EXPECT_EQ(moveSrc, other);
  }
}

TEST_P(DynBitsetStorage, SelfAssignKeepsContents) {
  const size_t n = GetParam();
  DynBitset bits = patterned(n, 1);
  const DynBitset expect = bits;
  DynBitset& alias = bits;
  bits = alias;
  EXPECT_EQ(bits, expect);
  bits = std::move(alias);
  EXPECT_EQ(bits, expect);
}

TEST_P(DynBitsetStorage, VectorGrowthMovesEveryRow) {
  const size_t n = GetParam();
  std::vector<DynBitset> rows;
  for (size_t salt = 0; salt < 9; ++salt) rows.push_back(patterned(n, salt));
  rows.resize(40);  // reallocates, moving the rows
  for (size_t salt = 0; salt < 9; ++salt)
    EXPECT_EQ(rows[salt], patterned(n, salt));
  EXPECT_EQ(rows.back().size(), 0u);
}

TEST(DynBitset, ResizeWithValueAcrossInlineLimit) {
  DynBitset bits(100);
  bits.set(3);
  bits.set(99);
  bits.resize(200, true);  // inline -> heap, new bits set
  EXPECT_EQ(bits.count(), 2u + 100u);
  EXPECT_TRUE(bits.test(3));
  EXPECT_FALSE(bits.test(4));
  for (size_t i = 99; i < 200; ++i) EXPECT_TRUE(bits.test(i)) << i;
  bits.resize(60);  // shrink below the inline limit; buffer kept
  EXPECT_EQ(bits.count(), 1u);
  bits.resize(150, true);  // regrow: old tail must not resurface
  EXPECT_EQ(bits.count(), 1u + 90u);
  for (size_t i = 0; i < 60; ++i) EXPECT_EQ(bits.test(i), i == 3) << i;
  bits.resize(300);  // past the buffer, new bits clear
  EXPECT_EQ(bits.count(), 91u);
  EXPECT_EQ(bits.findFirst(150), 300u);
}

TEST(DynBitset, ShrinkThenGrowLeavesNoStaleBits) {
  for (const size_t big : {129u, 256u, 1400u}) {
    for (const size_t small : {1u, 65u, 128u}) {
      DynBitset cleared(big, true);
      cleared.clearAndResize(small);
      EXPECT_TRUE(cleared.none());
      cleared.setAll();
      EXPECT_EQ(cleared.count(), small);
      cleared.clearAndResize(big);
      EXPECT_EQ(cleared.size(), big);
      EXPECT_TRUE(cleared.none()) << small << " -> " << big;

      DynBitset resized(big, true);
      resized.resize(small);
      resized.resize(big);
      EXPECT_EQ(resized.count(), small) << small << " -> " << big;

      DynBitset assigned(big, true);
      assigned = DynBitset(small);
      assigned.resize(big);
      EXPECT_TRUE(assigned.none()) << small << " -> " << big;
    }
  }
}

}  // namespace
}  // namespace aviv
