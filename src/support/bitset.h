// DynBitset — a dynamically sized bitset used for parallelism matrices,
// clique membership, cover sets, and liveness sets.
//
// std::vector<bool> is avoided (proxy-reference pitfalls, no word-level set
// algebra); std::bitset is fixed-size. DynBitset gives word-parallel
// and/or/andnot, popcount, subset tests, and bit iteration — the operations
// the clique generator and covering engine live on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.h"

namespace aviv {

class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(size_t size, bool value = false)
      : size_(size),
        words_(numWords(size), value ? ~uint64_t{0} : uint64_t{0}) {
    trimTail();
  }

  [[nodiscard]] size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  void resize(size_t size, bool value = false);

  // Single-bit accessors. Bounds are AVIV_DCHECKed: free in optimized
  // release builds, enforced in Debug and sanitizer builds. Callers outside
  // the hot path that want release-mode bounds enforcement use the
  // *Checked variants.
  [[nodiscard]] bool test(size_t i) const {
    AVIV_DCHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void set(size_t i) {
    AVIV_DCHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }
  void reset(size_t i) {
    AVIV_DCHECK(i < size_);
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  void setTo(size_t i, bool value) { value ? set(i) : reset(i); }

  // Always-checked variants for cold callers (parsers, test harnesses,
  // service-layer decoding of untrusted indices).
  [[nodiscard]] bool testChecked(size_t i) const {
    AVIV_CHECK(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void setChecked(size_t i) {
    AVIV_CHECK(i < size_);
    words_[i >> 6] |= uint64_t{1} << (i & 63);
  }

  // Explicitly unchecked variants for inner loops whose indices are proven
  // in range by construction (the covering engine iterates node ids that
  // sized the set). No bounds check even in Debug builds.
  [[nodiscard]] bool testUnchecked(size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1;
  }
  void setUnchecked(size_t i) { words_[i >> 6] |= uint64_t{1} << (i & 63); }
  void resetUnchecked(size_t i) {
    words_[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }

  void setAll();
  void resetAll();

  // Equivalent to *this = DynBitset(size) but reuses the word storage —
  // the covering engine resets its scratch sets once per candidate and a
  // fresh vector each time would defeat the warm-workspace arena design.
  void clearAndResize(size_t size) {
    words_.assign(numWords(size), uint64_t{0});
    size_ = size;
  }

  // Replaces contents with `size` bits copied from `words` (raw arena
  // buffers produced by the clique generator; bits past `size` in the last
  // word must be zero — DCHECKed via trimTail invariant).
  void assignWords(size_t size, const uint64_t* words) {
    words_.assign(words, words + numWords(size));
    size_ = size;
    AVIV_DCHECK(size_ % 64 == 0 || words_.empty() ||
                (words_.back() & ~((uint64_t{1} << (size_ & 63)) - 1)) == 0);
  }

  // Raw word access for arena-based word-level algorithms (clique
  // generation). Words beyond size() bits are zero.
  [[nodiscard]] const uint64_t* wordData() const { return words_.data(); }
  [[nodiscard]] size_t wordCount() const { return words_.size(); }

  [[nodiscard]] size_t count() const;
  [[nodiscard]] bool any() const;
  [[nodiscard]] bool none() const { return !any(); }

  // Word-parallel set algebra. Operands must have equal size.
  DynBitset& operator|=(const DynBitset& o);
  DynBitset& operator&=(const DynBitset& o);
  DynBitset& operator^=(const DynBitset& o);
  // this := this & ~o
  DynBitset& andNot(const DynBitset& o);

  [[nodiscard]] bool intersects(const DynBitset& o) const;
  [[nodiscard]] bool isSubsetOf(const DynBitset& o) const;
  [[nodiscard]] size_t intersectCount(const DynBitset& o) const;

  bool operator==(const DynBitset& o) const = default;

  // Index of the first set bit at or after `from`; size() if none.
  [[nodiscard]] size_t findFirst(size_t from = 0) const;

  // Calls fn(index) for every set bit, in increasing order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      uint64_t bits = words_[w];
      while (bits != 0) {
        const auto bit = static_cast<size_t>(__builtin_ctzll(bits));
        fn(w * 64 + bit);
        bits &= bits - 1;
      }
    }
  }

  [[nodiscard]] std::vector<size_t> toIndices() const;

  // Lexicographic on the bit-string; gives a deterministic total order for
  // canonicalizing clique sets in tests.
  [[nodiscard]] bool lexLess(const DynBitset& o) const;

 private:
  static size_t numWords(size_t size) { return (size + 63) / 64; }
  void trimTail();

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

// Raw word-level helpers for arena-allocated bit buffers (uint64_t*), used
// by the clique generator's recursion where sets live in an Arena rather
// than as DynBitset objects. All buffers are `words` uint64_t long; bits
// past the logical size are kept zero by the callers.
namespace bits {

inline bool test(const uint64_t* w, size_t i) {
  return (w[i >> 6] >> (i & 63)) & 1;
}
inline void set(uint64_t* w, size_t i) { w[i >> 6] |= uint64_t{1} << (i & 63); }
inline void reset(uint64_t* w, size_t i) {
  w[i >> 6] &= ~(uint64_t{1} << (i & 63));
}
inline void copy(uint64_t* dst, const uint64_t* src, size_t words) {
  for (size_t i = 0; i < words; ++i) dst[i] = src[i];
}
inline void clear(uint64_t* dst, size_t words) {
  for (size_t i = 0; i < words; ++i) dst[i] = 0;
}
inline bool any(const uint64_t* w, size_t words) {
  for (size_t i = 0; i < words; ++i)
    if (w[i] != 0) return true;
  return false;
}
// dst := a & b
inline void andInto(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                    size_t words) {
  for (size_t i = 0; i < words; ++i) dst[i] = a[i] & b[i];
}
// dst := a & ~b
inline void andNotInto(uint64_t* dst, const uint64_t* a, const uint64_t* b,
                       size_t words) {
  for (size_t i = 0; i < words; ++i) dst[i] = a[i] & ~b[i];
}
// |a & b|
inline size_t intersectCount(const uint64_t* a, const uint64_t* b,
                             size_t words) {
  size_t n = 0;
  for (size_t i = 0; i < words; ++i)
    n += static_cast<size_t>(__builtin_popcountll(a[i] & b[i]));
  return n;
}
// First set bit at or after `from`, or `limit` if none (limit in bits).
inline size_t findFirst(const uint64_t* w, size_t from, size_t limit) {
  if (from >= limit) return limit;
  size_t wi = from >> 6;
  const size_t words = (limit + 63) / 64;
  uint64_t cur = w[wi] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (cur != 0) {
      const size_t bit = wi * 64 + static_cast<size_t>(__builtin_ctzll(cur));
      return bit < limit ? bit : limit;
    }
    if (++wi >= words) return limit;
    cur = w[wi];
  }
}

}  // namespace bits

}  // namespace aviv
