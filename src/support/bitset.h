// DynBitset — a dynamically sized bitset used for parallelism matrices,
// clique membership, cover sets, and liveness sets.
//
// std::vector<bool> is avoided (proxy-reference pitfalls, no word-level set
// algebra); std::bitset is fixed-size. DynBitset gives word-parallel
// and/or/andnot, popcount, subset tests, and bit iteration — the operations
// the clique generator and covering engine live on.
//
// Storage: sets of up to 128 bits keep their two words inline in the
// object, so the covering engine's per-round sets, matrix rows and cliques
// never touch the heap on the graphs real blocks produce. Larger sets own
// an exact-size heap buffer (no doubling: a spilling candidate's graph can
// reach ~1,400 nodes, and every row of the n×n matrix would pay the slack).
// Shrinking keeps the buffer; growing past it reallocates to the new size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/error.h"

namespace aviv {

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

class DynBitset {
 public:
  DynBitset() = default;
  explicit DynBitset(size_t size, bool value = false) {
    fillResize(size, value ? ~uint64_t{0} : uint64_t{0});
    trimTail();
  }
  DynBitset(const DynBitset& o) { *this = o; }
  DynBitset(DynBitset&& o) noexcept { steal(o); }
  DynBitset& operator=(const DynBitset& o) {
    if (this == &o) return *this;
    const size_t nw = o.wordCount();
    if (nw > cap_) reallocate(nw, 0);
    bits::copy(words(), o.words(), nw);
    size_ = o.size_;
    return *this;
  }
  DynBitset& operator=(DynBitset&& o) noexcept {
    if (this == &o) return *this;
    if (onHeap()) delete[] heap_;
    steal(o);
    return *this;
  }
  ~DynBitset() {
    if (onHeap()) delete[] heap_;
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
    return testUnchecked(i);
  }
  void set(size_t i) {
    AVIV_DCHECK(i < size_);
    setUnchecked(i);
  }
  void reset(size_t i) {
    AVIV_DCHECK(i < size_);
    resetUnchecked(i);
  }
  void setTo(size_t i, bool value) { value ? set(i) : reset(i); }

  // Always-checked variants for cold callers (parsers, test harnesses,
  // service-layer decoding of untrusted indices).
  [[nodiscard]] bool testChecked(size_t i) const {
    AVIV_CHECK(i < size_);
    return testUnchecked(i);
  }
  void setChecked(size_t i) {
    AVIV_CHECK(i < size_);
    setUnchecked(i);
  }

  // Explicitly unchecked variants for inner loops whose indices are proven
  // in range by construction (the covering engine iterates node ids that
  // sized the set). No bounds check even in Debug builds.
  [[nodiscard]] bool testUnchecked(size_t i) const {
    return (words()[i >> 6] >> (i & 63)) & 1;
  }
  void setUnchecked(size_t i) { words()[i >> 6] |= uint64_t{1} << (i & 63); }
  void resetUnchecked(size_t i) {
    words()[i >> 6] &= ~(uint64_t{1} << (i & 63));
  }
  // operator|= for operands whose equal size the caller checked once.
  void orUnchecked(const DynBitset& o) {
    AVIV_DCHECK(size_ == o.size_);
    uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i) w[i] |= ow[i];
  }

  void setAll() {
    uint64_t* w = words();
    for (size_t i = 0, n = wordCount(); i < n; ++i) w[i] = ~uint64_t{0};
    trimTail();
  }
  void resetAll() {
    uint64_t* w = words();
    for (size_t i = 0, n = wordCount(); i < n; ++i) w[i] = 0;
  }

  // Equivalent to *this = DynBitset(size) but reuses the word storage —
  // the covering engine resets its scratch sets once per candidate and a
  // fresh buffer each time would defeat the warm-workspace design.
  void clearAndResize(size_t size) { fillResize(size, 0); }

  // Replaces contents with `size` bits copied from `words` (raw arena
  // buffers produced by the clique generator; bits past `size` in the last
  // word must be zero — DCHECKed via trimTail invariant).
  void assignWords(size_t size, const uint64_t* src) {
    const size_t nw = reserveFor(size);
    bits::copy(words(), src, nw);
    size_ = static_cast<uint32_t>(size);
    AVIV_DCHECK(size_ % 64 == 0 || nw == 0 ||
                (words()[nw - 1] & ~((uint64_t{1} << (size_ & 63)) - 1)) ==
                    0);
  }

  // Raw word access for arena-based word-level algorithms (clique
  // generation). Words beyond size() bits are zero.
  [[nodiscard]] const uint64_t* wordData() const { return words(); }
  [[nodiscard]] size_t wordCount() const { return numWords(size_); }

  [[nodiscard]] size_t count() const {
    const uint64_t* w = words();
    size_t n = 0;
    for (size_t i = 0, nw = wordCount(); i < nw; ++i)
      n += static_cast<size_t>(__builtin_popcountll(w[i]));
    return n;
  }
  [[nodiscard]] bool any() const {
    const uint64_t* w = words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i)
      if (w[i] != 0) return true;
    return false;
  }
  [[nodiscard]] bool none() const { return !any(); }

  // Word-parallel set algebra. Operands must have equal size.
  DynBitset& operator|=(const DynBitset& o) {
    AVIV_CHECK(size_ == o.size_);
    uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i) w[i] |= ow[i];
    return *this;
  }
  DynBitset& operator&=(const DynBitset& o) {
    AVIV_CHECK(size_ == o.size_);
    uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i) w[i] &= ow[i];
    return *this;
  }
  DynBitset& operator^=(const DynBitset& o) {
    AVIV_CHECK(size_ == o.size_);
    uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i) w[i] ^= ow[i];
    return *this;
  }
  // this := this & ~o
  DynBitset& andNot(const DynBitset& o) {
    AVIV_CHECK(size_ == o.size_);
    uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i) w[i] &= ~ow[i];
    return *this;
  }

  [[nodiscard]] bool intersects(const DynBitset& o) const {
    AVIV_CHECK(size_ == o.size_);
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i)
      if ((w[i] & ow[i]) != 0) return true;
    return false;
  }
  [[nodiscard]] bool isSubsetOf(const DynBitset& o) const {
    AVIV_CHECK(size_ == o.size_);
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i)
      if ((w[i] & ~ow[i]) != 0) return false;
    return true;
  }
  [[nodiscard]] size_t intersectCount(const DynBitset& o) const {
    AVIV_CHECK(size_ == o.size_);
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    size_t n = 0;
    for (size_t i = 0, nw = wordCount(); i < nw; ++i)
      n += static_cast<size_t>(__builtin_popcountll(w[i] & ow[i]));
    return n;
  }

  // Equal size and equal bits; sets of different sizes compare unequal.
  bool operator==(const DynBitset& o) const {
    if (size_ != o.size_) return false;
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i)
      if (w[i] != ow[i]) return false;
    return true;
  }

  // Index of the first set bit at or after `from`; size() if none.
  [[nodiscard]] size_t findFirst(size_t from = 0) const;

  // Calls fn(index) for every set bit, in increasing order.
  template <typename Fn>
  void forEach(Fn&& fn) const {
    const uint64_t* w = words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i) {
      uint64_t bits = w[i];
      while (bits != 0) {
        const auto bit = static_cast<size_t>(__builtin_ctzll(bits));
        fn(i * 64 + bit);
        bits &= bits - 1;
      }
    }
  }

  [[nodiscard]] std::vector<size_t> toIndices() const;

  // Lexicographic on the word sequence (word 0 first, each word compared
  // as an integer); gives a deterministic total order for canonicalizing
  // clique sets.
  [[nodiscard]] bool lexLess(const DynBitset& o) const {
    AVIV_CHECK(size_ == o.size_);
    const uint64_t* w = words();
    const uint64_t* ow = o.words();
    for (size_t i = 0, nw = wordCount(); i < nw; ++i)
      if (w[i] != ow[i]) return w[i] < ow[i];
    return false;
  }

 private:
  static constexpr uint32_t kInlineWords = 2;

  static size_t numWords(size_t size) { return (size + 63) / 64; }

  [[nodiscard]] bool onHeap() const { return cap_ > kInlineWords; }
  [[nodiscard]] uint64_t* words() { return onHeap() ? heap_ : inline_; }
  [[nodiscard]] const uint64_t* words() const {
    return onHeap() ? heap_ : inline_;
  }

  // Makes the storage hold numWords(size) words (contents of the existing
  // words kept, new ones unspecified) and returns that word count.
  size_t reserveFor(size_t size) {
    AVIV_CHECK(size <= UINT32_MAX);
    const size_t nw = numWords(size);
    if (nw > cap_) reallocate(nw, wordCount());
    return nw;
  }
  // Sets the size and every word to `fill` (the tail is not trimmed).
  void fillResize(size_t size, uint64_t fill) {
    const size_t nw = reserveFor(size);
    uint64_t* w = words();
    for (size_t i = 0; i < nw; ++i) w[i] = fill;
    size_ = static_cast<uint32_t>(size);
  }
  // Moves to an exact-size heap buffer of `nw` (> cap_) words, keeping the
  // first `keep` words. Inline so the compiler sees the new capacity at
  // each call site.
  void reallocate(size_t nw, size_t keep) {
    AVIV_DCHECK(nw > cap_ && keep <= cap_);
    auto* fresh = new uint64_t[nw];
    bits::copy(fresh, words(), keep);
    if (onHeap()) delete[] heap_;
    heap_ = fresh;
    cap_ = static_cast<uint32_t>(nw);
  }
  // Takes o's bits and storage; o is left empty, with inline storage.
  void steal(DynBitset& o) noexcept {
    size_ = o.size_;
    cap_ = o.cap_;
    if (o.onHeap()) {
      heap_ = o.heap_;
    } else {
      inline_[0] = o.inline_[0];
      inline_[1] = o.inline_[1];
    }
    o.size_ = 0;
    o.cap_ = kInlineWords;
    o.inline_[0] = 0;
    o.inline_[1] = 0;
  }
  void trimTail() {
    if (size_ % 64 != 0)
      words()[size_ >> 6] &= (uint64_t{1} << (size_ & 63)) - 1;
  }

  uint32_t size_ = 0;            // bits
  uint32_t cap_ = kInlineWords;  // words of storage; heap iff > kInlineWords
  union {
    uint64_t inline_[kInlineWords] = {0, 0};
    uint64_t* heap_;
  };
};

static_assert(sizeof(DynBitset) <= 24, "DynBitset must stay three words");

}  // namespace aviv
