#include "support/bitset.h"

namespace aviv {

void DynBitset::resize(size_t size, bool value) {
  const size_t oldSize = size_;
  const size_t oldWords = wordCount();
  const size_t nw = reserveFor(size);
  uint64_t* w = words();
  const uint64_t fill = value ? ~uint64_t{0} : uint64_t{0};
  for (size_t i = oldWords; i < nw; ++i) w[i] = fill;
  if (value && size > oldSize && oldSize % 64 != 0) {
    // Fill the tail of the previously-last word.
    w[oldSize >> 6] |= ~uint64_t{0} << (oldSize & 63);
  }
  size_ = static_cast<uint32_t>(size);
  trimTail();
}

size_t DynBitset::findFirst(size_t from) const {
  if (from >= size_) return size_;
  const uint64_t* w = words();
  const size_t nw = wordCount();
  size_t i = from >> 6;
  uint64_t bits = w[i] & (~uint64_t{0} << (from & 63));
  while (true) {
    if (bits != 0)
      return i * 64 + static_cast<size_t>(__builtin_ctzll(bits));
    if (++i >= nw) return size_;
    bits = w[i];
  }
}

std::vector<size_t> DynBitset::toIndices() const {
  std::vector<size_t> out;
  out.reserve(count());
  forEach([&](size_t i) { out.push_back(i); });
  return out;
}

}  // namespace aviv
