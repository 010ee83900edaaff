#include "volume/volume.hpp"

namespace ifet {

template <typename T>
IFET_HOT double Volume<T>::sample(double x, double y, double z) const {
  return sample_inline(x, y, z);
}

template double Volume<float>::sample(double, double, double) const;

std::size_t mask_count(const Mask& mask) {
  constexpr std::uint64_t kLow7 = 0x7F7F7F7F7F7F7F7Full;
  constexpr std::uint64_t kOnes = 0x0101010101010101ull;
  constexpr std::uint64_t kEvenBytes = 0x00FF00FF00FF00FFull;
  constexpr std::uint64_t kEvenHalves = 0x0000FFFF0000FFFFull;
  // A byte lane counts at most 255 words before it is folded.
  constexpr std::size_t kFoldBytes = 255 * 8;
  const std::uint8_t* bytes = mask.data().data();
  const std::size_t size = mask.size();
  const std::size_t words_end = size - size % 8;
  std::size_t n = 0;
  std::size_t i = 0;
  while (i < words_end) {
    const std::size_t end = std::min(words_end, i + kFoldBytes);
    std::uint64_t lanes = 0;
    for (; i < end; i += 8) {
      std::uint64_t word;
      std::memcpy(&word, bytes + i, sizeof(word));
      // Bit 7 of each byte is set when the byte is nonzero: its low seven
      // bits carry into it, or it was set already.
      lanes += ((((word & kLow7) + kLow7) | word) >> 7) & kOnes;
    }
    // Pairwise adds into 16-, 32- and 64-bit lanes; a multiply by kOnes
    // would overflow the top byte.
    lanes = (lanes & kEvenBytes) + ((lanes >> 8) & kEvenBytes);
    lanes = (lanes & kEvenHalves) + ((lanes >> 16) & kEvenHalves);
    n += (lanes & 0xFFFFFFFFull) + (lanes >> 32);
  }
  for (; i < size; ++i) n += bytes[i] != 0;
  return n;
}

namespace {
Mask binary_op(const Mask& a, const Mask& b, bool (*op)(bool, bool)) {
  IFET_REQUIRE(a.dims() == b.dims(), "mask op: dimension mismatch");
  Mask out(a.dims());
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = op(a[i] != 0, b[i] != 0) ? 1 : 0;
  }
  return out;
}
}  // namespace

Mask mask_and(const Mask& a, const Mask& b) {
  return binary_op(a, b, [](bool x, bool y) { return x && y; });
}

Mask mask_or(const Mask& a, const Mask& b) {
  return binary_op(a, b, [](bool x, bool y) { return x || y; });
}

Mask mask_subtract(const Mask& a, const Mask& b) {
  return binary_op(a, b, [](bool x, bool y) { return x && !y; });
}

}  // namespace ifet
