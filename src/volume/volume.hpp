// Regular 3D scalar grids — the fundamental data structure of the library.
//
// A Volume<T> is a dense dx*dy*dz grid stored in x-fastest order (matching
// the raw-file convention of the simulation data sets the paper uses).
// Voxel centers sit at integer coordinates; continuous sampling is
// trilinear with clamp-to-edge addressing, which is what the paper's
// 3D-texture renderer does in hardware.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "math/vec.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ifet {

/// Integer voxel coordinate.
struct Index3 {
  int x = 0, y = 0, z = 0;

  friend bool operator==(const Index3&, const Index3&) = default;
};

/// Grid extents.
struct Dims {
  int x = 0, y = 0, z = 0;

  constexpr std::size_t count() const {
    return static_cast<std::size_t>(x) * static_cast<std::size_t>(y) *
           static_cast<std::size_t>(z);
  }
  constexpr bool contains(int i, int j, int k) const {
    return i >= 0 && i < x && j >= 0 && j < y && k >= 0 && k < z;
  }
  constexpr bool contains(const Index3& p) const {
    return contains(p.x, p.y, p.z);
  }
  friend bool operator==(const Dims&, const Dims&) = default;
};

template <typename T>
class Volume {
 public:
  Volume() = default;

  /// Allocate a dx*dy*dz grid filled with `fill`.
  explicit Volume(Dims dims, T fill = T{}) : dims_(dims) {
    IFET_REQUIRE(dims.x > 0 && dims.y > 0 && dims.z > 0,
                 "Volume dimensions must be positive");
    data_.assign(dims.count(), fill);
  }

  const Dims& dims() const { return dims_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  /// Linear index of voxel (i,j,k); x varies fastest. The coordinate must
  /// be in bounds (checked only under IFET_CHECKED_ITERATORS).
  std::size_t linear_index(int i, int j, int k) const {
    IFET_DEBUG_ASSERT(dims_.contains(i, j, k),
                      "Volume::linear_index out of range");
    return static_cast<std::size_t>(i) +
           static_cast<std::size_t>(dims_.x) *
               (static_cast<std::size_t>(j) +
                static_cast<std::size_t>(dims_.y) * static_cast<std::size_t>(k));
  }

  /// Voxel coordinate of a linear index.
  Index3 coord_of(std::size_t linear) const {
    IFET_DEBUG_ASSERT(linear < data_.size(), "Volume::coord_of out of range");
    const auto dx = static_cast<std::size_t>(dims_.x);
    const auto dy = static_cast<std::size_t>(dims_.y);
    return Index3{static_cast<int>(linear % dx),
                  static_cast<int>((linear / dx) % dy),
                  static_cast<int>(linear / (dx * dy))};
  }

  T& at(int i, int j, int k) {
    IFET_REQUIRE(dims_.contains(i, j, k), "Volume::at out of range");
    return data_[linear_index(i, j, k)];
  }
  const T& at(int i, int j, int k) const {
    IFET_REQUIRE(dims_.contains(i, j, k), "Volume::at out of range");
    return data_[linear_index(i, j, k)];
  }
  T& at(const Index3& p) { return at(p.x, p.y, p.z); }
  const T& at(const Index3& p) const { return at(p.x, p.y, p.z); }

  /// Unchecked access for hot loops (callers guarantee bounds); bounds are
  /// verified, throwing ifet::Error, when IFET_CHECKED_ITERATORS is on.
  T& operator[](std::size_t linear) {
    IFET_DEBUG_ASSERT(linear < data_.size(),
                      "Volume::operator[] out of range");
    return data_[linear];
  }
  const T& operator[](std::size_t linear) const {
    IFET_DEBUG_ASSERT(linear < data_.size(),
                      "Volume::operator[] out of range");
    return data_[linear];
  }

  /// Clamp-to-edge voxel fetch (any integer coordinate allowed).
  IFET_HOT T clamped(int i, int j, int k) const {
    i = std::clamp(i, 0, dims_.x - 1);
    j = std::clamp(j, 0, dims_.y - 1);
    k = std::clamp(k, 0, dims_.z - 1);
    return data_[linear_index(i, j, k)];
  }

  /// Trilinear sample at continuous voxel coordinates (clamp-to-edge).
  /// Defined once in volume.cpp (instantiated for float), so every
  /// program links the one portable copy, never one an AVX2 kernel's
  /// translation unit emitted.
  IFET_HOT double sample(double x, double y, double z) const;

  /// sample() expanded at the call site, for the render marches, which
  /// take one per ray sample. Always inlined, so no translation unit emits
  /// a copy of its own for the linker to pick.
  [[gnu::always_inline]] IFET_HOT double sample_inline(double x, double y,
                                                       double z) const {
    // Pre-clamp into the grid so the int casts below are defined for any
    // input, including NaN and values beyond int range; clamp-to-edge
    // already makes all out-of-range coordinates sample the boundary, so
    // results are unchanged for every previously-defined input.
    x = clamp_sample_coord(x, dims_.x - 1);
    y = clamp_sample_coord(y, dims_.y - 1);
    z = clamp_sample_coord(z, dims_.z - 1);
    int i0 = static_cast<int>(std::floor(x));
    int j0 = static_cast<int>(std::floor(y));
    int k0 = static_cast<int>(std::floor(z));
    double fx = x - i0, fy = y - j0, fz = z - k0;
    double c000 = static_cast<double>(clamped(i0, j0, k0));
    double c100 = static_cast<double>(clamped(i0 + 1, j0, k0));
    double c010 = static_cast<double>(clamped(i0, j0 + 1, k0));
    double c110 = static_cast<double>(clamped(i0 + 1, j0 + 1, k0));
    double c001 = static_cast<double>(clamped(i0, j0, k0 + 1));
    double c101 = static_cast<double>(clamped(i0 + 1, j0, k0 + 1));
    double c011 = static_cast<double>(clamped(i0, j0 + 1, k0 + 1));
    double c111 = static_cast<double>(clamped(i0 + 1, j0 + 1, k0 + 1));
    double c00 = lerp(c000, c100, fx);
    double c10 = lerp(c010, c110, fx);
    double c01 = lerp(c001, c101, fx);
    double c11 = lerp(c011, c111, fx);
    return lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz);
  }

  /// Trilinear sample at a point given in voxel coordinates.
  IFET_HOT double sample(const Vec3& p) const { return sample(p.x, p.y, p.z); }

  std::span<T> data() { return data_; }
  std::span<const T> data() const { return data_; }

  void fill(T value) { std::fill(data_.begin(), data_.end(), value); }

 private:
  // NaN-safe clamp of a sample coordinate into [0, max_index] (the !>=
  // test is true for NaN, which std::clamp would pass through).
  static double clamp_sample_coord(double v, int max_index) {
    if (!(v >= 0.0)) return 0.0;
    const double m = static_cast<double>(max_index);
    return v > m ? m : v;
  }

  Dims dims_{};
  std::vector<T> data_;
};

using VolumeF = Volume<float>;
using VolumeU8 = Volume<std::uint8_t>;
/// Binary voxel mask; uint8_t rather than vector<bool> so it is addressable
/// and thread-safe to write disjoint elements.
using Mask = Volume<std::uint8_t>;

/// Number of set voxels in a mask.
std::size_t mask_count(const Mask& mask);

static_assert(std::endian::native == std::endian::little,
              "mask words read 8 mask bytes at a time as little-endian words");

/// Bit i is set when byte i of `bytes` (8 mask bytes read as one word) is
/// nonzero.
inline std::uint64_t pack_bytes(std::uint64_t bytes) {
  bytes |= bytes >> 4;
  bytes |= bytes >> 2;
  bytes |= bytes >> 1;
  bytes &= 0x0101010101010101ull;  // each byte is now 0 or 1
  return (bytes * 0x0102040810204080ull) >> 56;
}

/// Mask bytes `bytes[0..n)` (n <= 64) as bits: bit i is bytes[i] != 0.
inline std::uint64_t mask_bits(const std::uint8_t* bytes, int n) {
  std::uint64_t bits = 0;
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes + i, sizeof(word));
    bits |= pack_bytes(word) << i;
  }
  for (; i < n; ++i) bits |= static_cast<std::uint64_t>(bytes[i] != 0) << i;
  return bits;
}

/// mask_bits for bytes `flags[0..n)` (n a multiple of 8, at most 64) that
/// are each 0 or 1; any other byte value corrupts the bits. It skips
/// pack_bytes' three shift-ors per 8 bytes, which cost the tracker's row
/// acceptance (it packs compare results) about 60% on BM_TrackRing and 8%
/// on BM_TrackBand (docs/PERFORMANCE.md, "One packing path").
inline std::uint64_t pack_flags(const std::uint8_t* flags, int n) {
  std::uint64_t bits = 0;
  for (int i = 0; i < n; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, flags + i, sizeof(word));
    bits |= ((word * 0x0102040810204080ull) >> 56) << i;
  }
  return bits;
}

/// Elementwise logical ops on same-sized masks.
Mask mask_and(const Mask& a, const Mask& b);
Mask mask_or(const Mask& a, const Mask& b);
Mask mask_subtract(const Mask& a, const Mask& b);

}  // namespace ifet
