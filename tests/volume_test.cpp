#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <vector>

#include "test_helpers.hpp"
#include "util/error.hpp"
#include "volume/ops.hpp"
#include "volume/volume.hpp"

namespace ifet {
namespace {

using testing::box_mask;
using testing::random_volume;

TEST(Volume, ConstructionAndFill) {
  VolumeF v(Dims{4, 5, 6}, 2.5f);
  EXPECT_EQ(v.size(), 120u);
  EXPECT_EQ(v.dims().x, 4);
  for (float x : v.data()) EXPECT_FLOAT_EQ(x, 2.5f);
  v.fill(1.0f);
  EXPECT_FLOAT_EQ(v.at(3, 4, 5), 1.0f);
}

TEST(Volume, RejectsNonPositiveDims) {
  EXPECT_THROW(VolumeF(Dims{0, 4, 4}), Error);
  EXPECT_THROW(VolumeF(Dims{4, -1, 4}), Error);
}

TEST(Volume, LinearIndexRoundTrips) {
  VolumeF v(Dims{5, 7, 3});
  for (int k = 0; k < 3; ++k) {
    for (int j = 0; j < 7; ++j) {
      for (int i = 0; i < 5; ++i) {
        std::size_t li = v.linear_index(i, j, k);
        Index3 c = v.coord_of(li);
        EXPECT_EQ(c.x, i);
        EXPECT_EQ(c.y, j);
        EXPECT_EQ(c.z, k);
      }
    }
  }
}

TEST(Volume, XVariesFastest) {
  VolumeF v(Dims{4, 4, 4});
  EXPECT_EQ(v.linear_index(1, 0, 0), 1u);
  EXPECT_EQ(v.linear_index(0, 1, 0), 4u);
  EXPECT_EQ(v.linear_index(0, 0, 1), 16u);
}

TEST(Volume, AtThrowsOutOfRange) {
  VolumeF v(Dims{4, 4, 4});
  EXPECT_THROW(v.at(4, 0, 0), Error);
  EXPECT_THROW(v.at(-1, 0, 0), Error);
  EXPECT_THROW(v.at(0, 0, 4), Error);
  EXPECT_THROW(v.at(Index3{0, 4, 0}), Error);
  const VolumeF& cv = v;
  EXPECT_THROW(cv.at(4, 0, 0), Error);
  EXPECT_THROW(cv.at(Index3{-1, 0, 0}), Error);
}

#if defined(IFET_CHECKED_ITERATORS) && IFET_CHECKED_ITERATORS
// The normally-unchecked fast paths throw under IFET_CHECKED_ITERATORS
// (the asan-ubsan / tsan presets); in release builds they compile out.
TEST(Volume, UncheckedAccessThrowsWhenCheckedIteratorsOn) {
  VolumeF v(Dims{2, 2, 2});
  EXPECT_THROW(v[8], Error);
  EXPECT_THROW(v[static_cast<std::size_t>(-1)], Error);
  const VolumeF& cv = v;
  EXPECT_THROW(cv[8], Error);
  EXPECT_THROW(v.linear_index(2, 0, 0), Error);
  EXPECT_THROW(v.coord_of(8), Error);
  EXPECT_NO_THROW(v[7]);
  EXPECT_NO_THROW(v.coord_of(7));
}
#endif

TEST(Volume, SampleClampsExtremeAndNanCoordinates) {
  VolumeF v(Dims{3, 3, 3}, 1.0f);
  v.at(0, 0, 0) = 5.0f;
  v.at(2, 2, 2) = 9.0f;
  EXPECT_DOUBLE_EQ(v.sample(-1e300, -1e300, -1e300), 5.0);
  EXPECT_DOUBLE_EQ(v.sample(1e300, 1e300, 1e300), 9.0);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_DOUBLE_EQ(v.sample(nan, 0.0, 0.0), 5.0);  // NaN clamps to 0
}

TEST(Volume, ClampedExtendsEdges) {
  VolumeF v(Dims{3, 3, 3});
  v.at(0, 1, 1) = 7.0f;
  v.at(2, 1, 1) = 9.0f;
  EXPECT_FLOAT_EQ(v.clamped(-5, 1, 1), 7.0f);
  EXPECT_FLOAT_EQ(v.clamped(10, 1, 1), 9.0f);
}

TEST(Volume, SampleExactAtVoxelCenters) {
  VolumeF v = random_volume(Dims{6, 6, 6}, 99);
  for (int k = 0; k < 6; ++k) {
    for (int j = 0; j < 6; ++j) {
      for (int i = 0; i < 6; ++i) {
        EXPECT_NEAR(v.sample(i, j, k), v.at(i, j, k), 1e-6);
      }
    }
  }
}

TEST(Volume, SampleInterpolatesLinearly) {
  VolumeF v(Dims{2, 2, 2});
  v.at(0, 0, 0) = 0.0f;
  v.at(1, 0, 0) = 1.0f;
  v.at(0, 1, 0) = 2.0f;
  v.at(1, 1, 0) = 3.0f;
  v.at(0, 0, 1) = 4.0f;
  v.at(1, 0, 1) = 5.0f;
  v.at(0, 1, 1) = 6.0f;
  v.at(1, 1, 1) = 7.0f;
  EXPECT_NEAR(v.sample(0.5, 0.0, 0.0), 0.5, 1e-12);
  EXPECT_NEAR(v.sample(0.5, 0.5, 0.5), 3.5, 1e-12);
  EXPECT_NEAR(v.sample(0.0, 0.5, 0.0), 1.0, 1e-12);
}

TEST(Volume, SampleBoundedByLocalExtremes) {
  VolumeF v = random_volume(Dims{8, 8, 8}, 4, -2.0, 3.0);
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    double x = rng.uniform(0, 7), y = rng.uniform(0, 7), z = rng.uniform(0, 7);
    double s = v.sample(x, y, z);
    EXPECT_GE(s, -2.0);
    EXPECT_LE(s, 3.0);
  }
}

TEST(MaskOps, CountAndLogicalOps) {
  Dims d{8, 8, 8};
  Mask a = box_mask(d, {0, 0, 0}, {3, 3, 3});
  Mask b = box_mask(d, {2, 2, 2}, {5, 5, 5});
  EXPECT_EQ(mask_count(a), 64u);
  EXPECT_EQ(mask_count(b), 64u);
  EXPECT_EQ(mask_count(mask_and(a, b)), 8u);    // 2x2x2 overlap
  EXPECT_EQ(mask_count(mask_or(a, b)), 120u);   // 64+64-8
  EXPECT_EQ(mask_count(mask_subtract(a, b)), 56u);
}

/// The set voxels of `mask`, counted one byte at a time.
std::size_t byte_count(const Mask& mask) {
  std::size_t n = 0;
  for (const std::uint8_t v : mask.data()) n += v != 0;
  return n;
}

// mask_count reads eight bytes at a time and folds its byte lanes before
// they overflow; it counts what a byte loop counts, for any nonzero byte,
// at every tail length and with the lanes full.
TEST(MaskOps, CountMatchesByteLoop) {
  constexpr std::uint8_t kBytes[] = {0, 1, 2, 255};
  EXPECT_EQ(mask_count(Mask{}), 0u);
  Rng rng(99);
  std::vector<int> lengths;
  for (int n = 1; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(64 * 64 * 64 + 5);
  for (const int n : lengths) {
    SCOPED_TRACE(n);
    Mask mask(Dims{n, 1, 1});
    for (std::size_t v = 0; v < mask.size(); ++v) {
      mask[v] = kBytes[static_cast<std::size_t>(rng.uniform(0.0, 4.0)) % 4];
    }
    EXPECT_EQ(mask_count(mask), byte_count(mask));
    for (const std::uint8_t byte : kBytes) {
      mask.fill(byte);
      EXPECT_EQ(mask_count(mask), byte_count(mask)) << "byte " << int{byte};
    }
  }
}

TEST(MaskOps, DimensionMismatchThrows) {
  Mask a(Dims{4, 4, 4});
  Mask b(Dims{5, 4, 4});
  EXPECT_THROW(mask_and(a, b), Error);
}

TEST(VolumeOps, ValueRange) {
  VolumeF v(Dims{4, 4, 4}, 1.0f);
  v.at(2, 2, 2) = -3.0f;
  v.at(1, 1, 1) = 8.0f;
  auto [lo, hi] = value_range(v);
  EXPECT_FLOAT_EQ(lo, -3.0f);
  EXPECT_FLOAT_EQ(hi, 8.0f);
}

TEST(VolumeOps, NormalizedMapsToUnit) {
  VolumeF v = random_volume(Dims{8, 8, 8}, 3, 5.0, 9.0);
  VolumeF n = normalized(v);
  auto [lo, hi] = value_range(n);
  EXPECT_NEAR(lo, 0.0, 1e-6);
  EXPECT_NEAR(hi, 1.0, 1e-6);
}

TEST(VolumeOps, NormalizedConstantVolumeIsZero) {
  VolumeF v(Dims{4, 4, 4}, 3.0f);
  VolumeF n = normalized(v);
  for (float x : n.data()) EXPECT_FLOAT_EQ(x, 0.0f);
}

TEST(VolumeOps, GradientOfLinearRamp) {
  VolumeF v(Dims{8, 8, 8});
  for (int k = 0; k < 8; ++k) {
    for (int j = 0; j < 8; ++j) {
      for (int i = 0; i < 8; ++i) {
        v.at(i, j, k) = static_cast<float>(2.0 * i + 3.0 * j - 1.0 * k);
      }
    }
  }
  Vec3 g = gradient_at(v, 4, 4, 4);
  EXPECT_NEAR(g.x, 2.0, 1e-5);
  EXPECT_NEAR(g.y, 3.0, 1e-5);
  EXPECT_NEAR(g.z, -1.0, 1e-5);
  VolumeF mag = gradient_magnitude(v);
  EXPECT_NEAR(mag.at(4, 4, 4), std::sqrt(4.0 + 9.0 + 1.0), 1e-5);
}

TEST(VolumeOps, ThresholdMask) {
  VolumeF v = random_volume(Dims{8, 8, 8}, 12, 0.0, 1.0);
  Mask m = threshold_mask(v, 0.25f, 0.75f);
  for (std::size_t i = 0; i < v.size(); ++i) {
    bool inside = v[i] >= 0.25f && v[i] <= 0.75f;
    EXPECT_EQ(m[i] != 0, inside);
  }
}

TEST(VolumeOps, BlendInterpolates) {
  VolumeF a(Dims{4, 4, 4}, 0.0f);
  VolumeF b(Dims{4, 4, 4}, 2.0f);
  VolumeF mid = blend(a, b, 0.25);
  for (float x : mid.data()) EXPECT_FLOAT_EQ(x, 0.5f);
}

TEST(VolumeOps, MeanAbsDifference) {
  VolumeF a(Dims{4, 4, 4}, 1.0f);
  VolumeF b(Dims{4, 4, 4}, 3.5f);
  EXPECT_DOUBLE_EQ(mean_abs_difference(a, b), 2.5);
  EXPECT_DOUBLE_EQ(mean_abs_difference(a, a), 0.0);
}

// Parameterized sweep: linear-index round trip and sampling bounds hold for
// a spread of grid shapes, including degenerate slabs.
class VolumeDimsTest : public ::testing::TestWithParam<Dims> {};

TEST_P(VolumeDimsTest, RoundTripAndSampleBounds) {
  const Dims d = GetParam();
  VolumeF v = random_volume(d, 77, 0.0, 1.0);
  // Round-trip a scatter of linear indices.
  for (std::size_t li = 0; li < v.size(); li += std::max<std::size_t>(1, v.size() / 97)) {
    Index3 c = v.coord_of(li);
    EXPECT_EQ(v.linear_index(c.x, c.y, c.z), li);
  }
  // Sampling anywhere inside stays within the global range.
  Rng rng(21);
  for (int t = 0; t < 64; ++t) {
    double x = rng.uniform(0.0, d.x - 1.0);
    double y = rng.uniform(0.0, d.y - 1.0);
    double z = rng.uniform(0.0, d.z - 1.0);
    double s = v.sample(x, y, z);
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, VolumeDimsTest,
                         ::testing::Values(Dims{1, 1, 1}, Dims{8, 8, 8},
                                           Dims{16, 4, 2}, Dims{3, 17, 5},
                                           Dims{32, 2, 9}, Dims{2, 2, 64}));

}  // namespace
}  // namespace ifet
