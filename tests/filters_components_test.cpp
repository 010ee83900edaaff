#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/determinism.hpp"
#include "util/error.hpp"
#include "volume/components.hpp"
#include "volume/filters.hpp"

namespace ifet {
namespace {

using testing::box_mask;
using testing::box_volume;
using testing::random_volume;

double volume_mean(const VolumeF& v) {
  double s = 0.0;
  for (float x : v.data()) s += x;
  return s / static_cast<double>(v.size());
}

double volume_variance(const VolumeF& v) {
  double m = volume_mean(v);
  double s = 0.0;
  for (float x : v.data()) s += (x - m) * (x - m);
  return s / static_cast<double>(v.size());
}

TEST(GaussianBlur, PreservesMeanApproximately) {
  VolumeF v = random_volume(Dims{16, 16, 16}, 44, 0.0, 1.0);
  VolumeF b = gaussian_blur(v, 1.2);
  EXPECT_NEAR(volume_mean(b), volume_mean(v), 0.01);
}

TEST(GaussianBlur, ReducesVariance) {
  VolumeF v = random_volume(Dims{16, 16, 16}, 45, 0.0, 1.0);
  VolumeF b = gaussian_blur(v, 1.5);
  EXPECT_LT(volume_variance(b), 0.4 * volume_variance(v));
}

TEST(GaussianBlur, ConstantVolumeUnchanged) {
  VolumeF v(Dims{8, 8, 8}, 3.0f);
  VolumeF b = gaussian_blur(v, 2.0);
  for (float x : b.data()) EXPECT_NEAR(x, 3.0f, 1e-5);
}

TEST(GaussianBlur, InvalidSigmaThrows) {
  VolumeF v(Dims{8, 8, 8});
  EXPECT_THROW(gaussian_blur(v, 0.0), Error);
  EXPECT_THROW(gaussian_blur(v, -1.0), Error);
}

TEST(RepeatedSmooth, ZeroIterationsIsIdentity) {
  VolumeF v = random_volume(Dims{8, 8, 8}, 46);
  VolumeF out = repeated_smooth(v, 1.0, 0);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_FLOAT_EQ(out[i], v[i]);
}

TEST(RepeatedSmooth, MoreIterationsSmoothMore) {
  VolumeF v = random_volume(Dims{12, 12, 12}, 47);
  double v1 = volume_variance(repeated_smooth(v, 1.0, 1));
  double v3 = volume_variance(repeated_smooth(v, 1.0, 3));
  EXPECT_LT(v3, v1);
}

// Fig 7's failure mode of the smoothing baseline, as a property: smoothing
// kills small features AND the fine detail on large features together.
TEST(RepeatedSmooth, ErasesSmallFeatures) {
  Dims d{24, 24, 24};
  VolumeF v(d, 0.0f);
  v.at(12, 12, 12) = 1.0f;  // one-voxel feature
  VolumeF b = repeated_smooth(v, 1.5, 2);
  EXPECT_LT(b.at(12, 12, 12), 0.1f);
}

TEST(BoxBlur3, AveragesNeighbors) {
  VolumeF v(Dims{5, 5, 5}, 0.0f);
  v.at(2, 2, 2) = 27.0f;
  VolumeF b = box_blur3(v);
  // After a separable 3-wide box, the center keeps 1/27 of the mass.
  EXPECT_NEAR(b.at(2, 2, 2), 1.0f, 1e-4);
  EXPECT_NEAR(b.at(1, 1, 1), 1.0f, 1e-4);
}

TEST(Components, SingleBoxIsOneComponent) {
  Mask m = box_mask(Dims{10, 10, 10}, {2, 2, 2}, {4, 4, 4});
  Labeling lab = label_components(m);
  ASSERT_EQ(lab.components.size(), 1u);
  EXPECT_EQ(lab.components[0].voxel_count, 27u);
  EXPECT_NEAR(lab.components[0].centroid.x, 3.0, 1e-12);
  EXPECT_EQ(lab.components[0].bbox_min.x, 2);
  EXPECT_EQ(lab.components[0].bbox_max.z, 4);
}

TEST(Components, DisjointBoxesSeparate) {
  Dims d{16, 16, 16};
  Mask m = mask_or(box_mask(d, {0, 0, 0}, {2, 2, 2}),
                   box_mask(d, {8, 8, 8}, {12, 12, 12}));
  Labeling lab = label_components(m);
  ASSERT_EQ(lab.components.size(), 2u);
  // Sorted largest first.
  EXPECT_EQ(lab.components[0].voxel_count, 125u);
  EXPECT_EQ(lab.components[1].voxel_count, 27u);
}

TEST(Components, DiagonalTouchIsNotConnected) {
  // 6-connectivity: voxels sharing only a corner are separate components.
  Mask m(Dims{4, 4, 4});
  m.at(0, 0, 0) = 1;
  m.at(1, 1, 1) = 1;
  Labeling lab = label_components(m);
  EXPECT_EQ(lab.components.size(), 2u);
}

TEST(Components, FaceTouchIsConnected) {
  Mask m(Dims{4, 4, 4});
  m.at(0, 0, 0) = 1;
  m.at(1, 0, 0) = 1;
  Labeling lab = label_components(m);
  EXPECT_EQ(lab.components.size(), 1u);
}

TEST(Components, EmptyMaskHasNoComponents) {
  Mask m(Dims{4, 4, 4});
  Labeling lab = label_components(m);
  EXPECT_TRUE(lab.components.empty());
}

TEST(Components, ValueSumIntegratesField) {
  Dims d{8, 8, 8};
  Mask m = box_mask(d, {0, 0, 0}, {1, 1, 1});
  VolumeF v(d, 0.5f);
  Labeling lab = label_components(m, &v);
  ASSERT_EQ(lab.components.size(), 1u);
  EXPECT_NEAR(lab.components[0].value_sum, 8 * 0.5, 1e-9);
}

TEST(Components, ComponentMaskSelectsOnlyThatLabel) {
  Dims d{16, 16, 16};
  Mask m = mask_or(box_mask(d, {0, 0, 0}, {2, 2, 2}),
                   box_mask(d, {8, 8, 8}, {10, 10, 10}));
  Labeling lab = label_components(m);
  Mask one = lab.component_mask(lab.components[0].label);
  EXPECT_EQ(mask_count(one), lab.components[0].voxel_count);
}

TEST(Components, InfoThrowsOnUnknownLabel) {
  Mask m(Dims{4, 4, 4});
  m.at(0, 0, 0) = 1;
  Labeling lab = label_components(m);
  EXPECT_THROW(lab.info(999), Error);
}

TEST(RemoveSmallComponents, FiltersBySize) {
  Dims d{20, 20, 20};
  Mask m = mask_or(box_mask(d, {0, 0, 0}, {4, 4, 4}),     // 125 voxels
                   box_mask(d, {10, 10, 10}, {11, 11, 11}));  // 8 voxels
  Mask kept = remove_small_components(m, 50);
  EXPECT_EQ(mask_count(kept), 125u);
  Mask all = remove_small_components(m, 1);
  EXPECT_EQ(mask_count(all), 133u);
  Mask none = remove_small_components(m, 1000);
  EXPECT_EQ(mask_count(none), 0u);
}

// Component labeling invariants across random masks of varying density.
class ComponentsPropertyTest : public ::testing::TestWithParam<double> {};

TEST_P(ComponentsPropertyTest, LabelingPartitionsTheMask) {
  const double density = GetParam();
  Dims d{12, 12, 12};
  Rng rng(314);
  Mask m(d);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.uniform() < density ? 1 : 0;
  }
  Labeling lab = label_components(m);
  // Every set voxel is labeled, every unset voxel is 0.
  std::size_t labeled = 0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m[i]) {
      EXPECT_GT(lab.labels[i], 0);
      ++labeled;
    } else {
      EXPECT_EQ(lab.labels[i], 0);
    }
  }
  // Component sizes sum to the mask size.
  std::size_t total = 0;
  for (const auto& c : lab.components) total += c.voxel_count;
  EXPECT_EQ(total, labeled);
  // Sorted by size, descending.
  for (std::size_t c = 1; c < lab.components.size(); ++c) {
    EXPECT_GE(lab.components[c - 1].voxel_count,
              lab.components[c].voxel_count);
  }
}

INSTANTIATE_TEST_SUITE_P(Densities, ComponentsPropertyTest,
                         ::testing::Values(0.05, 0.2, 0.5, 0.8, 1.0));

// Labeling of seeded random masks with a value volume, pinned bitwise:
// the label volume, then every component's label, voxel count, bounding
// box, centroid bits and value_sum bits in component order. value_sum
// depends on the flood-fill visiting order, so the pin also holds that
// order.
TEST(Components, RandomMaskLabelingIsPinned) {
  const Dims d{23, 19, 17};
  const VolumeF values = random_volume(d, 2718, -1.0, 1.0);
  const struct {
    double fill;
    std::uint64_t digest;
  } cases[] = {{0.1, 0xfcc325141bb8671eull},
               {0.5, 0x8de0326cfff12bc6ull},
               {0.82, 0xb921e4ec41fe36aaull}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.fill);
    Rng rng(1618);
    Mask m(d);
    for (std::size_t i = 0; i < m.size(); ++i) {
      m[i] = rng.uniform() < c.fill ? 1 : 0;
    }
    const Labeling lab = label_components(m, &values);
    DigestSink sink;
    sink.span(lab.labels.data().data(), lab.labels.size());
    for (const ComponentInfo& info : lab.components) {
      sink.pod(info.label);
      sink.pod(info.voxel_count);
      sink.pod(info.bbox_min);
      sink.pod(info.bbox_max);
      sink.pod(info.centroid.x);
      sink.pod(info.centroid.y);
      sink.pod(info.centroid.z);
      sink.pod(info.value_sum);
    }
    EXPECT_GT(lab.components.size(), 1u);
    EXPECT_EQ(sink.value(), c.digest);
  }
}

}  // namespace
}  // namespace ifet
