#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

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

/// Mask of `d` whose voxels are set with probability `fill`, one seeded
/// draw per voxel in scan order.
Mask random_mask(Dims d, double fill) {
  Rng rng(1618);
  Mask m(d);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.uniform() < fill ? 1 : 0;
  }
  return m;
}

/// Digest of a labeling: the label volume, then every component's label,
/// voxel count, bounding box, centroid bits and value_sum bits in
/// component order.
std::uint64_t labeling_digest(const Labeling& lab) {
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
  return sink.value();
}

// Labeling of seeded random masks with a value volume, pinned bitwise.
// value_sum depends on the order its terms add in (each component's voxels
// in scan order), so the pin also holds that order.
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
    const Labeling lab = label_components(random_mask(d, c.fill), &values);
    EXPECT_GT(lab.components.size(), 1u);
    EXPECT_EQ(labeling_digest(lab), c.digest);
  }
}

/// Bitwise equality of two labelings: the label volume, then every
/// component's label, voxel count, bounding box and centroid bits.
void expect_same_labeling(const Labeling& got, const Labeling& want) {
  ASSERT_TRUE(got.labels.dims() == want.labels.dims());
  for (std::size_t v = 0; v < want.labels.size(); ++v) {
    ASSERT_EQ(got.labels[v], want.labels[v]) << "voxel " << v;
  }
  ASSERT_EQ(got.components.size(), want.components.size());
  for (std::size_t c = 0; c < want.components.size(); ++c) {
    const ComponentInfo& a = got.components[c];
    const ComponentInfo& b = want.components[c];
    EXPECT_EQ(a.label, b.label) << "component " << c;
    EXPECT_EQ(a.voxel_count, b.voxel_count) << "component " << c;
    EXPECT_TRUE(a.bbox_min == b.bbox_min) << "component " << c;
    EXPECT_TRUE(a.bbox_max == b.bbox_max) << "component " << c;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.centroid.x),
              std::bit_cast<std::uint64_t>(b.centroid.x));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.centroid.y),
              std::bit_cast<std::uint64_t>(b.centroid.y));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.centroid.z),
              std::bit_cast<std::uint64_t>(b.centroid.z));
  }
}

/// Two one-voxel-thick snakes that climb and descend the whole z range
/// column after column, so their runs join mostly along z and sets merge
/// late; they interleave in scan order and touch nothing else.
Mask z_serpentine() {
  const Dims d{15, 6, 19};
  Mask m(d);
  for (int snake = 0; snake < 2; ++snake) {
    const int y = 1 + 3 * snake;
    for (int column = 0; column < 7; ++column) {
      const int x = 2 * column + snake % 2;
      for (int z = 0; z < d.z; ++z) m.at(x, y, z) = 1;
      // Turn at the top after even columns and at the bottom after odd
      // ones; the second snake turns at the opposite end.
      if (column + 1 < 7 && x + 1 < d.x) {
        const bool top = (column % 2 == 0) != (snake == 1);
        m.at(x + 1, y, top ? d.z - 1 : 0) = 1;
      }
    }
  }
  return m;
}

/// The U case on two planes: two runs of plane 0 joined only through a bar
/// in plane 1, then a run of plane 0 whose label drops by one after that
/// join; beside it the upside-down U, two runs of plane 1 joined only
/// through plane 0.
Mask u_case() {
  Mask m(Dims{14, 6, 2});
  m.at(1, 1, 0) = 1;  // left leg
  m.at(5, 1, 0) = 1;  // right leg
  for (int x = 1; x <= 5; ++x) m.at(x, 1, 1) = 1;
  m.at(3, 3, 0) = 1;  // a lone part after the U's legs
  for (int x = 8; x <= 12; ++x) m.at(x, 4, 0) = 1;
  m.at(8, 4, 1) = 1;
  m.at(12, 4, 1) = 1;
  m.at(10, 2, 1) = 1;  // a lone part of plane 1 before the upside-down U
  return m;
}

// The bare labeling gives the labels and attributes of the labeling with a
// value volume. The bare labelings of the random fills are pinned with
// digests of one flood.
TEST(Components, BareLabelingMatchesValueLabeling) {
  const Dims d{23, 19, 17};
  struct Case {
    const char* name;
    Mask mask;
    std::uint64_t digest;  // 0: not pinned
  };
  const std::vector<Case> cases = {
      {"fill 0.1", random_mask(d, 0.1), 0x4031419f89e90aeaull},
      {"fill 0.5", random_mask(d, 0.5), 0xdc917e5b6b3c9ae2ull},
      {"fill 0.82", random_mask(d, 0.82), 0xbbe9d978e6969955ull},
      {"fill 1.0", random_mask(d, 1.0), 0},
      {"z serpentine", z_serpentine(), 0},
      {"U", u_case(), 0},
      {"nz 1", random_mask(Dims{23, 19, 1}, 0.5), 0},
      {"nz 2", random_mask(Dims{23, 19, 2}, 0.6), 0},
      {"nz 3", random_mask(Dims{23, 19, 3}, 0.6), 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const VolumeF values(c.mask.dims(), 1.0f);
    const Labeling valued = label_components(c.mask, &values);
    const Labeling bare = label_components(c.mask);
    expect_same_labeling(bare, valued);
    if (c.digest != 0) {
      EXPECT_EQ(labeling_digest(bare), c.digest);
    }
  }
  // The serpentine is two components and the U case four.
  EXPECT_EQ(label_components(z_serpentine()).components.size(), 2u);
  EXPECT_EQ(label_components(u_case()).components.size(), 4u);
}

/// The labeling of one FIFO flood over the whole mask, the labeling before
/// it worked on runs: components numbered in scan order of their first
/// voxels, neighbours claimed in the order +x, -x, +y, -y, +z, -z, and
/// value_sum added in flood order.
Labeling reference_flood(const Mask& mask, const VolumeF& values) {
  const Dims d = mask.dims();
  const auto nx = static_cast<std::size_t>(d.x);
  const std::size_t plane = nx * static_cast<std::size_t>(d.y);
  Labeling out;
  out.labels = Volume<std::int32_t>(d, 0);
  for (std::size_t v = 0; v < mask.size(); ++v) {
    out.labels[v] = mask[v] != 0 ? -1 : 0;
  }
  std::vector<std::size_t> worklist;
  for (std::size_t start = 0; start < mask.size(); ++start) {
    if (out.labels[start] >= 0) continue;
    const auto label = static_cast<std::int32_t>(out.components.size() + 1);
    out.labels[start] = label;
    worklist.assign(1, start);
    const auto claim = [&](std::size_t q) {
      if (out.labels[q] >= 0) return;
      out.labels[q] = label;
      worklist.push_back(q);
    };
    std::size_t lo[3] = {SIZE_MAX, SIZE_MAX, SIZE_MAX};
    std::size_t hi[3] = {0, 0, 0};
    std::uint64_t sum[3] = {0, 0, 0};
    double value_sum = 0.0;
    for (std::size_t head = 0; head < worklist.size(); ++head) {
      const std::size_t v = worklist[head];
      const std::size_t row = v / nx;
      const std::size_t x = v - row * nx;
      const std::size_t z = row / static_cast<std::size_t>(d.y);
      const std::size_t y = row - z * static_cast<std::size_t>(d.y);
      const std::size_t c[3] = {x, y, z};
      for (int a = 0; a < 3; ++a) {
        lo[a] = std::min(lo[a], c[a]);
        hi[a] = std::max(hi[a], c[a]);
        sum[a] += c[a];
      }
      value_sum += values[v];
      if (x + 1 < nx) claim(v + 1);
      if (x > 0) claim(v - 1);
      if (y + 1 < static_cast<std::size_t>(d.y)) claim(v + nx);
      if (y > 0) claim(v - nx);
      if (v + plane < mask.size()) claim(v + plane);
      if (v >= plane) claim(v - plane);
    }
    ComponentInfo info;
    info.label = label;
    info.voxel_count = worklist.size();
    info.bbox_min = Index3{static_cast<int>(lo[0]), static_cast<int>(lo[1]),
                           static_cast<int>(lo[2])};
    info.bbox_max = Index3{static_cast<int>(hi[0]), static_cast<int>(hi[1]),
                           static_cast<int>(hi[2])};
    info.value_sum = value_sum;
    const double n = static_cast<double>(worklist.size());
    info.centroid = Vec3{static_cast<double>(sum[0]) / n,
                         static_cast<double>(sum[1]) / n,
                         static_cast<double>(sum[2]) / n};
    out.components.push_back(info);
  }
  std::sort(out.components.begin(), out.components.end(),
            [](const ComponentInfo& a, const ComponentInfo& b) {
              return a.voxel_count > b.voxel_count;
            });
  return out;
}

/// `mask` with every set voxel holding `byte`.
Mask with_set_byte(Mask mask, std::uint8_t byte) {
  for (std::size_t v = 0; v < mask.size(); ++v) {
    if (mask[v] != 0) mask[v] = byte;
  }
  return mask;
}

// The run labeling gives the labels and attributes of one flood, on rows
// one word long, shorter and longer (runs cross 64-voxel word edges), at
// every fill, with set bytes other than 1. Its value_sum adds each
// component's voxels in scan order.
TEST(Components, RunLabelingMatchesReferenceFlood) {
  struct Case {
    std::string name;
    Mask mask;
  };
  std::vector<Case> cases;
  for (const int nx : {1, 7, 8, 63, 64, 65, 130}) {
    for (const double fill : {0.0, 0.1, 0.5, 0.82, 1.0}) {
      const Mask mask = random_mask(Dims{nx, 9, 7}, fill);
      for (const std::uint8_t byte : {1, 2, 255}) {
        cases.push_back({"nx " + std::to_string(nx) + " fill " +
                             std::to_string(fill) + " byte " +
                             std::to_string(byte),
                         with_set_byte(mask, byte)});
      }
    }
  }
  cases.push_back({"z serpentine", z_serpentine()});
  cases.push_back({"U", u_case()});
  for (const int nz : {1, 2, 3}) {
    cases.push_back({"nz " + std::to_string(nz),
                     random_mask(Dims{70, 19, nz}, 0.6)});
  }
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const VolumeF values = random_volume(c.mask.dims(), 2718, -1.0, 1.0);
    const Labeling want = reference_flood(c.mask, values);
    const Labeling got = label_components(c.mask, &values);
    expect_same_labeling(got, want);
    std::vector<double> scan_sum(want.components.size() + 1, 0.0);
    for (std::size_t v = 0; v < want.labels.size(); ++v) {
      const std::int32_t label = want.labels[v];
      if (label > 0) scan_sum[static_cast<std::size_t>(label)] += values[v];
    }
    for (const ComponentInfo& info : got.components) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(info.value_sum),
                std::bit_cast<std::uint64_t>(
                    scan_sum[static_cast<std::size_t>(info.label)]))
          << "label " << info.label;
    }
  }
}

}  // namespace
}  // namespace ifet
