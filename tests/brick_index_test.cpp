// BrickIndex correctness: per-brick ranges vs brute force, NaN and ragged
// extents, serialization, TF classification — and the renderer-level
// property the whole subsystem exists for: empty-space skipping is bitwise
// identical to the unskipped march for random volumes and random TFs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "flowsim/datasets.hpp"
#include "render/raycaster.hpp"
#include "test_helpers.hpp"
#include "volume/ops.hpp"
#include "tf/transfer_function.hpp"
#include "util/io_error.hpp"
#include "util/rng.hpp"
#include "volume/brick_index.hpp"

namespace ifet {
namespace {

/// Brute-force min/max of one brick, the reference the builder must match.
BrickIndex::Range brute_range(const VolumeF& v, int bx, int by, int bz,
                              int bsize) {
  const Dims d = v.dims();
  BrickIndex::Range r{std::numeric_limits<float>::infinity(),
                      -std::numeric_limits<float>::infinity()};
  bool has_nan = false;
  for (int k = bz * bsize; k < std::min((bz + 1) * bsize, d.z); ++k) {
    for (int j = by * bsize; j < std::min((by + 1) * bsize, d.y); ++j) {
      for (int i = bx * bsize; i < std::min((bx + 1) * bsize, d.x); ++i) {
        const float val = v.at(i, j, k);
        if (std::isnan(val)) {
          has_nan = true;
          continue;
        }
        r.lo = std::min(r.lo, val);
        r.hi = std::max(r.hi, val);
      }
    }
  }
  if (has_nan) {
    r.lo = -std::numeric_limits<float>::infinity();
    r.hi = std::numeric_limits<float>::infinity();
  }
  return r;
}

TEST(BrickIndex, RangesMatchBruteForceOnRaggedExtents) {
  // Extents deliberately not multiples of the brick size, several brick
  // sizes, random data: every brick's stored range must equal the brute
  // scan and never be NaN.
  const Dims dims_set[] = {{13, 9, 17}, {16, 16, 16}, {20, 5, 3}};
  const int brick_sizes[] = {4, 8, 5};
  std::uint64_t seed = 11;
  for (const Dims& d : dims_set) {
    for (int bsize : brick_sizes) {
      const VolumeF v = testing::random_volume(d, seed++, -2.0, 3.0);
      const BrickIndex index = BrickIndex::build(v, bsize);
      EXPECT_EQ(index.brick_size(), bsize);
      EXPECT_EQ(index.volume_dims(), d);
      const Dims g = index.grid();
      EXPECT_EQ(g.x, (d.x + bsize - 1) / bsize);
      EXPECT_EQ(g.y, (d.y + bsize - 1) / bsize);
      EXPECT_EQ(g.z, (d.z + bsize - 1) / bsize);
      for (int bz = 0; bz < g.z; ++bz) {
        for (int by = 0; by < g.y; ++by) {
          for (int bx = 0; bx < g.x; ++bx) {
            const BrickIndex::Range got = index.range(bx, by, bz);
            const BrickIndex::Range want = brute_range(v, bx, by, bz, bsize);
            EXPECT_EQ(got.lo, want.lo);
            EXPECT_EQ(got.hi, want.hi);
            EXPECT_FALSE(std::isnan(got.lo));
            EXPECT_FALSE(std::isnan(got.hi));
          }
        }
      }
    }
  }
}

TEST(BrickIndex, NanVoxelWidensBrickToUnbounded) {
  VolumeF v = testing::random_volume(Dims{12, 12, 12}, 7);
  v.at(2, 3, 4) = std::numeric_limits<float>::quiet_NaN();
  const BrickIndex index = BrickIndex::build(v, 8);
  // The contaminated brick is [-inf, +inf] — never NaN — so no TF with a
  // visible entry can prove it transparent and NaN data is always marched.
  const BrickIndex::Range r = index.range(0, 0, 0);
  EXPECT_TRUE(std::isinf(r.lo) && r.lo < 0.0f);
  EXPECT_TRUE(std::isinf(r.hi) && r.hi > 0.0f);
  std::vector<std::uint8_t> active;
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.45, 0.55, 1.0);  // any nonzero band keeps the brick
  index.classify(tf, active);
  EXPECT_NE(active[index.brick_linear(0, 0, 0)], 0);
  // A TF with zero opacity everywhere proves even unbounded ranges
  // transparent (nothing is visible), so the brick is culled.
  TransferFunction1D transparent(0.0, 1.0);
  index.classify(transparent, active);
  EXPECT_EQ(active[index.brick_linear(0, 0, 0)], 0);
}

TEST(BrickIndex, SerializeRoundTripsExactly) {
  const Dims d{11, 14, 6};
  const VolumeF v = testing::random_volume(d, 21, -1.0, 1.0);
  const BrickIndex index = BrickIndex::build(v, 4);
  const std::vector<std::uint8_t> bytes = index.serialize();
  EXPECT_EQ(bytes.size(), BrickIndex::serialized_bytes(d, 4));
  const BrickIndex back =
      BrickIndex::deserialize(d, 4, bytes.data(), bytes.size());
  ASSERT_EQ(back.num_bricks(), index.num_bricks());
  for (std::size_t b = 0; b < index.num_bricks(); ++b) {
    EXPECT_EQ(back.ranges()[b].lo, index.ranges()[b].lo);
    EXPECT_EQ(back.ranges()[b].hi, index.ranges()[b].hi);
  }
}

TEST(BrickIndex, DeserializeRejectsCorruptSections) {
  const Dims d{8, 8, 8};
  const VolumeF v = testing::random_volume(d, 3);
  std::vector<std::uint8_t> bytes = BrickIndex::build(v, 8).serialize();
  EXPECT_THROW(BrickIndex::deserialize(d, 8, bytes.data(), bytes.size() - 1),
               CorruptDataError);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(bytes.data(), &nan, sizeof(float));
  EXPECT_THROW(BrickIndex::deserialize(d, 8, bytes.data(), bytes.size()),
               CorruptDataError);
}

TEST(BrickIndex, ClassifyCullsOnlyTransparentRanges) {
  // Two separated value populations; a TF band over one must keep its
  // bricks (and their dilation shell) active and cull far-away bricks.
  VolumeF v(Dims{32, 32, 32}, 0.1f);
  for (int k = 24; k < 32; ++k) {
    for (int j = 24; j < 32; ++j) {
      for (int i = 24; i < 32; ++i) v.at(i, j, k) = 0.9f;
    }
  }
  const BrickIndex index = BrickIndex::build(v, 8);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.8, 1.0, 1.0);
  std::vector<std::uint8_t> active;
  index.classify(tf, active);
  // The hot corner brick stays; the opposite corner (far outside the
  // 3x3x3 dilation of any hot brick) is culled.
  EXPECT_NE(active[index.brick_linear(3, 3, 3)], 0);
  EXPECT_EQ(active[index.brick_linear(0, 0, 0)], 0);
}

// --- The renderer-level property ------------------------------------------

TransferFunction1D random_tf(Rng& rng) {
  TransferFunction1D tf(0.0, 1.0);
  const int bands = static_cast<int>(rng.uniform(0.0, 3.0));
  for (int b = 0; b < bands; ++b) {
    const double lo = rng.uniform(0.0, 0.9);
    const double hi = lo + rng.uniform(0.02, 0.3);
    tf.add_band(lo, std::min(hi, 1.0), rng.uniform(0.2, 1.0));
  }
  return tf;
}

/// Renders the same scene with and without empty-space skipping and
/// requires bitwise-identical pixels.
void expect_bitwise_equal(const RenderSettings& base, const VolumeF& v,
                          const TransferFunction1D& tf,
                          const ColorMap& colors, const Camera& cam,
                          const HighlightLayer* highlight,
                          RenderStats* skip_stats = nullptr) {
  RenderSettings with = base, without = base;
  with.empty_space_skipping = true;
  without.empty_space_skipping = false;
  const ImageRgb8 a =
      Raycaster(with).render(v, tf, colors, cam, highlight, skip_stats);
  const ImageRgb8 b =
      Raycaster(without).render(v, tf, colors, cam, highlight, nullptr);
  ASSERT_EQ(a.pixels.size(), b.pixels.size());
  for (std::size_t p = 0; p < a.pixels.size(); ++p) {
    if (a.pixels[p] != b.pixels[p]) {
      const std::size_t pixel = p / 3;
      ADD_FAILURE() << "first mismatch at pixel (" << pixel % base.width << ", "
                    << pixel / base.width << ") channel " << p % 3
                    << ": skipped=" << int(a.pixels[p])
                    << " unskipped=" << int(b.pixels[p]);
      return;
    }
  }
}

TEST(BrickSkipEquivalence, RandomTfsRandomVolumesAllModes) {
  Rng rng(99);
  const ColorMap colors;
  for (int trial = 0; trial < 6; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const Dims d{21 + 2 * trial, 24, 19};  // ragged vs the 8^3 bricks
    VolumeF v = testing::random_volume(d, 1000 + trial);
    if (trial == 5) {  // NaN-contaminated data must render identically too
      v.at(1, 2, 3) = std::numeric_limits<float>::quiet_NaN();
    }
    const TransferFunction1D tf = random_tf(rng);
    const Camera cam(rng.uniform(0.0, 6.28), rng.uniform(-1.2, 1.2), 2.4);

    RenderSettings s;
    s.width = 40;
    s.height = 40;
    {
      SCOPED_TRACE("front-to-back");
      expect_bitwise_equal(s, v, tf, colors, cam, nullptr);
    }
    RenderSettings unshaded = s;
    unshaded.shading = false;
    {
      SCOPED_TRACE("front-to-back unshaded");
      expect_bitwise_equal(unshaded, v, tf, colors, cam, nullptr);
    }
  }
}

TEST(BrickSkipEquivalence, TrackedFeatureOverlay) {
  const Dims d{26, 26, 26};
  const VolumeF v = testing::blob_volume(d, Vec3{12, 12, 12}, 4.0, 1.0f);
  const Mask mask = testing::box_mask(d, Index3{10, 10, 10}, Index3{15, 15, 15});
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.7, 0.9, 0.6);
  TransferFunction1D adaptive(0.0, 1.0);
  adaptive.add_band(0.05, 0.5, 0.8);  // visible where the main TF is not
  HighlightLayer highlight;
  highlight.mask = &mask;
  highlight.tf = &adaptive;
  RenderSettings s;
  s.width = 40;
  s.height = 40;
  RenderSettings unshaded = s;
  unshaded.shading = false;
  const ColorMap colors;
  const Camera cam(0.7, 0.3, 2.2);
  {
    SCOPED_TRACE("shaded");
    expect_bitwise_equal(s, v, tf, colors, cam, &highlight);
  }
  {
    SCOPED_TRACE("unshaded");
    expect_bitwise_equal(unshaded, v, tf, colors, cam, &highlight);
  }
}

TEST(BrickSkipEquivalence, ClassifiedRenderAndSkipCounters) {
  // TF-sparse scene: a small hot blob in a large cold volume. The skip
  // path must (a) actually skip, (b) stay bitwise identical through the
  // certainty-modulated render.
  const Dims d{48, 48, 48};
  const VolumeF v = testing::blob_volume(d, Vec3{24, 24, 24}, 3.0, 1.0f);
  VolumeF certainty(d, 1.0f);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.6, 1.0, 0.9);
  const ColorMap colors;
  const Camera cam(0.5, 0.4, 2.5);
  RenderSettings s;
  s.width = 48;
  s.height = 48;

  RenderSettings with = s, without = s;
  with.empty_space_skipping = true;
  without.empty_space_skipping = false;
  RenderStats stats;
  const ImageRgb8 a = Raycaster(with).render_classified(v, certainty, tf,
                                                        colors, cam, &stats);
  const ImageRgb8 b =
      Raycaster(without).render_classified(v, certainty, tf, colors, cam);
  EXPECT_EQ(a.pixels, b.pixels);
  EXPECT_GT(stats.samples_skipped, 0u);
  EXPECT_GT(stats.skip_rate(), 0.5);  // most of the scene is empty space
  EXPECT_GT(stats.bricks_total, 0u);
  EXPECT_LT(stats.bricks_active, stats.bricks_total);
}

TEST(BrickSkipEquivalence, ArgonIatfSceneAllModes) {
  // The render contracts' scene: a trained IATF TF over a turbulent
  // volume, every render variant.
  const testing::ArgonRenderScene& scene = testing::argon_render_scene();
  for (const testing::RenderVariant& v : scene.variants()) {
    SCOPED_TRACE(v.name);
    expect_bitwise_equal(v.settings, scene.volume, scene.tf, scene.colors,
                         scene.camera, v.highlight);
  }
}

TEST(BrickSkipEquivalence, TfSparseArgon128AllModesSkips) {
  // A TF band over the argon ring: the ring is a thin shell, so most
  // bricks classify empty and skipping removes most of the march. The
  // half-voxel step is the quality setting for shaded stills; bricks are
  // clipped analytically, so finer marching only grows the skipped work.
  ArgonBubbleConfig cfg;
  cfg.dims = Dims{128, 128, 128};
  cfg.num_steps = 360;
  const ArgonBubbleSource source(cfg);
  const VolumeF volume = source.generate(225);
  auto [vlo, vhi] = source.value_range();
  TransferFunction1D tf(vlo, vhi);
  const double c = source.ring_band_center(225);
  const double h = source.ring_band_half_width();
  tf.add_band(c - h, c + h, 1.0, 0.5 * h);
  const Mask mask = threshold_mask(volume, static_cast<float>(c - h),
                                   static_cast<float>(c + h));
  const HighlightLayer overlay{&mask, &tf, Rgb{0.9, 0.05, 0.05}};
  const ColorMap colors;
  const Camera cam(0.5, 0.35, 2.4);

  RenderSettings shaded;
  shaded.width = 128;
  shaded.height = 128;
  shaded.step_voxels = 0.5;
  RenderSettings unshaded = shaded;
  unshaded.shading = false;
  const testing::RenderVariant variants[] = {
      {"front-to-back shaded", shaded, nullptr},
      {"tracking overlay", shaded, &overlay},
      {"front-to-back unshaded", unshaded, nullptr}};
  for (const testing::RenderVariant& v : variants) {
    SCOPED_TRACE(v.name);
    RenderStats stats;
    expect_bitwise_equal(v.settings, volume, tf, colors, cam, v.highlight,
                         &stats);
    EXPECT_GT(stats.skip_rate(), 0.5);
  }
}

}  // namespace
}  // namespace ifet
