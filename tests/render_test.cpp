#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <numeric>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "render/camera.hpp"
#include "render/ray_packet.hpp"
#include "render/raycaster.hpp"
#include "test_helpers.hpp"
#include "util/alloc_guard.hpp"
#include "util/determinism.hpp"
#include "util/error.hpp"

// Counting operator new/delete for this binary: the row-kernel contract
// below asserts a warm render_rows never touches the heap.
IFET_ALLOC_GUARD_INSTALL();

namespace ifet {
namespace {

using testing::blob_volume;
using testing::box_mask;

TEST(Camera, PixelRaysAreUnitLength) {
  Camera cam(0.5, 0.3, 2.5);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      Ray r = cam.pixel_ray(x, y, 8, 8);
      EXPECT_NEAR(r.direction.norm(), 1.0, 1e-12);
      EXPECT_NEAR((r.origin - cam.position()).norm(), 0.0, 1e-12);
    }
  }
}

TEST(Camera, CenterRayPointsAtOrigin) {
  Camera cam(0.7, 0.2, 3.0);
  // With an even image the four center pixels straddle the axis; a large
  // image makes the center ray nearly exact.
  Ray r = cam.pixel_ray(500, 500, 1001, 1001);
  // The ray from the eye towards the origin:
  Vec3 to_origin = (Vec3{0, 0, 0} - cam.position()).normalized();
  EXPECT_NEAR(r.direction.dot(to_origin), 1.0, 1e-4);
}

TEST(Camera, RejectsBadParameters) {
  EXPECT_THROW(Camera(0, 0, -1.0), Error);
  EXPECT_THROW(Camera(0, 0, 1.0, 5.0), Error);
}

TEST(Camera, StraightDownViewUsesFallbackUp) {
  // Elevation ~ +-pi/2 makes the view direction parallel to world up; the
  // camera must fall back to an alternative up vector and still produce
  // finite, unit-length rays.
  for (double elevation : {1.5707, -1.5707}) {
    Camera cam(0.3, elevation, 2.0);
    for (int y = 0; y < 4; ++y) {
      for (int x = 0; x < 4; ++x) {
        Ray r = cam.pixel_ray(x, y, 4, 4);
        EXPECT_NEAR(r.direction.norm(), 1.0, 1e-9);
        EXPECT_TRUE(std::isfinite(r.direction.x));
        EXPECT_TRUE(std::isfinite(r.direction.y));
        EXPECT_TRUE(std::isfinite(r.direction.z));
      }
    }
  }
}

TEST(IntersectBox, HitAndMiss) {
  Vec3 lo{-0.5, -0.5, -0.5}, hi{0.5, 0.5, 0.5};
  double t0, t1;
  Ray hit{{-2, 0, 0}, {1, 0, 0}};
  ASSERT_TRUE(intersect_box(hit, lo, hi, t0, t1));
  EXPECT_NEAR(t0, 1.5, 1e-12);
  EXPECT_NEAR(t1, 2.5, 1e-12);

  Ray miss{{-2, 2, 0}, {1, 0, 0}};
  EXPECT_FALSE(intersect_box(miss, lo, hi, t0, t1));

  // Ray starting inside: t_near clamps to 0.
  Ray inside{{0, 0, 0}, {0, 0, 1}};
  ASSERT_TRUE(intersect_box(inside, lo, hi, t0, t1));
  EXPECT_DOUBLE_EQ(t0, 0.0);
  EXPECT_NEAR(t1, 0.5, 1e-12);
}

TEST(IntersectBox, AxisParallelRay) {
  Vec3 lo{0, 0, 0}, hi{1, 1, 1};
  double t0, t1;
  // Parallel to x inside the slab.
  Ray in{{-1, 0.5, 0.5}, {1, 0, 0}};
  EXPECT_TRUE(intersect_box(in, lo, hi, t0, t1));
  // Parallel to x outside the slab.
  Ray out{{-1, 2.0, 0.5}, {1, 0, 0}};
  EXPECT_FALSE(intersect_box(out, lo, hi, t0, t1));
}

RenderSettings small_settings() {
  RenderSettings s;
  s.width = 48;
  s.height = 48;
  return s;
}

TEST(Raycaster, TransparentTfGivesBackground) {
  VolumeF v = testing::random_volume(Dims{16, 16, 16}, 3);
  TransferFunction1D tf(0.0, 1.0);  // fully transparent
  Raycaster caster(small_settings());
  Camera cam(0.4, 0.3, 2.5);
  ImageRgb8 img = caster.render(v, tf, ColorMap(), cam);
  for (std::size_t p = 0; p < img.pixels.size(); ++p) {
    EXPECT_EQ(img.pixels[p], 0);  // black
  }
}

TEST(Raycaster, OpaqueBlobProducesNonBackgroundPixels) {
  VolumeF v = blob_volume(Dims{24, 24, 24}, {12, 12, 12}, 4.0, 1.0f);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.5, 1.0, 1.0);
  Raycaster caster(small_settings());
  Camera cam(0.4, 0.3, 2.5);
  RenderStats stats;
  ImageRgb8 img = caster.render(v, tf, ColorMap(), cam, nullptr, &stats);
  int nonblack = 0;
  for (std::size_t p = 0; p < img.pixels.size(); p += 3) {
    if (img.pixels[p] || img.pixels[p + 1] || img.pixels[p + 2]) ++nonblack;
  }
  EXPECT_GT(nonblack, 30);
  EXPECT_EQ(stats.rays, 48u * 48u);
  EXPECT_GT(stats.samples, 0u);
  EXPECT_GT(stats.seconds, 0.0);
}

TEST(Raycaster, EarlyTerminationTriggersOnOpaqueVolume) {
  VolumeF v(Dims{16, 16, 16}, 0.8f);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.0, 1.0, 1.0);  // everything fully opaque
  Raycaster caster(small_settings());
  Camera cam(0.4, 0.3, 2.5);
  RenderStats stats;
  caster.render(v, tf, ColorMap(), cam, nullptr, &stats);
  EXPECT_GT(stats.terminated_early, 100u);
}

TEST(Raycaster, HighlightTurnsMaskRegionRed) {
  // Volume: uniform medium-opacity; highlight mask over one half.
  VolumeF v(Dims{16, 16, 16}, 0.5f);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.0, 1.0, 0.9);
  TransferFunction1D highlight_tf = tf;
  Mask mask = box_mask(Dims{16, 16, 16}, {0, 0, 0}, {15, 15, 15});
  HighlightLayer layer{&mask, &highlight_tf, Rgb{1.0, 0.0, 0.0}};
  RenderSettings s = small_settings();
  s.shading = false;  // keep colors pure
  Raycaster caster(s);
  Camera cam(0.4, 0.3, 2.5);
  ImageRgb8 img = caster.render(v, tf, ColorMap(), cam, &layer);
  // Every volume-covering pixel must be pure red (mask covers everything).
  int red_pixels = 0;
  for (std::size_t p = 0; p < img.pixels.size(); p += 3) {
    if (img.pixels[p] > 200 && img.pixels[p + 1] < 30 &&
        img.pixels[p + 2] < 30) {
      ++red_pixels;
    }
  }
  EXPECT_GT(red_pixels, 400);
}

TEST(Raycaster, ClassifiedRenderWithUnitCertaintyMatchesRender) {
  VolumeF v = blob_volume(Dims{16, 16, 16}, {8, 8, 8}, 3.0, 1.0f);
  VolumeF certainty(v.dims(), 1.0f);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.4, 1.0, 0.8);
  Raycaster caster(small_settings());
  Camera cam(0.4, 0.3, 2.5);
  ImageRgb8 plain = caster.render(v, tf, ColorMap(), cam);
  ImageRgb8 classified =
      caster.render_classified(v, certainty, tf, ColorMap(), cam);
  // certainty == 1 everywhere multiplies every opacity by exactly 1.0, so
  // the pre-classified pass must reproduce render() pixel for pixel.
  EXPECT_EQ(plain.pixels, classified.pixels);
}

TEST(Raycaster, ZeroCertaintyHidesTheVolume) {
  VolumeF v = blob_volume(Dims{16, 16, 16}, {8, 8, 8}, 3.0, 1.0f);
  VolumeF certainty(v.dims(), 0.0f);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.0, 1.0, 1.0);
  Raycaster caster(small_settings());
  Camera cam(0.4, 0.3, 2.5);
  ImageRgb8 img = caster.render_classified(v, certainty, tf, ColorMap(), cam);
  for (std::size_t p = 0; p < img.pixels.size(); ++p) {
    EXPECT_EQ(img.pixels[p], 0);  // black
  }
}

TEST(Raycaster, ClassifiedRenderValidatesInputs) {
  VolumeF v(Dims{8, 8, 8}, 0.5f);
  TransferFunction1D tf(0.0, 1.0);
  Camera cam(0.4, 0.3, 2.5);
  VolumeF wrong_dims(Dims{4, 4, 4}, 1.0f);
  Raycaster caster(small_settings());
  EXPECT_THROW(caster.render_classified(v, wrong_dims, tf, ColorMap(), cam),
               Error);
}

TEST(Raycaster, HighlightValidatesInputs) {
  VolumeF v(Dims{8, 8, 8}, 0.5f);
  TransferFunction1D tf(0.0, 1.0);
  Raycaster caster(small_settings());
  Camera cam(0.4, 0.3, 2.5);
  HighlightLayer missing{nullptr, nullptr, Rgb{1, 0, 0}};
  EXPECT_THROW(caster.render(v, tf, ColorMap(), cam, &missing), Error);
  Mask wrong(Dims{4, 4, 4});
  HighlightLayer bad{&wrong, &tf, Rgb{1, 0, 0}};
  EXPECT_THROW(caster.render(v, tf, ColorMap(), cam, &bad), Error);
}

TEST(Raycaster, SettingsValidated) {
  RenderSettings s;
  s.width = 0;
  EXPECT_THROW(Raycaster{s}, Error);
  RenderSettings s2;
  s2.step_voxels = 0.0;
  EXPECT_THROW(Raycaster{s2}, Error);
}

TEST(Raycaster, SmallerStepSamplesMore) {
  VolumeF v(Dims{16, 16, 16}, 0.1f);
  TransferFunction1D tf(0.0, 1.0);  // transparent: no early termination
  Camera cam(0.4, 0.3, 2.5);
  // A fully transparent TF marks every brick skippable, which would clip
  // all samples; this test is about raw march density, so skip nothing.
  RenderSettings coarse = small_settings();
  coarse.step_voxels = 2.0;
  coarse.empty_space_skipping = false;
  RenderSettings fine = small_settings();
  fine.step_voxels = 0.5;
  fine.empty_space_skipping = false;
  RenderStats cs, fs;
  Raycaster(coarse).render(v, tf, ColorMap(), cam, nullptr, &cs);
  Raycaster(fine).render(v, tf, ColorMap(), cam, nullptr, &fs);
  EXPECT_GT(fs.samples, cs.samples * 3);
}

TEST(RenderSlice, MapsValuesThroughTf) {
  Dims d{8, 8, 8};
  VolumeF v(d, 0.0f);
  v.at(3, 4, 2) = 1.0f;
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.9, 1.0, 1.0);
  ColorMap colors({{0.0, Rgb{0, 0, 1}}, {1.0, Rgb{1, 0, 0}}});
  ImageRgb8 img = render_slice(v, 2, 2, tf, colors);
  EXPECT_EQ(img.width, 8);
  EXPECT_EQ(img.height, 8);
  // The hot voxel renders red at (col=3,row=4); everything else black
  // (opacity zero).
  std::size_t o = 3 * (4u * 8u + 3u);
  EXPECT_GT(img.pixels[o], 200);
  EXPECT_EQ(img.pixels[o + 2], 0);
  std::size_t elsewhere = 3 * (0u * 8u + 0u);
  EXPECT_EQ(img.pixels[elsewhere], 0);
}

TEST(RenderSlice, AxisSelection) {
  Dims d{4, 6, 8};
  VolumeF v(d, 0.5f);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.0, 1.0, 1.0);
  ImageRgb8 x = render_slice(v, 0, 1, tf, ColorMap());
  EXPECT_EQ(x.width, 6);
  EXPECT_EQ(x.height, 8);
  ImageRgb8 y = render_slice(v, 1, 1, tf, ColorMap());
  EXPECT_EQ(y.width, 4);
  EXPECT_EQ(y.height, 8);
  ImageRgb8 z = render_slice(v, 2, 1, tf, ColorMap());
  EXPECT_EQ(z.width, 4);
  EXPECT_EQ(z.height, 6);
  EXPECT_THROW(render_slice(v, 3, 0, tf, ColorMap()), Error);
  EXPECT_THROW(render_slice(v, 2, 99, tf, ColorMap()), Error);
}

// --- Contracts of the ray loop on the 64^3 argon scene ---------------------

/// Steady-state contract on the IFET_HOT ray loop: once a frame's Plan and
/// destination image exist, render_rows marches every row with zero heap
/// allocations (render() itself allocates the image and the pool's task
/// plumbing, so the check drives the row kernel directly), and the
/// row-kernel image is bitwise identical to the render() output.
TEST(RenderRowsContract, WarmRowsAllocateNothingAndMatchRender) {
  const testing::ArgonRenderScene& scene = testing::argon_render_scene();
  for (const testing::RenderVariant& v : scene.variants()) {
    SCOPED_TRACE(v.name);
    const Raycaster caster(v.settings);
    const ImageRgb8 pooled = caster.render(scene.volume, scene.tf,
                                           scene.colors, scene.camera,
                                           v.highlight);
    const Raycaster::Plan plan = caster.prepare_plan(
        scene.volume, scene.tf, scene.colors, scene.camera, v.highlight);
    ImageRgb8 direct(v.settings.width, v.settings.height);
    Raycaster::RenderRowCounters warm;
    caster.render_rows(plan, 0, v.settings.height, direct, warm);
    EXPECT_EQ(pooled.pixels, direct.pixels);
    EXPECT_GT(warm.samples, 0u) << "no samples marched: the check is vacuous";

    Raycaster::RenderRowCounters steady;
    const DenyAllocScope guard;
    caster.render_rows(plan, 0, v.settings.height, direct, steady);
    const std::uint64_t allocations = guard.allocations();
    EXPECT_EQ(allocations, 0u);
  }
}

/// Digest of one replay trial over the argon scene: every variant's frame
/// rendered through the pool (which splits rows differently at every
/// width), then through render_rows with its row chunks marched in a
/// deterministic shuffle when the trial asks for it (rows only write their
/// own pixels).
std::uint64_t replay_digest(
    const ReplayTrial& trial,
    const std::vector<testing::RenderVariant>& variants) {
  const testing::ArgonRenderScene& scene = testing::argon_render_scene();
  ThreadPool::ScopedGlobalWidth width(trial.threads);
  DigestSink sink;
  for (const testing::RenderVariant& v : variants) {
    const Raycaster caster(v.settings);
    const ImageRgb8 pooled =
        v.certainty != nullptr
            ? caster.render_classified(scene.volume, *v.certainty, scene.tf,
                                       scene.colors, scene.camera)
            : caster.render(scene.volume, scene.tf, scene.colors,
                            scene.camera, v.highlight);
    sink.span(pooled.pixels.data(), pooled.pixels.size());
    const Raycaster::Plan plan =
        caster.prepare_plan(scene.volume, scene.tf, scene.colors,
                            scene.camera, v.highlight, v.certainty);
    constexpr int kChunkRows = 8;
    const std::size_t chunks =
        (static_cast<std::size_t>(v.settings.height) + kChunkRows - 1) /
        kChunkRows;
    std::vector<std::size_t> order(chunks);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (trial.shuffled) order = replay_permutation(chunks, 0xCA57);
    ImageRgb8 direct(v.settings.width, v.settings.height);
    Raycaster::RenderRowCounters counters;
    for (const std::size_t c : order) {
      const int lo = static_cast<int>(c) * kChunkRows;
      const int hi = std::min(lo + kChunkRows, v.settings.height);
      caster.render_rows(plan, lo, hi, direct, counters);
    }
    sink.span(direct.pixels.data(), direct.pixels.size());
  }
  return sink.value();
}

std::vector<std::size_t> replay_widths() {
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  return {1, 4, hw};
}

/// Perturbed replay of the IFET_DETERMINISTIC render kernels
/// (util/determinism.hpp): every variant renders bitwise-identical frames
/// across pool widths {1, 4, hardware}, cold and warm caches, and shuffled
/// row-chunk order through render_rows. The pinned digest changes only
/// when the frames do.
TEST(RenderReplay, VariantsDigestIdenticallyAcrossSchedules) {
  const std::vector<testing::RenderVariant> variants =
      testing::argon_render_scene().variants();
  const ReplayCheck check("raycaster_variants", replay_widths());
  const ReplayReport report = check.run(
      [&](const ReplayTrial& trial) { return replay_digest(trial, variants); });
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.reference_digest, 0x189ff47320685485ull)
      << report.summary();
}

/// The frames opacity correction shapes, pinned on their own: shaded and
/// overlay frames at a half-voxel step (a correction exponent other than
/// one), and a pre-classified frame whose graded certainty makes every
/// sample's opacity continuous.
TEST(RenderReplay, OpacityCorrectionVariantsArePinned) {
  const testing::ArgonRenderScene& scene = testing::argon_render_scene();
  const Dims d = scene.volume.dims();
  VolumeF certainty(d);
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        certainty.at(i, j, k) = static_cast<float>(
            0.2 + 0.8 * (i + j + k) / static_cast<double>(d.x + d.y + d.z));
      }
    }
  }
  RenderSettings half = scene.variants()[0].settings;
  half.step_voxels = 0.5;
  const std::vector<testing::RenderVariant> variants = {
      {"front-to-back shaded, half step", half, nullptr},
      {"tracking overlay, half step", half, &scene.overlay},
      {"graded certainty, half step", half, nullptr, &certainty}};
  const ReplayCheck check("raycaster_corrected_opacity", replay_widths());
  const ReplayReport report = check.run(
      [&](const ReplayTrial& trial) { return replay_digest(trial, variants); });
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.reference_digest, 0xeec2745ddb4954d5ull)
      << report.summary();
}

// --- The packet kernel's lookups against the scalar march ----------------

/// The packet kernel's rounding equals std::lround wherever the kernel
/// uses it: at exact halves (ties go away from zero), one ulp either side
/// of +-0.5 and +-1.5, at signed zeros, and over magnitudes up to 2^30.
TEST(RayPacket, RoundHalfAwayMatchesLround) {
  std::vector<double> xs = {0.0, -0.0, 0.49999999999999994,
                            -0.49999999999999994};
  const double inf = std::numeric_limits<double>::infinity();
  for (const double h : {0.5, 1.5}) {
    for (const double x : {h, std::nextafter(h, 0.0), std::nextafter(h, inf)}) {
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  for (int k = -64; k <= 64; ++k) {
    xs.push_back(k + 0.5);
    xs.push_back(k + 0.25);
    xs.push_back(k - 0.25);
  }
  for (int e = 0; e <= 30; ++e) {
    const double m = std::ldexp(1.0, e);
    for (const double x : {m, m + 0.5, m - 0.5, std::nextafter(m + 0.5, 0.0),
                           std::nextafter(m + 0.5, inf), std::nextafter(m, 0.0),
                           std::nextafter(m, inf)}) {
      xs.push_back(x);
      xs.push_back(-x);
    }
  }
  Rng rng(0x5EED);
  for (int n = 0; n < 4096; ++n) {
    const double x = std::ldexp(rng.uniform(-1.0, 1.0), n % 31);
    xs.push_back(x);
  }
  EXPECT_EQ(round_half_away(0.49999999999999994), 0);
  for (const double x : xs) {
    EXPECT_EQ(round_half_away(x), std::lround(x)) << "x = " << x;
  }
}

/// Packet frames against the scalar march on a scene built for the shade
/// memo and the per-entry opacity tables: every voxel has its own gradient
/// (random data), the volume holds several times more voxels than the memo
/// has slots and each frame marches in one render_rows call (one memo), so
/// slots collide; many pixels per voxel, so the memo hits; cameras in
/// opposite corners and on an axis, so the first samples of rays entering
/// each face round to a nearest voxel outside the volume. Frames of
/// different lights are marched one after another on one thread, with the
/// tracking overlay (highlight lanes), graded certainty, and both at once,
/// at a half and a whole voxel step.
TEST(RayPacket, GrazingSceneMatchesScalarMarch) {
  const Dims d{30, 26, 22};
  ASSERT_GT(d.count(), 4 * RayPacket::kShadeSlots);
  const VolumeF volume = testing::random_volume(d, 0x6A2E);
  TransferFunction1D tf(0.0, 1.0);
  TransferFunction1D adaptive(0.0, 1.0);
  for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
    // Faint everywhere but a transparent band every 48 entries, so rays
    // reach the far faces and the a <= 0 cull still fires.
    tf.set_opacity_entry(e, (e / 16) % 3 == 1
                                ? 0.0
                                : 0.01 + 0.04 * ((e * 37) % 17) / 16.0);
    adaptive.set_opacity_entry(e, 0.02 + 0.3 * ((e * 11) % 13) / 12.0);
  }
  Mask mask(d);
  VolumeF certainty(d);
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        mask.at(i, j, k) = (i / 3 + j / 3 + k / 3) % 2 == 0 ? 1 : 0;
        certainty.at(i, j, k) =
            static_cast<float>(0.1 + 0.9 * ((i * 7 + j * 5 + k * 3) % 11) / 10.0);
      }
    }
  }
  const HighlightLayer overlay{&mask, &adaptive, Rgb{0.9, 0.05, 0.05}};
  const ColorMap colors;
  const double corner = std::atan(1.0 / std::numbers::sqrt2);
  const std::vector<Camera> cameras = {
      Camera(0.25 * std::numbers::pi, corner, 2.2),
      Camera(1.25 * std::numbers::pi, -corner, 2.2),
      Camera(0.0, 0.0, 1.9)};

  // Non-vacuity: the entry samples of visible rays round outside the
  // volume across all six faces (the memo's bypass is exercised).
  {
    const Raycaster probe(RenderSettings{});
    bool outside[6] = {};
    for (const Camera& camera : cameras) {
      const Raycaster::Plan plan = probe.prepare_plan(volume, tf, colors, camera);
      for (int y = 0; y < 48; ++y) {
        for (int x = 0; x < 48; ++x) {
          const Ray ray = camera.pixel_ray(x, y, 48, 48);
          double t0, t1;
          if (!intersect_box(ray, plan.box_lo, plan.box_hi, t0, t1)) continue;
          const Vec3 v = plan.to_voxel(ray.origin + ray.direction * t0);
          if (tf.opacity(volume.sample(v)) <= 0.0) continue;
          const long c[3] = {round_half_away(v.x), round_half_away(v.y),
                             round_half_away(v.z)};
          const int extent[3] = {d.x, d.y, d.z};
          for (int a = 0; a < 3; ++a) {
            if (c[a] < 0) outside[2 * a] = true;
            if (c[a] >= extent[a]) outside[2 * a + 1] = true;
          }
        }
      }
    }
    for (int f = 0; f < 6; ++f) {
      EXPECT_TRUE(outside[f]) << "no visible sample rounds outside face " << f;
    }
  }

  struct Layers {
    const char* name;
    const HighlightLayer* highlight;
    const VolumeF* certainty;
  };
  const Layers layers[] = {{"plain", nullptr, nullptr},
                           {"overlay", &overlay, nullptr},
                           {"graded certainty", nullptr, &certainty},
                           {"overlay and certainty", &overlay, &certainty}};
  for (const double step : {0.5, 1.0}) {
    for (std::size_t c = 0; c < cameras.size(); ++c) {
      for (const Layers& layer : layers) {
        SCOPED_TRACE(std::string(layer.name) + ", camera " +
                     std::to_string(c) + ", step " + std::to_string(step));
        RenderSettings packet;
        packet.width = 48;
        packet.height = 48;
        packet.step_voxels = step;
        RenderSettings scalar = packet;
        scalar.empty_space_skipping = false;
        const Raycaster packed(packet), marched(scalar);
        const Raycaster::Plan p = packed.prepare_plan(
            volume, tf, colors, cameras[c], layer.highlight, layer.certainty);
        const Raycaster::Plan q = marched.prepare_plan(
            volume, tf, colors, cameras[c], layer.highlight, layer.certainty);
        ImageRgb8 a(48, 48), b(48, 48);
        Raycaster::RenderRowCounters ca, cb;
        packed.render_rows(p, 0, 48, a, ca);
        marched.render_rows(q, 0, 48, b, cb);
        EXPECT_EQ(ca.samples, cb.samples);
        EXPECT_GT(ca.samples, 0u);
        EXPECT_EQ(a.pixels, b.pixels);
      }
    }
  }
}

}  // namespace
}  // namespace ifet
