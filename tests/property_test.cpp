// Cross-module property sweeps (TEST_P): invariants that must hold across
// parameter ranges, not just single configurations.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/iatf.hpp"
#include "core/tracking.hpp"
#include "flowsim/datasets.hpp"
#include "flowsim/fluid_solver.hpp"
#include "render/raycaster.hpp"
#include "test_helpers.hpp"
#include "volume/ops.hpp"

namespace ifet {
namespace {

// --- Tracking: temporal overlap governs trackability ------------------------

std::shared_ptr<CallbackSource> moving_box(int steps, int speed) {
  Dims d{48, 16, 16};
  return std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 1.0}, [d, speed](int step) {
        VolumeF v(d, 0.1f);
        int x0 = 2 + speed * step;
        for (int k = 6; k < 10; ++k) {
          for (int j = 6; j < 10; ++j) {
            for (int i = x0; i < x0 + 4 && i < d.x; ++i) {
              v.at(i, j, k) = 0.8f;
            }
          }
        }
        return v;
      });
}

class TrackerSpeedTest : public ::testing::TestWithParam<int> {};

TEST_P(TrackerSpeedTest, TracksIffConsecutiveStepsOverlap) {
  const int speed = GetParam();
  const int steps = 5;
  StreamedSequence seq(moving_box(steps, speed));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  TrackResult track = tracker.track(Index3{3, 7, 7}, 0);
  // The box is 4 voxels wide: overlap exists iff speed < 4.
  const bool should_track = speed < 4;
  EXPECT_EQ(track.reached(1), should_track) << "speed " << speed;
  if (should_track) {
    for (int s = 0; s < steps; ++s) {
      EXPECT_EQ(track.voxels_at(s), 64u) << "speed " << speed << " t " << s;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Speeds, TrackerSpeedTest,
                         ::testing::Values(0, 1, 2, 3, 4, 5, 8));

// --- IATF: drift magnitude sweep --------------------------------------------

class IatfDriftTest : public ::testing::TestWithParam<double> {};

TEST_P(IatfDriftTest, FollowsLinearDriftOfAnyMagnitude) {
  const double total_drift = GetParam();
  const int steps = 9;
  Dims d{12, 12, 12};
  auto source = std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 2.0},
      [d, steps, total_drift](int step) {
        double off = total_drift * step / (steps - 1);
        VolumeF v(d);
        for (int k = 0; k < d.z; ++k) {
          for (int j = 0; j < d.y; ++j) {
            for (int i = 0; i < d.x; ++i) {
              bool feature = i >= 4 && i < 8 && j >= 4 && j < 8 && k >= 4 &&
                             k < 8;
              v.at(i, j, k) =
                  static_cast<float>((feature ? 0.5 : 0.1) + off);
            }
          }
        }
        return v;
      });
  StreamedSequence seq(source, testing::bins_config(512));
  auto band = [&](int step) {
    TransferFunction1D tf(0.0, 2.0);
    double c = 0.5 + total_drift * step / (steps - 1);
    tf.add_band(c - 0.08, c + 0.08, 1.0, 0.02);
    return tf;
  };
  Iatf iatf(seq);
  iatf.add_key_frame(0, band(0));
  iatf.add_key_frame(steps - 1, band(steps - 1));
  iatf.train(1500);
  // The feature value at the middle step must be opaque.
  const int mid = steps / 2;
  double feature_value = 0.5 + total_drift * mid / (steps - 1);
  EXPECT_GT(iatf.evaluate(mid).opacity(feature_value), 0.4)
      << "drift " << total_drift;
}

INSTANTIATE_TEST_SUITE_P(Drifts, IatfDriftTest,
                         ::testing::Values(0.0, 0.2, 0.5, 0.9, 1.3));

// --- Fluid solver: stability across grids and steps --------------------------

class SolverGridTest : public ::testing::TestWithParam<Dims> {};

TEST_P(SolverGridTest, RemainsFiniteAndNearlyDivergenceFree) {
  FluidConfig cfg;
  cfg.dims = GetParam();
  FluidSolver solver(cfg);
  auto forcing = [](VolumeF& u, VolumeF& v, VolumeF&, VolumeF& s) {
    const Dims d = u.dims();
    u.at(d.x / 2, d.y / 2, d.z / 2) = 3.0f;
    v.at(d.x / 2, d.y / 2, d.z / 2) = -2.0f;
    s.at(d.x / 2, d.y / 2, d.z / 2) = 1.0f;
  };
  for (int t = 0; t < 6; ++t) solver.step(forcing);
  for (const VolumeF* field :
       {&solver.u(), &solver.v(), &solver.w(), &solver.scalar()}) {
    for (float x : field->data()) {
      ASSERT_TRUE(std::isfinite(x));
      ASSERT_LT(std::fabs(x), 100.0f);  // unconditionally stable scheme
    }
  }
  EXPECT_LT(solver.max_divergence(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Grids, SolverGridTest,
                         ::testing::Values(Dims{8, 8, 8}, Dims{16, 8, 8},
                                           Dims{12, 16, 8},
                                           Dims{20, 20, 20}));

// --- Renderer: opacity monotonicity ------------------------------------------

double total_luminance(const ImageRgb8& image) {
  double sum = 0.0;
  for (std::uint8_t p : image.pixels) sum += p;
  return sum;
}

class RendererOpacityTest : public ::testing::TestWithParam<double> {};

TEST_P(RendererOpacityTest, LuminanceGrowsWithOpacity) {
  // Unshaded, black background, fixed color: scaling the TF's opacity up
  // can only brighten the image (front-to-back compositing is monotone in
  // per-sample alpha for a fixed color).
  const double scale = GetParam();
  VolumeF v = testing::blob_volume(Dims{20, 20, 20}, {10, 10, 10}, 5.0,
                                   1.0f);
  ColorMap white({{0.0, Rgb{1, 1, 1}}, {1.0, Rgb{1, 1, 1}}});
  RenderSettings s;
  s.width = 40;
  s.height = 40;
  s.shading = false;
  Raycaster caster(s);
  Camera cam(0.5, 0.3, 2.5);

  TransferFunction1D weak(0.0, 1.0);
  weak.add_band(0.3, 1.0, 0.5 * scale);
  TransferFunction1D strong(0.0, 1.0);
  strong.add_band(0.3, 1.0, std::min(1.0, 1.0 * scale));
  double weak_lum = total_luminance(caster.render(v, weak, white, cam));
  double strong_lum = total_luminance(caster.render(v, strong, white, cam));
  EXPECT_GE(strong_lum, weak_lum * 0.999) << "scale " << scale;
}

INSTANTIATE_TEST_SUITE_P(Scales, RendererOpacityTest,
                         ::testing::Values(0.2, 0.5, 1.0));

// --- Generators: determinism and labeled-source invariants -------------------

class GeneratorStepTest : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorStepTest, SwirlFeatureMaskConsistentWithVolume) {
  const int step = GetParam();
  SwirlingFlowConfig cfg;
  cfg.dims = Dims{20, 20, 20};
  SwirlingFlowSource source(cfg);
  VolumeF v = source.generate(step);
  Mask feature = source.feature_mask(step);
  ASSERT_GT(mask_count(feature), 0u);
  // Feature voxels carry values near the decayed peak; specifically every
  // ground-truth voxel holds at least half the step's peak value.
  double peak = source.peak_value(step);
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (feature[i]) {
      EXPECT_GE(v[i], 0.5 * peak - 1e-5);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Steps, GeneratorStepTest,
                         ::testing::Values(0, 10, 23, 41, 62));

// --- IATF key-frame editing ---------------------------------------------------

TEST(IatfEditing, SetKeyFrameReplacesAndRetrains) {
  const int steps = 5;
  Dims d{10, 10, 10};
  auto source = std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 1.0},
      [d](int) { return VolumeF(d, 0.4f); });
  StreamedSequence seq(source);
  Iatf iatf(seq);
  TransferFunction1D low(0.0, 1.0);
  low.add_band(0.1, 0.2, 1.0);
  TransferFunction1D high(0.0, 1.0);
  high.add_band(0.7, 0.8, 1.0);
  iatf.add_key_frame(2, low);
  EXPECT_EQ(iatf.training_samples(), 256u);
  iatf.set_key_frame(2, high);  // replace, not append
  EXPECT_EQ(iatf.training_samples(), 256u);
  iatf.train(800);
  TransferFunction1D result = iatf.evaluate(2);
  EXPECT_GT(result.opacity(0.75), 0.5);  // learned the replacement
  EXPECT_LT(result.opacity(0.15), 0.4);  // old band gone from training
}

TEST(IatfEditing, SetKeyFrameAddsWhenMissing) {
  Dims d{8, 8, 8};
  auto source = std::make_shared<CallbackSource>(
      d, 4, std::pair<double, double>{0.0, 1.0},
      [d](int) { return VolumeF(d, 0.5f); });
  StreamedSequence seq(source);
  Iatf iatf(seq);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.4, 0.6, 1.0);
  iatf.set_key_frame(1, tf);
  EXPECT_EQ(iatf.key_frames().size(), 1u);
  EXPECT_EQ(iatf.training_samples(), 256u);
}

TEST(IatfEditing, RemoveKeyFrameShrinksTraining) {
  Dims d{8, 8, 8};
  auto source = std::make_shared<CallbackSource>(
      d, 4, std::pair<double, double>{0.0, 1.0},
      [d](int) { return VolumeF(d, 0.5f); });
  StreamedSequence seq(source);
  Iatf iatf(seq);
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.4, 0.6, 1.0);
  iatf.add_key_frame(0, tf);
  iatf.add_key_frame(3, tf);
  EXPECT_EQ(iatf.training_samples(), 512u);
  EXPECT_TRUE(iatf.remove_key_frame(0));
  EXPECT_EQ(iatf.training_samples(), 256u);
  EXPECT_EQ(iatf.key_frames().size(), 1u);
  EXPECT_FALSE(iatf.remove_key_frame(0));
}

TEST(KeyFrameSetEditing, SetAndRemove) {
  KeyFrameSet set;
  TransferFunction1D a(0.0, 1.0), b(0.0, 1.0);
  a.add_band(0.1, 0.2, 1.0);
  b.add_band(0.8, 0.9, 1.0);
  set.set(5, a);
  EXPECT_EQ(set.size(), 1u);
  set.set(5, b);  // replace in place
  EXPECT_EQ(set.size(), 1u);
  EXPECT_GT(set[0].tf.opacity(0.85), 0.9);
  EXPECT_TRUE(set.remove(5));
  EXPECT_FALSE(set.remove(5));
  EXPECT_TRUE(set.empty());
}

}  // namespace
}  // namespace ifet
