#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/keyframe_advisor.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

/// Sequence whose distribution shifts with a cubic offset — the nonlinear
/// drift regime where end-only key frames leave the middle uncovered.
std::shared_ptr<CallbackSource> cubic_drift_source(int steps) {
  Dims d{16, 16, 16};
  return std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 1.0}, [d, steps](int step) {
        double u = static_cast<double>(step) / (steps - 1);
        double off = 0.5 * u * u * u;
        VolumeF v(d);
        Rng rng(99);  // same base field every step; only the offset moves
        for (std::size_t i = 0; i < v.size(); ++i) {
          v[i] = static_cast<float>(rng.uniform(0.0, 0.4) + off);
        }
        return v;
      });
}

TEST(CumHistDistance, ZeroForIdenticalDistributions) {
  VolumeF v = testing::random_volume(Dims{12, 12, 12}, 3);
  CumulativeHistogram a = CumulativeHistogram::of(v, 128, 0.0, 1.0);
  CumulativeHistogram b = CumulativeHistogram::of(v, 128, 0.0, 1.0);
  EXPECT_NEAR(cumulative_histogram_distance(a, b), 0.0, 1e-12);
}

TEST(CumHistDistance, EqualsShiftForTranslatedDistributions) {
  // The 1D Wasserstein distance between X and X+delta is exactly delta;
  // normalized by the range it is delta / range.
  VolumeF v = testing::random_volume(Dims{16, 16, 16}, 4, 0.0, 0.4);
  VolumeF shifted(v.dims());
  const double delta = 0.3;
  for (std::size_t i = 0; i < v.size(); ++i) {
    shifted[i] = static_cast<float>(v[i] + delta);
  }
  auto a = CumulativeHistogram::of(v, 512, 0.0, 1.0);
  auto b = CumulativeHistogram::of(shifted, 512, 0.0, 1.0);
  EXPECT_NEAR(cumulative_histogram_distance(a, b), delta / 1.0, 0.01);
}

TEST(CumHistDistance, SymmetricAndNonNegative) {
  VolumeF x = testing::random_volume(Dims{12, 12, 12}, 5, 0.0, 0.6);
  VolumeF y = testing::random_volume(Dims{12, 12, 12}, 6, 0.3, 1.0);
  auto a = CumulativeHistogram::of(x, 128, 0.0, 1.0);
  auto b = CumulativeHistogram::of(y, 128, 0.0, 1.0);
  double ab = cumulative_histogram_distance(a, b);
  double ba = cumulative_histogram_distance(b, a);
  EXPECT_DOUBLE_EQ(ab, ba);
  EXPECT_GT(ab, 0.0);
}

TEST(CumHistDistance, IncompatibleHistogramsThrow) {
  VolumeF v = testing::random_volume(Dims{8, 8, 8}, 7);
  auto a = CumulativeHistogram::of(v, 128, 0.0, 1.0);
  auto b = CumulativeHistogram::of(v, 64, 0.0, 1.0);
  EXPECT_THROW(cumulative_histogram_distance(a, b), Error);
}

TEST(SuggestKeyFrame, PicksTheUncoveredMiddleOfNonlinearDrift) {
  const int steps = 21;
  StreamedSequence seq(cubic_drift_source(steps), testing::bins_config(512));
  KeyFrameSuggestion s =
      suggest_key_frame(seq, {0, steps - 1}, 0, steps - 1);
  // Cubic offset: the step farthest (in distribution) from both ends has
  // off ~= 0.25, i.e. u = (0.5)^(1/3) ~= 0.79 -> step ~16.
  EXPECT_GE(s.step, 12);
  EXPECT_LE(s.step, 19);
  EXPECT_GT(s.distance, 0.05);
}

TEST(SuggestKeyFrame, CoveredSequenceNeedsNothing) {
  // A statistically static sequence: every step matches the key frame.
  Dims d{12, 12, 12};
  auto source = std::make_shared<CallbackSource>(
      d, 8, std::pair<double, double>{0.0, 1.0},
      [d](int) { return testing::random_volume(d, 11); });
  StreamedSequence seq(source);
  KeyFrameSuggestion s = suggest_key_frame(seq, {0}, 0, 7, 1, 0.01);
  EXPECT_EQ(s.step, -1);
}

TEST(SuggestKeyFrame, SkipsExistingKeys) {
  const int steps = 5;
  StreamedSequence seq(cubic_drift_source(steps));
  std::vector<int> all{0, 1, 2, 3, 4};
  KeyFrameSuggestion s = suggest_key_frame(seq, all, 0, steps - 1);
  EXPECT_EQ(s.step, -1);  // every step is already a key
}

TEST(SuggestKeyFrame, StrideAndRangeValidated) {
  StreamedSequence seq(cubic_drift_source(5));
  EXPECT_THROW(suggest_key_frame(seq, {0}, 0, 4, 0), Error);
  EXPECT_THROW(suggest_key_frame(seq, {0}, 0, 99), Error);
  EXPECT_THROW(distance_to_nearest_key(seq, 0, {}), Error);
}

TEST(SuggestKeyFrame, AddedKeyReducesMaxDistance) {
  const int steps = 21;
  StreamedSequence seq(cubic_drift_source(steps), testing::bins_config(512));
  std::vector<int> keys{0, steps - 1};
  KeyFrameSuggestion first = suggest_key_frame(seq, keys, 0, steps - 1);
  ASSERT_GE(first.step, 0);
  keys.push_back(first.step);
  KeyFrameSuggestion second = suggest_key_frame(seq, keys, 0, steps - 1);
  if (second.step >= 0) {
    EXPECT_LT(second.distance, first.distance);
  }
}

}  // namespace
}  // namespace ifet
