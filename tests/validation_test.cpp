#include <gtest/gtest.h>

#include <memory>

#include "eval/validation.hpp"
#include "flowsim/datasets.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

using testing::box_mask;

TrackResult make_track(std::initializer_list<std::pair<int, Mask>> masks) {
  TrackResult track;
  for (auto& [step, mask] : masks) track.masks.emplace(step, mask);
  return track;
}

TEST(ValidateTrack, CleanContinuousTrack) {
  Dims d{16, 16, 16};
  // A box moving 1 voxel per step: strong overlap, constant size.
  TrackResult track = make_track({
      {0, box_mask(d, {2, 2, 2}, {5, 5, 5})},
      {1, box_mask(d, {3, 2, 2}, {6, 5, 5})},
      {2, box_mask(d, {4, 2, 2}, {7, 5, 5})},
  });
  TrackValidation report = validate_track(track);
  EXPECT_TRUE(report.clean());
  ASSERT_EQ(report.steps.size(), 3u);
  EXPECT_DOUBLE_EQ(report.steps[0].overlap_ratio, 1.0);
  EXPECT_NEAR(report.steps[1].overlap_ratio, 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(report.steps[1].count_jump, 0.0);
}

TEST(ValidateTrack, FlagsCountJump) {
  Dims d{16, 16, 16};
  TrackResult track = make_track({
      {0, box_mask(d, {2, 2, 2}, {5, 5, 5})},        // 64 voxels
      {1, box_mask(d, {2, 2, 2}, {9, 9, 9})},        // 512 voxels (8x)
  });
  TrackValidation report = validate_track(track, 0.6, 0.0);
  ASSERT_EQ(report.suspicious_steps.size(), 1u);
  EXPECT_EQ(report.suspicious_steps[0], 1);
}

TEST(ValidateTrack, FlagsOverlapLoss) {
  Dims d{24, 8, 8};
  // Same size, but the feature teleports: zero overlap.
  TrackResult track = make_track({
      {0, box_mask(d, {0, 0, 0}, {3, 3, 3})},
      {1, box_mask(d, {12, 0, 0}, {15, 3, 3})},
  });
  TrackValidation report = validate_track(track, 10.0, 0.25);
  ASSERT_EQ(report.suspicious_steps.size(), 1u);
  EXPECT_EQ(report.suspicious_steps[0], 1);
}

TEST(ValidateTrack, ReportsGaps) {
  Dims d{8, 8, 8};
  TrackResult track = make_track({
      {0, box_mask(d, {0, 0, 0}, {2, 2, 2})},
      {3, box_mask(d, {0, 0, 0}, {2, 2, 2})},
  });
  TrackValidation report = validate_track(track);
  ASSERT_EQ(report.gap_steps.size(), 2u);
  EXPECT_EQ(report.gap_steps[0], 1);
  EXPECT_EQ(report.gap_steps[1], 2);
  EXPECT_FALSE(report.clean());
}

TEST(ValidateTrack, EmptyTrackIsTriviallyClean) {
  TrackValidation report = validate_track(TrackResult{});
  EXPECT_TRUE(report.clean());
  EXPECT_TRUE(report.steps.empty());
}

TEST(ValidateTrack, ThresholdsValidated) {
  EXPECT_THROW(validate_track(TrackResult{}, -1.0, 0.5), Error);
  EXPECT_THROW(validate_track(TrackResult{}, 1.0, 2.0), Error);
}

TEST(ValidateExtraction, DecisiveClassifierScoresWell) {
  Dims d{8, 8, 8};
  VolumeF certainty(d, 0.02f);
  for (int k = 0; k < 4; ++k) {
    for (int j = 0; j < 4; ++j) {
      for (int i = 0; i < 4; ++i) certainty.at(i, j, k) = 0.97f;
    }
  }
  ExtractionValidation report = validate_extraction(certainty);
  EXPECT_GT(report.separation(), 0.9);
  EXPECT_DOUBLE_EQ(report.boundary_fraction, 0.0);
}

TEST(ValidateExtraction, IndecisiveClassifierFlagged) {
  Dims d{8, 8, 8};
  Rng rng(3);
  VolumeF certainty(d);
  for (std::size_t i = 0; i < certainty.size(); ++i) {
    certainty[i] = static_cast<float>(rng.uniform(0.4, 0.6));
  }
  ExtractionValidation report = validate_extraction(certainty, 0.5, 0.15);
  EXPECT_LT(report.separation(), 0.2);
  EXPECT_GT(report.boundary_fraction, 0.95);
}

TEST(ValidateExtraction, BoundaryBandCountsCorrectly) {
  Dims d{4, 4, 4};
  VolumeF certainty(d, 0.0f);
  certainty.at(0, 0, 0) = 0.5f;   // exactly on the cut
  certainty.at(1, 0, 0) = 0.64f;  // inside band (0.15)
  certainty.at(2, 0, 0) = 0.66f;  // outside band
  ExtractionValidation report = validate_extraction(certainty, 0.5, 0.15);
  EXPECT_NEAR(report.boundary_fraction, 2.0 / 64.0, 1e-12);
}

TEST(ValidateExtraction, InputsValidated) {
  EXPECT_THROW(validate_extraction(VolumeF{}), Error);
  VolumeF v(Dims{2, 2, 2});
  EXPECT_THROW(validate_extraction(v, 0.5, -0.1), Error);
}

// Integration with the real tracker: a well-tracked swirling-flow feature
// passes validation; the same track with an injected teleport does not.
TEST(ValidateTrack, RealTrackerOutputIsClean) {
  SwirlingFlowConfig cfg;
  cfg.dims = Dims{24, 24, 24};
  cfg.num_steps = 15;
  auto source = std::make_shared<SwirlingFlowSource>(cfg);
  StreamedSequence seq(source);
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  Vec3 c = source->feature_center(0);
  TrackResult track = tracker.track(
      Index3{static_cast<int>(c.x * 24), static_cast<int>(c.y * 24),
             static_cast<int>(c.z * 24)},
      0);
  ASSERT_FALSE(track.masks.empty());
  TrackValidation report = validate_track(track);
  EXPECT_TRUE(report.clean());

  // Sabotage one step: replace it with a disjoint far-away blob.
  track.masks.at(7) = box_mask(cfg.dims, {0, 0, 0}, {3, 3, 3});
  TrackValidation sabotaged = validate_track(track);
  EXPECT_FALSE(sabotaged.clean());
}

}  // namespace
}  // namespace ifet
