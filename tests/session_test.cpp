#include <gtest/gtest.h>

#include <memory>

#include "session/session.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

/// One-step sequence with a bright 6^3 cube in a dark background.
std::shared_ptr<CallbackSource> cube_source() {
  Dims d{24, 24, 24};
  return std::make_shared<CallbackSource>(
      d, 1, std::pair<double, double>{0.0, 1.0}, [d](int) {
        VolumeF v(d, 0.1f);
        for (int k = 9; k < 15; ++k) {
          for (int j = 9; j < 15; ++j) {
            for (int i = 9; i < 15; ++i) v.at(i, j, k) = 0.9f;
          }
        }
        return v;
      });
}

TEST(PaintingSession, PaintCoversBrushDisk) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  PaintStroke stroke;
  stroke.axis = 2;
  stroke.slice = 12;
  stroke.u = 12;
  stroke.v = 12;
  stroke.radius = 2.0;
  std::size_t n = session.paint(0, stroke);
  EXPECT_EQ(n, 13u);  // discrete disk of radius 2
  EXPECT_EQ(session.samples_painted(), 13u);
  EXPECT_EQ(session.classifier().training_samples(), 13u);
}

TEST(PaintingSession, PaintClipsAtVolumeBorder) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  PaintStroke stroke;
  stroke.axis = 2;
  stroke.slice = 0;
  stroke.u = 0;
  stroke.v = 0;
  stroke.radius = 2.0;
  std::size_t n = session.paint(0, stroke);
  EXPECT_LT(n, 13u);  // clipped at the corner
  EXPECT_GT(n, 0u);
}

TEST(PaintingSession, PaintValidatesAxis) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  PaintStroke stroke;
  stroke.axis = 7;
  EXPECT_THROW(session.paint(0, stroke), Error);
}

TEST(PaintingSession, SelectUnwantedRegionAddsNegatives) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  std::size_t n = session.select_unwanted_region(0, {0, 0, 0}, {2, 2, 2});
  EXPECT_EQ(n, 27u);
  EXPECT_THROW(session.select_unwanted_region(0, {5, 5, 5}, {2, 2, 2}),
               Error);
  EXPECT_THROW(session.select_unwanted_region(0, {0, 0, 0}, {99, 2, 2}),
               Error);
}

TEST(PaintingSession, TrainingImprovesFeedback) {
  StreamedSequence seq(cube_source());
  SessionConfig cfg;
  cfg.classifier.spec.use_position = false;
  cfg.classifier.spec.use_time = false;
  PaintingSession session(seq, cfg);

  // Feature brush inside the cube; background brush outside.
  PaintStroke feature;
  feature.axis = 2;
  feature.slice = 12;
  feature.u = 12;
  feature.v = 12;
  feature.radius = 2.0;
  feature.certainty = 1.0;
  session.paint(0, feature);
  PaintStroke background;
  background.axis = 2;
  background.slice = 12;
  background.u = 3;
  background.v = 3;
  background.radius = 2.0;
  background.certainty = 0.0;
  session.paint(0, background);

  session.train_epochs(300);
  VolumeF feedback = session.feedback_volume(0);
  EXPECT_GT(feedback.at(12, 12, 12), 0.7f);
  EXPECT_LT(feedback.at(3, 3, 12), 0.3f);
}

TEST(PaintingSession, TrainIdleRunsAtLeastOneEpoch) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  PaintStroke s;
  s.axis = 2;
  s.slice = 12;
  s.u = 12;
  s.v = 12;
  session.paint(0, s);
  EXPECT_NO_THROW(session.train_idle(1.0));
}

TEST(PaintingSession, FeedbackImageHasOverlay) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  PaintStroke s;
  s.axis = 2;
  s.slice = 12;
  s.u = 12;
  s.v = 12;
  s.radius = 1.0;
  s.certainty = 1.0;
  session.paint(0, s);
  session.train_epochs(5);
  ImageRgb8 img = session.feedback_image(0, 2, 12);
  EXPECT_EQ(img.width, 24);
  EXPECT_EQ(img.height, 24);
  // The painted center pixel is drawn green.
  std::size_t o = 3 * (12u * 24u + 12u);
  EXPECT_EQ(img.pixels[o + 1], 220);
}

TEST(PaintingSession, RenderClassifiedProducesImage) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  PaintStroke feature;
  feature.axis = 2;
  feature.slice = 12;
  feature.u = 12;
  feature.v = 12;
  feature.radius = 2.0;
  session.paint(0, feature);
  PaintStroke background = feature;
  background.slice = 2;
  background.u = 3;
  background.v = 3;
  background.certainty = 0.0;
  session.paint(0, background);
  session.train_epochs(20);

  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.5, 1.0, 0.9);
  RenderSettings settings;
  settings.width = 32;
  settings.height = 32;
  Camera cam(0.4, 0.3, 2.5);
  RenderStats stats;
  ImageRgb8 img =
      session.render_classified(0, tf, ColorMap(), cam, settings, &stats);
  EXPECT_EQ(img.width, 32);
  EXPECT_EQ(img.height, 32);
  EXPECT_EQ(stats.rays, 32u * 32u);
}

TEST(PaintingSession, SetPropertiesReplaysSamples) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  PaintStroke s;
  s.axis = 2;
  s.slice = 12;
  s.u = 12;
  s.v = 12;
  s.radius = 2.0;
  session.paint(0, s);
  std::size_t before = session.classifier().training_samples();
  FeatureVectorSpec smaller;
  smaller.use_position = false;
  session.set_properties(smaller);
  EXPECT_EQ(session.classifier().training_samples(), before);
  EXPECT_EQ(session.classifier().network().num_inputs(), smaller.width());
  EXPECT_NO_THROW(session.train_epochs(5));
}

TEST(PaintingSession, DeriveShellRadiusUsesPaintedFeatures) {
  StreamedSequence seq(cube_source());
  PaintingSession session(seq);
  PaintStroke wide;
  wide.axis = 2;
  wide.slice = 12;
  wide.u = 12;
  wide.v = 12;
  wide.radius = 5.0;
  wide.certainty = 1.0;
  session.paint(0, wide);
  session.derive_shell_radius();
  // An 11-voxel-wide painted disk yields a radius above the default floor.
  EXPECT_GT(session.classifier().shell_radius(), 1.5);
}

}  // namespace
}  // namespace ifet
