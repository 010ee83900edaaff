#include <gtest/gtest.h>

#include <memory>

#include "session/tf_session.hpp"
#include "stream/streamed_sequence.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

/// Linear-drift sequence (band moves 0.3 over the run).
std::shared_ptr<CallbackSource> drift_source(int steps) {
  Dims d{12, 12, 12};
  return std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 1.0}, [d, steps](int step) {
        double off = 0.3 * step / std::max(1, steps - 1);
        VolumeF v(d);
        for (int k = 0; k < d.z; ++k) {
          for (int j = 0; j < d.y; ++j) {
            for (int i = 0; i < d.x; ++i) {
              bool feature = i >= 4 && i < 8 && j >= 4 && j < 8 && k >= 4 &&
                             k < 8;
              v.at(i, j, k) =
                  static_cast<float>((feature ? 0.4 : 0.1) + off);
            }
          }
        }
        return v;
      });
}

TransferFunction1D band(double lo, double hi) {
  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(lo, hi, 1.0, 0.02);
  return tf;
}

TEST(TfSession, RequiresKeyFrameBeforeUse) {
  StreamedSequence seq(drift_source(8));
  TfSession session(seq);
  EXPECT_THROW(session.idle(1.0), Error);
  EXPECT_THROW(session.advise(), Error);
  EXPECT_NO_THROW(session.current_tf(0));  // untrained net is still usable
}

TEST(TfSession, LearnsAndAdaptsAcrossTheLoop) {
  const int steps = 9;
  StreamedSequence seq(drift_source(steps), testing::bins_config(512));
  TfSession session(seq);
  session.set_key_frame(0, band(0.35, 0.45));
  session.set_key_frame(8, band(0.65, 0.75));
  // A few idle slots stand in for the interactive loop; the deterministic
  // epoch top-up keeps the quality assertion independent of machine speed
  // (a wall-clock idle budget trains far fewer epochs under sanitizers).
  for (int slot = 0; slot < 6; ++slot) session.idle(5.0);
  session.train_epochs(2000);
  TransferFunction1D mid = session.current_tf(4);
  EXPECT_GT(mid.opacity(0.55), 0.4);  // drifted band at the midpoint
  EXPECT_LT(mid.opacity(0.15), 0.3);  // background stays closed
}

TEST(TfSession, ReviseKeyFrameChangesResult) {
  StreamedSequence seq(drift_source(4));
  TfSession session(seq);
  session.set_key_frame(0, band(0.2, 0.3));
  session.train_epochs(600);
  double before = session.current_tf(0).opacity(0.7);
  session.set_key_frame(0, band(0.65, 0.75));  // user changes their mind
  session.train_epochs(6000);
  double after = session.current_tf(0).opacity(0.7);
  EXPECT_GT(after, before + 0.3);
  EXPECT_EQ(session.key_frame_count(), 1u);
}

TEST(TfSession, RemoveKeyFrame) {
  StreamedSequence seq(drift_source(4));
  TfSession session(seq);
  session.set_key_frame(0, band(0.3, 0.4));
  session.set_key_frame(3, band(0.5, 0.6));
  EXPECT_EQ(session.key_frame_count(), 2u);
  EXPECT_TRUE(session.remove_key_frame(3));
  EXPECT_FALSE(session.remove_key_frame(3));
  EXPECT_EQ(session.key_frame_count(), 1u);
}

TEST(TfSession, AdviseCoversTheDrift) {
  const int steps = 11;
  StreamedSequence seq(drift_source(steps), testing::bins_config(512));
  TfSessionConfig cfg;
  cfg.advisor_threshold = 0.01;
  TfSession session(seq, cfg);
  session.set_key_frame(0, band(0.35, 0.45));
  KeyFrameSuggestion advice = session.advise();
  // Only the first step is keyed; the far end is the least covered.
  EXPECT_GE(advice.step, steps / 2);
  session.set_key_frame(advice.step, band(0.35, 0.45));
  KeyFrameSuggestion next = session.advise();
  if (next.step >= 0) {
    EXPECT_LT(next.distance, advice.distance);
  }
}

TEST(TfSession, PreviewRendersThroughAdaptiveTf) {
  StreamedSequence seq(drift_source(4));
  TfSession session(seq);
  session.set_key_frame(0, band(0.35, 0.45));
  session.train_epochs(400);
  RenderSettings settings;
  settings.width = 32;
  settings.height = 32;
  settings.shading = false;
  ImageRgb8 image = session.preview(0, Camera(0.5, 0.3, 2.5), settings);
  EXPECT_EQ(image.width, 32);
  int nonblack = 0;
  for (std::uint8_t p : image.pixels) nonblack += (p != 0);
  EXPECT_GT(nonblack, 0);  // the keyed feature is visible
}

}  // namespace
}  // namespace ifet
