// The Sec 4.2.3 deployment path: train the IATF on a workstation, ship it,
// and use it on other machines for batch extraction and rendering.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "core/batch.hpp"
#include "render/raycaster.hpp"
#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

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

TEST(IatfTransfer, SaveLoadReproducesEveryStepsTf) {
  const int steps = 7;
  StreamedSequence seq(drift_source(steps));
  Iatf trained(seq);
  trained.add_key_frame(0, band(0.35, 0.45));
  trained.add_key_frame(6, band(0.65, 0.75));
  trained.train(800);

  std::stringstream stream;
  trained.save(stream);

  // The "remote machine" opens its own sequence over the same data.
  StreamedSequence remote_seq(drift_source(steps));
  auto loaded = Iatf::load(stream, remote_seq);
  for (int step = 0; step < steps; ++step) {
    TransferFunction1D a = trained.evaluate(step);
    TransferFunction1D b = loaded->evaluate(step);
    for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
      ASSERT_NEAR(a.opacity_entry(e), b.opacity_entry(e), 1e-12)
          << "step " << step << " entry " << e;
    }
  }
}

TEST(IatfTransfer, LoadedIatfCanContinueTraining) {
  StreamedSequence seq(drift_source(5));
  Iatf trained(seq);
  trained.add_key_frame(0, band(0.35, 0.45));
  trained.train(200);
  std::stringstream stream;
  trained.save(stream);
  auto loaded = Iatf::load(stream, seq);
  loaded->add_key_frame(4, band(0.6, 0.7));
  EXPECT_NO_THROW(loaded->train(100));
  EXPECT_EQ(loaded->key_frames().size(), 1u);  // keys are not serialized
}

TEST(IatfTransfer, LoadValidatesCompatibility) {
  StreamedSequence seq(drift_source(5));
  Iatf trained(seq);
  trained.add_key_frame(0, band(0.35, 0.45));
  std::stringstream stream;
  trained.save(stream);

  StreamedSequence wrong_steps(drift_source(9));
  EXPECT_THROW(Iatf::load(stream, wrong_steps), Error);

  std::stringstream garbage("not-an-iatf 1\n");
  EXPECT_THROW(Iatf::load(garbage, seq), Error);
}

TEST(IatfTransfer, AblatedConfigSurvivesRoundTrip) {
  StreamedSequence seq(drift_source(5));
  IatfConfig cfg;
  cfg.use_time = false;
  Iatf trained(seq, cfg);
  trained.add_key_frame(0, band(0.35, 0.45));
  trained.train(100);
  std::stringstream stream;
  trained.save(stream);
  auto loaded = Iatf::load(stream, seq);
  TransferFunction1D a = trained.evaluate(2);
  TransferFunction1D b = loaded->evaluate(2);
  for (int e = 0; e < TransferFunction1D::kEntries; e += 16) {
    EXPECT_NEAR(a.opacity_entry(e), b.opacity_entry(e), 1e-12);
  }
}

TEST(BatchRender, RendersEveryStepWithTheShippedIatf) {
  const int steps = 6;
  auto source = drift_source(steps);
  StreamedSequence seq(source);
  Iatf iatf(seq);
  iatf.add_key_frame(0, band(0.35, 0.45));
  iatf.add_key_frame(steps - 1, band(0.6, 0.7));
  iatf.train(600);

  RenderSettings settings;
  settings.width = 24;
  settings.height = 24;
  settings.shading = false;
  Raycaster caster(settings);
  Camera camera(0.5, 0.3, 2.5);
  BatchRenderReport report = run_batch_render(
      *source, 0, steps - 1, [&](const VolumeF& volume, int step) {
        return caster.render(volume, iatf.evaluate(step), ColorMap(),
                             camera);
      });
  ASSERT_EQ(report.frames.size(), static_cast<std::size_t>(steps));
  for (int s = 0; s < steps; ++s) {
    const ImageRgb8& frame = report.frames[static_cast<std::size_t>(s)];
    EXPECT_EQ(frame.width, 24);
    int nonblack = 0;
    for (std::uint8_t p : frame.pixels) nonblack += (p != 0);
    EXPECT_GT(nonblack, 0) << "step " << s << " rendered nothing";
  }
  EXPECT_GT(report.wall_seconds, 0.0);
}

TEST(BatchRender, ValidatesRange) {
  auto source = drift_source(3);
  auto render = [](const VolumeF& v, int) {
    (void)v;
    return ImageRgb8(4, 4);
  };
  EXPECT_THROW(run_batch_render(*source, -1, 2, render), Error);
  EXPECT_THROW(run_batch_render(*source, 0, 3, render), Error);
  EXPECT_THROW(run_batch_render(*source, 2, 1, render), Error);
}

}  // namespace
}  // namespace ifet
