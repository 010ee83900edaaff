// The intelligent key-framing workflow, end to end: start from a single
// key frame, let the key-frame advisor point at the least-covered step,
// key it, retrain, and repeat until the advisor is satisfied — the
// automated form of the paper's "add new key frames when needed"
// (Sec 4.2), built on TfSession.
//
// Run:  ./advisor_workflow [--out=DIR]
#include <filesystem>
#include <iostream>

#include "eval/metrics.hpp"
#include "flowsim/datasets.hpp"
#include "session/tf_session.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace ifet;
  CliArgs args(argc, argv);
  const std::string out_dir = args.get("out", "example_out");
  std::filesystem::create_directories(out_dir);

  ArgonBubbleConfig cfg;
  cfg.dims = Dims{40, 40, 40};
  cfg.num_steps = 360;
  cfg.drift_per_step = 0.004;  // the fast-drift regime of Figs 3-4
  auto argon = std::make_shared<ArgonBubbleSource>(cfg);
  // Window the sequence onto the studied interval t = 195..255 (the
  // advisor scans the whole sequence it is given).
  const int first = 195, last = 255;
  auto source = std::make_shared<CallbackSource>(
      argon->dims(), last - first + 1, argon->value_range(),
      [argon, first](int step) { return argon->generate(first + step); });
  // Stream the steps, keeping at most 16 decoded ones resident.
  StreamConfig stream;
  stream.budget_bytes = 16 * source->dims().count() * sizeof(float);
  StreamedSequence sequence(source, stream);
  auto [vlo, vhi] = sequence.value_range();

  auto ring_tf = [&](int step) {
    TransferFunction1D tf(vlo, vhi);
    double c = argon->ring_band_center(first + step);
    double h = argon->ring_band_half_width();
    tf.add_band(c - h, c + h, 1.0, 0.5 * h);
    return tf;
  };
  auto ring_f1 = [&](const TfSession& session, int step) {
    TransferFunction1D tf = session.current_tf(step);
    const VolumeF& volume = sequence.step(step);
    Mask extracted(volume.dims());
    for (std::size_t i = 0; i < volume.size(); ++i) {
      extracted[i] = tf.opacity(volume[i]) >= 0.25 ? 1 : 0;
    }
    return score_mask(extracted, argon->feature_mask(first + step)).f1();
  };

  TfSessionConfig scfg;
  scfg.advisor_stride = 5;        // scan every 5th step of the window
  scfg.advisor_threshold = 0.015;
  TfSession session(sequence, scfg);

  std::cout << "keying t=195 only, then following the advisor...\n";
  session.set_key_frame(0, ring_tf(0));  // window step 0 == paper t=195
  session.train_epochs(1200);
  std::cout << "  coverage with 1 key: F1@t=225=" << ring_f1(session, 30)
            << " F1@t=255=" << ring_f1(session, 60) << "\n";

  for (int round = 0; round < 4; ++round) {
    KeyFrameSuggestion advice = session.advise();
    if (advice.step < 0) {
      std::cout << "advisor: sequence covered after "
                << session.key_frame_count() << " key frames\n";
      break;
    }
    std::cout << "advisor: add a key frame at t=" << (first + advice.step)
              << " (distance " << advice.distance << ")\n";
    session.set_key_frame(advice.step, ring_tf(advice.step));
    session.train_epochs(1500);
  }

  std::cout << "final coverage:";
  for (int step = 0; step <= 60; step += 15) {
    std::cout << "  F1@t=" << (first + step) << "=" << ring_f1(session, step);
  }
  std::cout << "\n";
  return 0;
}
