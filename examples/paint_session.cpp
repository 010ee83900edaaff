// Interactive-interface demo (paper Sec 6 / Fig 11), scripted headlessly:
// the "scientist" paints feature and background strokes on axis-aligned
// slices, training runs in the idle loop with live feedback, a small
// unwanted feature is box-selected as negative, and finally a data
// property is dropped — the network shrinks while keeping its learned
// weights ("the user interface hides all these").
//
// Run:  ./paint_session [--out=DIR]
#include <filesystem>
#include <iostream>

#include "flowsim/datasets.hpp"
#include "session/session.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace ifet;
  CliArgs args(argc, argv);
  const std::string out_dir = args.get("out", "example_out");
  std::filesystem::create_directories(out_dir);

  // A reionization step: large structures worth keeping, tiny ones not.
  ReionizationConfig config;
  config.dims = Dims{48, 48, 48};
  config.num_steps = 400;
  config.num_small_features = 80;
  auto source = std::make_shared<ReionizationSource>(config);
  // Stream the steps, keeping at most 4 decoded ones resident.
  StreamConfig stream;
  stream.budget_bytes = 4 * source->dims().count() * sizeof(float);
  StreamedSequence sequence(source, stream);
  PaintingSession session(sequence);
  const int t = 310;

  // The scientist looks at slice z=24 and brushes over a large structure
  // (feature class) and over empty space (background class).
  PaintStroke feature_brush;
  feature_brush.axis = 2;
  feature_brush.slice = 24;
  feature_brush.certainty = 1.0;
  feature_brush.radius = 2.5;
  // Find a bright in-slice spot to paint (the GUI user just sees it).
  const VolumeF& volume = sequence.step(t);
  int bu = 0, bv = 0;
  float best = -1.0f;
  for (int j = 4; j < 44; ++j) {
    for (int i = 4; i < 44; ++i) {
      if (volume.at(i, j, 24) > best) {
        best = volume.at(i, j, 24);
        bu = i;
        bv = j;
      }
    }
  }
  feature_brush.u = bu;
  feature_brush.v = bv;
  std::size_t painted = session.paint(t, feature_brush);
  std::cout << "painted " << painted << " feature voxels at (" << bu << ","
            << bv << ") on slice z=24 (value " << best << ")\n";

  PaintStroke background_brush = feature_brush;
  background_brush.certainty = 0.0;
  float darkest = 2.0f;
  for (int j = 4; j < 44; ++j) {
    for (int i = 4; i < 44; ++i) {
      if (volume.at(i, j, 24) < darkest) {
        darkest = volume.at(i, j, 24);
        background_brush.u = i;
        background_brush.v = j;
      }
    }
  }
  painted = session.paint(t, background_brush);
  std::cout << "painted " << painted << " background voxels\n";

  // Idle-loop training with feedback after each slot (Sec 6: "the user is
  // able to interactively view the feature extraction results").
  for (int slot = 0; slot < 3; ++slot) {
    double mse = session.train_idle(50.0);
    ImageRgb8 feedback = session.feedback_image(t, 2, 24);
    std::string path = out_dir + "/paint_feedback_" +
                       std::to_string(slot) + ".ppm";
    write_ppm(feedback, path);
    std::cout << "idle slot " << slot << ": MSE " << mse << " -> " << path
              << "\n";
  }

  // A small unwanted blob is easier to select in the feature-volume window
  // than to find on a slice; box-select it as negative (Sec 6).
  std::size_t negatives =
      session.select_unwanted_region(t, Index3{2, 2, 2}, Index3{5, 5, 5});
  std::cout << "box-selected " << negatives << " unwanted voxels\n";
  session.train_idle(50.0);

  // The scientist decides position is irrelevant for this feature and
  // drops it; the network is resized with weight transfer and all painted
  // samples are replayed automatically.
  std::cout << "network inputs before: "
            << session.classifier().network().num_inputs() << "\n";
  FeatureVectorSpec reduced = session.classifier().spec();
  reduced.use_position = false;
  session.set_properties(reduced);
  std::cout << "network inputs after dropping position: "
            << session.classifier().network().num_inputs() << "\n";
  double mse = session.train_idle(100.0);
  std::cout << "retrained after property change, MSE " << mse << "\n";
  return 0;
}
