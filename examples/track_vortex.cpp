// Feature tracking demo (paper Sec 5 / Fig 9): follow a vortex that moves,
// deforms, and splits, using 4D region growing, then render the tracked
// feature highlighted in red over the context volume — the paper's
// feature-tracking display.
//
// Run:  ./track_vortex [--out=DIR] [--size=48]
#include <filesystem>
#include <iostream>

#include "core/track_events.hpp"
#include "core/tracking.hpp"
#include "flowsim/datasets.hpp"
#include "io/image_io.hpp"
#include "render/raycaster.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace ifet;
  CliArgs args(argc, argv);
  const std::string out_dir = args.get("out", "example_out");
  const int size = args.get_int("size", 48);
  std::filesystem::create_directories(out_dir);

  TurbulentVortexConfig config;
  config.dims = Dims{size, size, size};
  config.num_steps = 25;
  config.split_step = 18;
  auto source = std::make_shared<TurbulentVortexSource>(config);
  // Stream the steps, keeping at most 6 decoded ones resident.
  StreamConfig stream;
  stream.budget_bytes = 6 * source->dims().count() * sizeof(float);
  StreamedSequence sequence(source, stream);

  // Track from a seed inside the vortex at the first step.
  FixedRangeCriterion criterion(0.48, 1.0);
  Tracker tracker(sequence, criterion);
  Vec3 c = source->lobe_centers(0)[0];
  Index3 seed{static_cast<int>(c.x * size), static_cast<int>(c.y * size),
              static_cast<int>(c.z * size)};
  std::cout << "seeding 4D region growing at (" << seed.x << "," << seed.y
            << "," << seed.z << ") t=0\n";
  TrackResult track = tracker.track(seed, 0);
  FeatureHistory history = build_feature_history(track);

  std::cout << "tracked steps " << track.first_step() << ".."
            << track.last_step() << "\nfeature tree:\n"
            << format_feature_tree(history);
  for (const auto& event : history.events) {
    if (event.type != EventType::kContinuation) {
      std::cout << "event: " << event_name(event.type) << " at t="
                << event.step << "\n";
    }
  }

  // Render six frames (as in Fig 9) with the tracked feature in red.
  TransferFunction1D context_tf(0.0, 1.0);
  context_tf.add_band(0.3, 1.0, 0.08);  // faint context
  TransferFunction1D highlight_tf(0.0, 1.0);
  highlight_tf.add_band(0.48, 1.0, 0.9);
  RenderSettings settings;
  settings.width = 220;
  settings.height = 220;
  Raycaster caster(settings);
  Camera camera(0.7, 0.4, 2.4);
  for (int t : {0, 5, 10, 15, 20, 24}) {
    HighlightLayer layer;
    Mask empty(sequence.dims());
    layer.mask = track.reached(t) ? &track.masks.at(t) : &empty;
    layer.tf = &highlight_tf;
    ImageRgb8 image = caster.render(sequence.step(t), context_tf, ColorMap(),
                                    camera, &layer);
    std::string path =
        out_dir + "/track_vortex_t" + std::to_string(50 + t) + ".ppm";
    write_ppm(image, path);
    std::cout << "t=" << 50 + t << ": " << track.voxels_at(t)
              << " tracked voxels, " << history.component_count(t)
              << " component(s) -> " << path << "\n";
  }
  return 0;
}
