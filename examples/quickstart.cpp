// Quickstart: the smallest end-to-end use of the library.
//
//   1. open a time-varying data set (here: the procedural argon bubble),
//   2. author 1D transfer functions for two key frames,
//   3. train the Intelligent Adaptive Transfer Function (IATF),
//   4. synthesize the adapted TF for an intermediate step, and
//   5. volume-render that step to a PPM image.
//
// Run:  ./quickstart [--out=DIR] [--size=48] [--image=256]
#include <filesystem>
#include <iostream>

#include "core/iatf.hpp"
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
  const int image_size = args.get_int("image", 256);
  std::filesystem::create_directories(out_dir);

  // 1. The data set: 4D scalar field, generated on demand and streamed
  // with at most 6 decoded steps resident.
  ArgonBubbleConfig config;
  config.dims = Dims{size, size, size};
  config.num_steps = 360;
  auto source = std::make_shared<ArgonBubbleSource>(config);
  StreamConfig stream;
  stream.budget_bytes = 6 * config.dims.count() * sizeof(float);
  StreamedSequence sequence(source, stream);
  std::cout << "data set: argon bubble, " << size << "^3 x "
            << sequence.num_steps() << " steps\n";

  // 2. Key-frame transfer functions: opacity bands over the ring's values.
  auto [vlo, vhi] = sequence.value_range();
  auto ring_tf = [&](int step) {
    TransferFunction1D tf(vlo, vhi);
    double c = source->ring_band_center(step);
    double h = source->ring_band_half_width();
    tf.add_band(c - h, c + h, 1.0, 0.5 * h);
    return tf;
  };

  // 3. Train the IATF from the key frames (Sec 4.2 of the paper).
  Iatf iatf(sequence);
  iatf.add_key_frame(195, ring_tf(195));
  iatf.add_key_frame(255, ring_tf(255));
  double mse = iatf.train(2000);
  std::cout << "IATF trained: " << iatf.training_samples()
            << " samples, final MSE " << mse << "\n";

  // 4. The adapted TF for an unseen intermediate step.
  const int step = 225;
  TransferFunction1D adapted = iatf.evaluate(step);
  auto bands = adapted.opaque_intervals(0.25);
  std::cout << "adapted TF at t=" << step << " opens";
  for (auto [lo, hi] : bands) std::cout << " [" << lo << ", " << hi << "]";
  std::cout << "\n";

  // 5. Render.
  RenderSettings settings;
  settings.width = image_size;
  settings.height = image_size;
  Raycaster caster(settings);
  Camera camera(0.6, 0.35, 2.4);
  RenderStats stats;
  ImageRgb8 image =
      caster.render(sequence.step(step), adapted, ColorMap(), camera,
                    nullptr, &stats);
  const std::string path = out_dir + "/quickstart_t225.ppm";
  write_ppm(image, path);
  std::cout << "rendered " << stats.rays << " rays, " << stats.samples
            << " samples in " << stats.seconds << " s -> " << path << "\n";
  return 0;
}
