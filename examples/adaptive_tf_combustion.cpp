// IATF on solver-generated turbulence (paper Sec 4.2.3 / Fig 5): run the
// incompressible plane-jet simulation, derive vorticity magnitude, and show
// that one static transfer function cannot span the growing data range
// while the IATF follows it.
//
// Run:  ./adaptive_tf_combustion [--out=DIR]
#include <filesystem>
#include <iostream>

#include "core/iatf.hpp"
#include "eval/metrics.hpp"
#include "flowsim/datasets.hpp"
#include "io/image_io.hpp"
#include "render/raycaster.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace ifet;
  CliArgs args(argc, argv);
  const std::string out_dir = args.get("out", "example_out");
  std::filesystem::create_directories(out_dir);

  std::cout << "running the plane-jet fluid simulation...\n";
  CombustionJetConfig config;
  config.dims = Dims{32, 48, 16};
  config.num_steps = 21;
  config.solver_steps_per_snapshot = 3;
  auto source = std::make_shared<CombustionJetSource>(config);
  // Stream the steps, keeping at most 8 decoded ones resident.
  StreamConfig stream;
  stream.budget_bytes = 8 * source->dims().count() * sizeof(float);
  StreamedSequence sequence(source, stream);
  auto [vlo, vhi] = sequence.value_range();
  std::cout << "vorticity range grows " << source->max_vorticity(0)
            << " -> " << source->max_vorticity(20) << " over the run\n";

  auto key_tf = [&](int step) {
    TransferFunction1D tf(vlo, vhi);
    double lo = source->feature_threshold(step);
    tf.add_band(lo, source->max_vorticity(step) * 1.02, 1.0, 0.1 * lo);
    return tf;
  };

  Iatf iatf(sequence);
  iatf.add_key_frame(0, key_tf(0));
  iatf.add_key_frame(10, key_tf(10));
  iatf.add_key_frame(20, key_tf(20));
  iatf.train(2000);

  RenderSettings settings;
  settings.width = 200;
  settings.height = 260;
  Raycaster caster(settings);
  Camera camera(0.9, 0.3, 2.6);
  TransferFunction1D static_tf = key_tf(0);
  for (int t : {0, 10, 20}) {
    const VolumeF& volume = sequence.step(t);
    Mask truth = source->feature_mask(t);
    auto recall_of = [&](const TransferFunction1D& tf) {
      Mask m(volume.dims());
      for (std::size_t i = 0; i < volume.size(); ++i) {
        m[i] = tf.opacity(volume[i]) >= 0.25 ? 1 : 0;
      }
      return score_mask(m, truth).recall();
    };
    TransferFunction1D adapted = iatf.evaluate(t);
    std::cout << "t=" << t << ": static TF recall " << recall_of(static_tf)
              << ", IATF recall " << recall_of(adapted) << "\n";
    write_ppm(caster.render(volume, adapted, ColorMap(), camera),
              out_dir + "/combustion_iatf_t" + std::to_string(t) + ".ppm");
  }
  std::cout << "wrote renders to " << out_dir << "/combustion_iatf_t*.ppm\n";
  return 0;
}
