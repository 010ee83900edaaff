// Multivariate extraction demo (paper Sec 8: "the system can take
// multivariate data as input"): run the two-variable plane-jet simulation
// and extract the entrainment vortices — strong vorticity in fuel-free air
// — a joint condition neither variable expresses alone.
//
// Run:  ./multivariate_jet [--out=DIR]
#include <algorithm>
#include <filesystem>
#include <iostream>

#include "core/dataspace.hpp"
#include "eval/metrics.hpp"
#include "flowsim/datasets.hpp"
#include "io/image_io.hpp"
#include "render/raycaster.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
  using namespace ifet;
  CliArgs args(argc, argv);
  const std::string out_dir = args.get("out", "example_out");
  std::filesystem::create_directories(out_dir);

  std::cout << "running the plane-jet fluid simulation (two variables: "
               "vorticity magnitude + fuel)...\n";
  CombustionJetConfig cfg;
  cfg.dims = Dims{24, 36, 16};
  cfg.num_steps = 10;
  cfg.solver_steps_per_snapshot = 3;
  CombustionJetSource source(cfg);
  const int step = 9;
  VolumeF vorticity = source.generate(step);
  const VolumeF& fuel = source.fuel_snapshot(step);
  std::vector<const VolumeF*> vars{&vorticity, &fuel};
  auto [vlo, vhi] = source.value_range();

  // The scientist paints examples of the joint feature (in the GUI: on
  // slices of either variable; here: sampled from the joint condition).
  std::vector<float> sorted(vorticity.data().begin(),
                            vorticity.data().end());
  auto nth =
      sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size()) * 3 / 4;
  std::nth_element(sorted.begin(), nth, sorted.end());
  const float vcut = *nth;
  auto is_feature = [&](std::size_t i) {
    return vorticity[i] >= vcut && fuel[i] < 0.2f;
  };

  Rng rng(5);
  std::vector<PaintedVoxel> painted;
  int pos = 0, neg = 0;
  while (pos < 200 || neg < 200) {
    std::size_t pick = rng.uniform_index(vorticity.size());
    if (is_feature(pick) && pos < 200) {
      painted.push_back({vorticity.coord_of(pick), step, 1.0});
      ++pos;
    } else if (!is_feature(pick) && neg < 200) {
      painted.push_back({vorticity.coord_of(pick), step, 0.0});
      ++neg;
    }
  }

  // One classifier over both variables: V = 2 aligned fields per step.
  DataSpaceConfig mcfg;
  mcfg.spec.variables = 2;
  mcfg.spec.use_position = false;
  mcfg.spec.use_time = false;
  mcfg.spec.shell_samples = 6;
  mcfg.hidden_units = 14;
  mcfg.seed = 24680;
  DataSpaceClassifier classifier(cfg.num_steps, {{vlo, vhi}, {0.0, 1.0}},
                                 mcfg);
  classifier.add_samples(vars, step, painted);
  double mse = classifier.train(500);
  std::cout << "trained on " << classifier.training_samples()
            << " painted voxels, MSE " << mse << "\n";

  Mask extracted = classifier.classify_mask(vars, step, 0.5);
  Mask truth(vorticity.dims());
  for (std::size_t i = 0; i < truth.size(); ++i) {
    truth[i] = is_feature(i) ? 1 : 0;
  }
  MaskScore score = score_mask(extracted, truth);
  std::cout << "entrainment-vortex extraction: recall " << score.recall()
            << ", precision " << score.precision() << ", F1 " << score.f1()
            << "\n";

  // Render the extraction: keep vorticity values only where classified.
  VolumeF extracted_field(vorticity.dims());
  for (std::size_t i = 0; i < vorticity.size(); ++i) {
    extracted_field[i] = extracted[i] ? vorticity[i] : 0.0f;
  }
  TransferFunction1D tf(vlo, vhi);
  tf.add_band(lerp(vlo, vhi, 0.2), vhi, 0.8);
  RenderSettings settings;
  settings.width = 200;
  settings.height = 260;
  Raycaster caster(settings);
  Camera camera(0.9, 0.3, 2.6);
  write_ppm(caster.render(extracted_field, tf, ColorMap(), camera),
            out_dir + "/multivariate_entrainment.ppm");
  std::cout << "wrote " << out_dir << "/multivariate_entrainment.ppm\n";
  return 0;
}
