// Figure 5 reproduction: DNS turbulent reacting plane jet, vorticity
// magnitude, across time steps (paper shows t = 8, 36, 64, 92, 128).
//
// Paper claim: the vorticity range changes so much over the run that a TF
// specified for any single key frame "fails to capture most of the
// features" at other steps, while the IATF "can always [be] extracted from
// the volume". Our substrate is the FluidSolver-driven jet whose vorticity
// range grows as turbulence develops; the feature of interest is the
// strong-vorticity structure (top 2% of each step). We map the paper's
// t = 8..128 onto the recorded snapshots.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main() {
  using namespace ifet;
  std::cout << "=== Fig 5: combustion jet vorticity, static TFs vs IATF ===\n"
            << "(running the fluid solver; this takes a little while)\n";

  CombustionJetConfig cfg;
  cfg.dims = Dims{32, 48, 16};
  cfg.num_steps = 31;  // snapshot s maps to paper t = 8 + 4*s -> 8..128
  cfg.solver_steps_per_snapshot = 3;
  auto source = std::make_shared<CombustionJetSource>(cfg);
  StreamedSequence seq(source, bench::step_budget(source->dims(), 8));
  auto [vlo, vhi] = seq.value_range();
  auto paper_t = [](int snapshot) { return 8 + 4 * snapshot; };

  // A key-frame TF captures that step's strong-vorticity band: from the
  // step's feature threshold to the top of the range (what a user would
  // draw seeing that frame).
  auto key_tf = [&](int snapshot) {
    TransferFunction1D tf(vlo, vhi);
    const double lo = source->feature_threshold(snapshot);
    tf.add_band(lo, source->max_vorticity(snapshot) * 1.02, 1.0,
                0.1 * lo);
    return tf;
  };

  const std::vector<int> keys = {0, 14, 30};  // paper t = 8, 64, 128
  Iatf iatf(seq);
  for (int k : keys) iatf.add_key_frame(k, key_tf(k));
  iatf.train(3000);

  Table table({"paper_t", "max_vorticity", "tf@8_recall", "tf@64_recall",
               "tf@128_recall", "iatf_recall"});
  CsvWriter csv(bench::output_dir() + "/fig5_combustion.csv",
                {"paper_t", "max_vort", "tf8", "tf64", "tf128", "iatf"});

  const std::vector<int> eval_steps = {0, 7, 14, 21, 30};  // 8,36,64,92,128
  double worst_iatf = 1.0;
  double worst_static_best = 1.0;  // per-step best static recall, minimized
  for (int s : eval_steps) {
    const VolumeF& volume = seq.step(s);
    Mask truth = source->feature_mask(s);
    std::vector<double> recalls;
    for (int k : keys) {
      recalls.push_back(
          score_mask(bench::tf_extract(volume, key_tf(k)), truth).recall());
    }
    double iatf_recall =
        score_mask(bench::tf_extract(volume, iatf.evaluate(s)), truth)
            .recall();
    worst_iatf = std::min(worst_iatf, iatf_recall);
    table.add_row({std::to_string(paper_t(s)),
                   Table::num(source->max_vorticity(s)),
                   Table::num(recalls[0]), Table::num(recalls[1]),
                   Table::num(recalls[2]), Table::num(iatf_recall)});
    csv.row(paper_t(s), source->max_vorticity(s), recalls[0], recalls[1],
            recalls[2], iatf_recall);
  }
  table.print(std::cout);

  // Quantify each static TF at its farthest step.
  double tf8_at_end =
      score_mask(bench::tf_extract(seq.step(30), key_tf(0)),
                 source->feature_mask(30))
          .recall();
  double tf128_at_start =
      score_mask(bench::tf_extract(seq.step(0), key_tf(30)),
                 source->feature_mask(0))
          .recall();
  (void)worst_static_best;
  std::cout << "\nTF@t=8 recall at t=128:   " << tf8_at_end
            << "\nTF@t=128 recall at t=8:   " << tf128_at_start
            << "\nworst IATF recall:        " << worst_iatf << "\n\n";

  bench::ShapeCheck check;
  check.expect(source->max_vorticity(30) > source->max_vorticity(0) * 1.3,
               "vorticity range grows as the jet becomes turbulent");
  check.expect(worst_iatf > 0.55,
               "IATF extracts the vortex structure at every shown step");
  check.expect(worst_iatf > tf8_at_end + 0.2,
               "IATF beats the early key-frame TF at the late steps");
  return check.exit_code();
}
