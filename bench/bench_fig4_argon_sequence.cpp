// Figure 4 reproduction: IATF over the argon-bubble sequence t=195..255
// with three key frames (195, 225, 255).
//
// Paper layout: each static key-frame TF is applied to every step of the
// sequence (rows 1-3; the ring fades/disappears away from the TF's own key
// frame) while the IATF row preserves the ring structure across the whole
// interval. We print ring-extraction F1 per step for each static TF and
// for the IATF.
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main() {
  using namespace ifet;
  std::cout << "=== Fig 4: static key-frame TFs vs IATF across t=195..255 "
               "(argon bubble) ===\n";

  ArgonBubbleConfig cfg;
  cfg.dims = Dims{48, 48, 48};
  cfg.num_steps = 360;
  // Same fast-drift regime as Fig 3: "the data range changes significantly
  // over time [so] a transfer function set to visualize an earlier time
  // step is unsuitable for the later time steps".
  cfg.drift_per_step = 0.004;
  auto source = std::make_shared<ArgonBubbleSource>(cfg);
  StreamedSequence seq(source, bench::step_budget(source->dims(), 8));
  auto [vlo, vhi] = seq.value_range();

  auto ring_tf = [&](int step) {
    TransferFunction1D tf(vlo, vhi);
    const double c = source->ring_band_center(step);
    const double h = source->ring_band_half_width();
    tf.add_band(c - h, c + h, 1.0, 0.5 * h);
    return tf;
  };

  const std::vector<int> keys = {195, 225, 255};
  Iatf iatf(seq);
  for (int k : keys) iatf.add_key_frame(k, ring_tf(k));
  iatf.train(3000);

  Table table({"t", "tf@195_f1", "tf@225_f1", "tf@255_f1", "iatf_f1"});
  CsvWriter csv(bench::output_dir() + "/fig4_argon_sequence.csv",
                {"t", "tf195", "tf225", "tf255", "iatf"});

  double worst_iatf = 1.0;
  double static_f1_away_sum = 0.0;
  int static_f1_away_count = 0;

  for (int t = 195; t <= 255; t += 5) {
    const VolumeF& volume = seq.step(t);
    Mask truth = source->feature_mask(t);
    std::vector<double> static_f1;
    for (int k : keys) {
      MaskScore s =
          score_mask(bench::tf_extract(volume, ring_tf(k)), truth);
      static_f1.push_back(s.f1());
      if (std::abs(t - k) >= 20) {
        static_f1_away_sum += s.f1();
        ++static_f1_away_count;
      }
    }
    MaskScore iatf_s =
        score_mask(bench::tf_extract(volume, iatf.evaluate(t)), truth);
    worst_iatf = std::min(worst_iatf, iatf_s.f1());
    table.add_row({std::to_string(t), Table::num(static_f1[0]),
                   Table::num(static_f1[1]), Table::num(static_f1[2]),
                   Table::num(iatf_s.f1())});
    csv.row(t, static_f1[0], static_f1[1], static_f1[2], iatf_s.f1());
  }
  table.print(std::cout);

  const double static_away_mean =
      static_f1_away_sum / std::max(1, static_f1_away_count);
  std::cout << "\nworst IATF F1 over the interval:              "
            << worst_iatf
            << "\nmean static-TF F1 >= 20 steps from its key:   "
            << static_away_mean << "\n\n";

  bench::ShapeCheck check;
  check.expect(worst_iatf > 0.5,
               "IATF preserves the ring at every step of the interval");
  check.expect(worst_iatf > static_away_mean,
               "IATF's worst step beats static TFs' typical off-key step");
  return check.exit_code();
}
