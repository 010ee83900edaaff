// Figure 3 reproduction: IATF vs linear interpolation of key-frame TFs.
//
// Two key frames (t=195, t=255) carry 1D TFs that capture the argon ring.
// For the intermediate step t=225 the paper shows linear interpolation
// smearing opacity over two disjoint value bands (losing the ring), while
// the IATF follows the drifted band and preserves the single ring
// structure. We score both extractions against the analytic ring mask.
#include <iostream>

#include "bench_util.hpp"
#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main() {
  using namespace ifet;
  std::cout << "=== Fig 3: IATF vs linear TF interpolation (argon bubble, "
               "keys t=195,255, test t=225) ===\n";

  ArgonBubbleConfig cfg;
  cfg.dims = Dims{48, 48, 48};
  cfg.num_steps = 360;
  // Fig 3 captures the ring "within a small range of data value" whose
  // position moves by more than its width between the two key frames; a
  // faster global drift than the Fig 2/4 default puts the sequence in that
  // regime (the key-frame bands are disjoint).
  cfg.drift_per_step = 0.004;
  auto source = std::make_shared<ArgonBubbleSource>(cfg);
  StreamedSequence seq(source, bench::step_budget(source->dims(), 6));
  auto [vlo, vhi] = seq.value_range();

  auto ring_tf = [&](int step) {
    TransferFunction1D tf(vlo, vhi);
    const double c = source->ring_band_center(step);
    const double h = source->ring_band_half_width();
    tf.add_band(c - h, c + h, 1.0, 0.5 * h);
    return tf;
  };

  const int key_a = 195, key_b = 255, test = 225;
  Iatf iatf(seq);
  iatf.add_key_frame(key_a, ring_tf(key_a));
  iatf.add_key_frame(key_b, ring_tf(key_b));
  iatf.train(3000);

  TransferFunction1D adaptive = iatf.evaluate(test);
  const double u = static_cast<double>(test - key_a) / (key_b - key_a);
  TransferFunction1D lerped =
      TransferFunction1D::interpolate(ring_tf(key_a), ring_tf(key_b), u);

  const VolumeF& volume = seq.step(test);
  Mask truth = source->feature_mask(test);

  // Two opacity cuts expose the two failure modes the paper describes:
  // at 0.25 the lerped TF's bands are simply in the wrong place; at 0.55
  // the lerped TF fails outright because interpolating disjoint bands
  // halves their opacity ("combines two separated features ... with
  // reduced opacity").
  Table table({"method", "cut", "recall", "precision", "f1",
               "opaque_bands"});
  CsvWriter csv(bench::output_dir() + "/fig3_iatf_vs_lerp.csv",
                {"method", "cut", "recall", "precision", "f1", "bands"});
  auto evaluate = [&](const std::string& name, const TransferFunction1D& tf,
                      double cut) {
    MaskScore s = score_mask(bench::tf_extract(volume, tf, cut), truth);
    const auto bands = tf.opaque_intervals(cut);
    table.add_row({name, Table::num(cut, 2), Table::num(s.recall()),
                   Table::num(s.precision()), Table::num(s.f1()),
                   std::to_string(bands.size())});
    csv.row(name, cut, s.recall(), s.precision(), s.f1(), bands.size());
    return s;
  };
  MaskScore iatf_lo = evaluate("IATF", adaptive, 0.25);
  MaskScore lerp_lo = evaluate("linear-interp", lerped, 0.25);
  MaskScore iatf_hi = evaluate("IATF", adaptive, 0.55);
  MaskScore lerp_hi = evaluate("linear-interp", lerped, 0.55);
  table.print(std::cout);
  std::cout << '\n';

  bench::ShapeCheck check;
  check.expect(iatf_lo.recall() > 0.8 && iatf_hi.recall() > 0.7,
               "IATF captures the ring at the intermediate step");
  check.expect(iatf_lo.f1() > lerp_lo.f1() + 0.15,
               "IATF's opaque band sits on the drifted ring; lerp's do not");
  check.expect(lerp_hi.recall() < 0.1,
               "lerped TF fades out (disjoint bands at half opacity)");
  check.expect(lerp_lo.recall() < 0.75,
               "even at a permissive cut the lerped bands miss ring voxels");
  return check.exit_code();
}
