// Figure 10 reproduction: tracking a feature whose data values decrease
// over time (swirling flow; paper shows t = 23, 41, 62).
//
// Top row of the figure: with a conventional fixed criterion the feature's
// values eventually "fall below this fixed criterion and [are] no longer
// tracked". Bottom row: with the adaptive transfer function built from two
// key frames (the second with a lowered value range) the feature is tracked
// across all steps. We reproduce both rows as tracked-voxel series.
#include <iostream>

#include "bench_util.hpp"
#include "core/iatf.hpp"
#include "core/tracking.hpp"
#include "flowsim/datasets.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main() {
  using namespace ifet;
  std::cout << "=== Fig 10: fixed vs adaptive tracking criterion (swirling "
               "flow) ===\n";

  SwirlingFlowConfig cfg;
  cfg.dims = Dims{48, 48, 48};
  cfg.num_steps = 63;
  auto source = std::make_shared<SwirlingFlowSource>(cfg);
  StreamedSequence seq(source, bench::step_budget(source->dims(), 6));

  // Key-frame TFs: the user marks the feature's value band at the first and
  // last step — "by decreasing the tracked value range for the last
  // key-frame" (paper Sec 5.1).
  auto band_tf = [&](int step) {
    TransferFunction1D tf(0.0, 1.0);
    double peak = source->peak_value(step);
    tf.add_band(peak * 0.55, std::min(1.0, peak * 1.08), 1.0, 0.02);
    return tf;
  };
  IatfConfig icfg;
  icfg.hidden_units = 14;
  Iatf iatf(seq, icfg);
  iatf.add_key_frame(0, band_tf(0));
  iatf.add_key_frame(62, band_tf(62));
  iatf.train(8000);

  Vec3 c = source->feature_center(0);
  Index3 seed{static_cast<int>(c.x * cfg.dims.x),
              static_cast<int>(c.y * cfg.dims.y),
              static_cast<int>(c.z * cfg.dims.z)};

  const double p0 = source->peak_value(0);
  FixedRangeCriterion fixed(p0 * 0.55, 1.0);
  Tracker fixed_tracker(seq, fixed);
  TrackResult fixed_track = fixed_tracker.track(seed, 0);

  AdaptiveTfCriterion adaptive(iatf, 0.25);
  Tracker adaptive_tracker(seq, adaptive);
  TrackResult adaptive_track = adaptive_tracker.track(seed, 0);

  Table table({"t", "feature_peak", "fixed_voxels", "adaptive_voxels",
               "adaptive_overlap"});
  CsvWriter csv(bench::output_dir() + "/fig10_adaptive_track.csv",
                {"t", "peak", "fixed", "adaptive", "overlap"});
  int fixed_lost_at = -1;
  bool adaptive_all_steps = true;
  for (int t = 0; t < cfg.num_steps; t += (t < 20 || t > 55 ? 1 : 3)) {
    std::size_t fv = fixed_track.voxels_at(t);
    std::size_t av = adaptive_track.voxels_at(t);
    if (fv == 0 && fixed_lost_at < 0) fixed_lost_at = t;
    if (av == 0) adaptive_all_steps = false;
    double overlap = 0.0;
    if (adaptive_track.reached(t)) {
      overlap = score_mask(adaptive_track.masks.at(t),
                           source->feature_mask(t))
                    .recall();
    }
    table.add_row({std::to_string(t), Table::num(source->peak_value(t)),
                   std::to_string(fv), std::to_string(av),
                   Table::num(overlap)});
    csv.row(t, source->peak_value(t), fv, av, overlap);
  }
  table.print(std::cout);

  std::size_t fixed_end = fixed_track.voxels_at(62);
  std::size_t adaptive_end = adaptive_track.voxels_at(62);
  std::cout << "\nfixed criterion loses the feature at t="
            << (fixed_lost_at < 0 ? -1 : fixed_lost_at)
            << "; voxels at t=62: fixed=" << fixed_end
            << " adaptive=" << adaptive_end << "\n\n";

  bench::ShapeCheck check;
  check.expect(fixed_lost_at > 0,
               "fixed criterion tracks the feature initially");
  check.expect(fixed_end == 0,
               "fixed criterion has lost the feature by the last step");
  check.expect(adaptive_all_steps && adaptive_end > 0,
               "adaptive criterion tracks the feature to the last step");
  double final_overlap =
      adaptive_track.reached(62)
          ? score_mask(adaptive_track.masks.at(62), source->feature_mask(62))
                .recall()
          : 0.0;
  check.expect(final_overlap > 0.5,
               "adaptively tracked region still covers the true feature");
  return check.exit_code();
}
