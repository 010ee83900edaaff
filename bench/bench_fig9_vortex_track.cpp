// Figure 9 reproduction: tracking the turbulent vortex from t=50 to t=74.
//
// Paper: "the tracked vortex moves and changes its shape through time and
// splits near the end." Our substrate maps t = 50..74 onto steps 0..24 with
// the split at step 18 (paper t=68). We seed 4D region growing at the
// first step and report, per step, the tracked voxel count, centroid, and
// connected-component count, then verify the split event is detected at the
// right time.
#include <iostream>
#include <sstream>

#include "bench_util.hpp"
#include "core/track_events.hpp"
#include "core/tracking.hpp"
#include "flowsim/datasets.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

int main() {
  using namespace ifet;
  std::cout << "=== Fig 9: tracking the turbulent vortex (t=50..74, split "
               "near the end) ===\n";

  TurbulentVortexConfig cfg;
  cfg.dims = Dims{48, 48, 48};
  cfg.num_steps = 25;
  cfg.split_step = 18;
  auto source = std::make_shared<TurbulentVortexSource>(cfg);
  StreamedSequence seq(source, bench::step_budget(source->dims(), 6));

  // 0.48 keeps the band above the background (0.12) and the distractor
  // blobs' bulk (peak 0.5) while giving the tracked masks enough spatial
  // extent that the post-split lobes keep overlapping the parent across
  // the meandering path (the paper's temporal-overlap assumption).
  FixedRangeCriterion criterion(0.48, 1.0);
  Tracker tracker(seq, criterion);
  Vec3 c0 = source->lobe_centers(0)[0];
  Index3 seed{static_cast<int>(c0.x * cfg.dims.x),
              static_cast<int>(c0.y * cfg.dims.y),
              static_cast<int>(c0.z * cfg.dims.z)};
  TrackResult track = tracker.track(seed, 0);
  FeatureHistory history = build_feature_history(track);

  Table table({"paper_t", "tracked_voxels", "components", "centroid",
               "truth_overlap"});
  CsvWriter csv(bench::output_dir() + "/fig9_vortex_track.csv",
                {"paper_t", "voxels", "components", "overlap"});

  bool tracked_every_step = true;
  bool centroid_moves = false;
  Vec3 first_centroid;
  for (int s = 0; s < cfg.num_steps; ++s) {
    std::size_t voxels = track.voxels_at(s);
    if (voxels == 0) tracked_every_step = false;
    int comps = history.component_count(s);
    Vec3 centroid;
    if (comps > 0) {
      auto nodes = history.nodes_at(s);
      for (int n : nodes) {
        centroid += history.nodes[static_cast<std::size_t>(n)].info.centroid;
      }
      centroid = centroid / comps;
      if (s == 0) first_centroid = centroid;
      if ((centroid - first_centroid).norm() > 3.0) centroid_moves = true;
    }
    double overlap = 0.0;
    if (track.reached(s)) {
      overlap =
          score_mask(track.masks.at(s), source->feature_mask(s)).jaccard();
    }
    std::ostringstream cstr;
    cstr << '(' << static_cast<int>(centroid.x) << ','
         << static_cast<int>(centroid.y) << ','
         << static_cast<int>(centroid.z) << ')';
    table.add_row({std::to_string(50 + s), std::to_string(voxels),
                   std::to_string(comps), cstr.str(), Table::num(overlap)});
    csv.row(50 + s, voxels, comps, overlap);
  }
  table.print(std::cout);

  auto splits = history.events_of(EventType::kSplit);
  std::cout << "\ndetected events:";
  for (const auto& e : history.events) {
    if (e.type != EventType::kContinuation) {
      std::cout << "  " << event_name(e.type) << "@t=" << (50 + e.step);
    }
  }
  std::cout << "\n\n";

  bench::ShapeCheck check;
  check.expect(tracked_every_step, "the vortex is tracked at every step");
  check.expect(centroid_moves, "the tracked vortex moves through the volume");
  check.expect(history.component_count(cfg.split_step) == 2,
               "two components after the split");
  check.expect(history.component_count(cfg.split_step - 1) == 1,
               "one component before the split");
  check.expect(splits.size() == 1 && splits[0].step == cfg.split_step - 1,
               "exactly one split event, at the expected step");
  return check.exit_code();
}
