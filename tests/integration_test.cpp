// End-to-end pipeline integration: procedural simulation -> compressed
// on-disk sequence -> out-of-core streaming -> IATF training from key
// frames -> adaptive 4D tracking -> event analysis -> octree storage ->
// highlighted rendering. Every module boundary the paper's system crosses
// is crossed here once, with quantitative checks at each stage.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "core/batch.hpp"
#include "core/iatf.hpp"
#include "core/track_events.hpp"
#include "core/tracking.hpp"
#include "eval/metrics.hpp"
#include "flowsim/datasets.hpp"
#include "io/compressed.hpp"
#include "render/raycaster.hpp"
#include "session/session.hpp"
#include "stream/streamed_sequence.hpp"
#include "volume/components.hpp"
#include "volume/octree.hpp"
#include "volume/ops.hpp"

namespace ifet {
namespace {

TEST(Integration, FullPipelineOnSwirlingFlow) {
  // 1. Simulate and persist the data set in the compressed container.
  SwirlingFlowConfig sim;
  sim.dims = Dims{32, 32, 32};
  sim.num_steps = 30;
  sim.peak_decay = 0.014;  // decays below a fixed criterion mid-sequence
  auto ground_truth = std::make_shared<SwirlingFlowSource>(sim);
  const std::string path = "/tmp/ifet_integration.cvol";
  write_compressed_sequence(*ground_truth, path);

  // 2. Stream it back from disk with a small out-of-core window.
  auto disk = std::make_shared<CompressedFileSource>(path);
  ASSERT_EQ(disk->num_steps(), sim.num_steps);
  StreamedSequence sequence(disk);

  // 3. Key-frame TFs at both ends; train the IATF.
  auto band_tf = [&](int step) {
    TransferFunction1D tf(0.0, 1.0);
    double peak = ground_truth->peak_value(step);
    tf.add_band(peak * 0.55, std::min(1.0, peak * 1.08), 1.0, 0.02);
    return tf;
  };
  IatfConfig icfg;
  icfg.hidden_units = 14;
  Iatf iatf(sequence, icfg);
  iatf.add_key_frame(0, band_tf(0));
  iatf.add_key_frame(sim.num_steps - 1, band_tf(sim.num_steps - 1));
  double mse = iatf.train(6000);
  EXPECT_LT(mse, 0.02);

  // 4. Adaptive 4D tracking from a seed at the feature center.
  Vec3 c = ground_truth->feature_center(0);
  Index3 seed{static_cast<int>(c.x * sim.dims.x),
              static_cast<int>(c.y * sim.dims.y),
              static_cast<int>(c.z * sim.dims.z)};
  AdaptiveTfCriterion criterion(iatf, 0.2);
  Tracker tracker(sequence, criterion);
  TrackResult track = tracker.track(seed, 0);
  ASSERT_FALSE(track.masks.empty());
  EXPECT_EQ(track.first_step(), 0);
  EXPECT_EQ(track.last_step(), sim.num_steps - 1);

  // The fixed criterion must fail on the same data (the Fig 10 contrast).
  double p0 = ground_truth->peak_value(0);
  FixedRangeCriterion fixed(p0 * 0.55, 1.0);
  Tracker fixed_tracker(sequence, fixed);
  TrackResult fixed_track = fixed_tracker.track(seed, 0);
  EXPECT_EQ(fixed_track.voxels_at(sim.num_steps - 1), 0u);

  // 5. The tracked region matches ground truth at first/middle/last steps.
  for (int step : {0, sim.num_steps / 2, sim.num_steps - 1}) {
    ASSERT_TRUE(track.reached(step)) << "step " << step;
    double recall = score_mask(track.masks.at(step),
                               ground_truth->feature_mask(step))
                        .recall();
    EXPECT_GT(recall, 0.5) << "step " << step;
  }

  // 6. Event analysis: a single feature, alive throughout. The adaptive
  // band is slightly loose at its edges (8-bit quantization from the
  // compressed file wobbles boundary voxels), so small satellites can
  // appear in individual steps; filter fragments well below the feature
  // size (~200 voxels) before the
  // component analysis, as any production pipeline would.
  TrackResult filtered = track;
  for (auto& [step, mask] : filtered.masks) {
    mask = remove_small_components(mask, 12);
  }
  FeatureHistory history = build_feature_history(filtered);
  EXPECT_TRUE(history.events_of(EventType::kSplit).empty());
  EXPECT_TRUE(history.events_of(EventType::kDeath).empty());
  for (int step = 0; step < sim.num_steps; ++step) {
    EXPECT_EQ(history.component_count(step), 1) << "step " << step;
  }

  // 7. Octree storage round-trips the masks at a fraction of dense bytes.
  std::size_t dense = 0, compressed = 0;
  for (const auto& [step, mask] : track.masks) {
    MaskOctree tree(mask);
    dense += tree.dense_bytes();
    compressed += tree.memory_bytes();
    EXPECT_EQ(mask_count(tree.to_mask()), mask_count(mask));
  }
  EXPECT_LT(compressed, dense / 2);

  // 8. Render the final step with the tracked feature highlighted red.
  TransferFunction1D context_tf(0.0, 1.0);
  context_tf.add_band(0.1, 1.0, 0.1);
  TransferFunction1D adapted = iatf.evaluate(sim.num_steps - 1);
  HighlightLayer layer{&track.masks.at(sim.num_steps - 1), &adapted,
                       Rgb{1.0, 0.0, 0.0}};
  RenderSettings settings;
  settings.width = 96;
  settings.height = 96;
  settings.shading = false;
  Raycaster caster(settings);
  Camera camera(0.5, 0.4, 2.4);
  ImageRgb8 image = caster.render(sequence.step(sim.num_steps - 1),
                                  context_tf, ColorMap(), camera, &layer);
  int red_pixels = 0;
  for (std::size_t p = 0; p < image.pixels.size(); p += 3) {
    if (image.pixels[p] > 120 && image.pixels[p + 1] < 60 &&
        image.pixels[p + 2] < 60) {
      ++red_pixels;
    }
  }
  EXPECT_GT(red_pixels, 10)
      << "the tracked feature must be visible in red at the last step";

  std::remove(path.c_str());
}


TEST(Integration, DataSpacePipelineOnReionization) {
  // The second end-to-end path: paint on key frames through the session,
  // train in idle slots, extract the full volume, validate the extraction,
  // and verify the trained classifier generalizes to an unseen step.
  ReionizationConfig cfg;
  cfg.dims = Dims{32, 32, 32};
  cfg.num_steps = 400;
  cfg.num_small_features = 80;
  auto source = std::make_shared<ReionizationSource>(cfg);
  StreamedSequence sequence(source);

  SessionConfig scfg;
  scfg.classifier.spec.shell_radius = 3.0;
  PaintingSession session(sequence, scfg);

  // "Paint": positives from a large structure, negatives from a small blob
  // (via the feature-volume box selection) and empty space.
  const int train_step = 130;
  Mask large = source->large_mask(train_step);
  Mask small = source->small_mask(train_step);
  const VolumeF& volume = sequence.step(train_step);
  int painted = 0;
  for (std::size_t i = 0; i < large.size() && painted < 400; i += 7) {
    if (large[i]) {
      Index3 p = large.coord_of(i);
      PaintStroke stroke;
      stroke.axis = 2;
      stroke.slice = p.z;
      stroke.u = p.x;
      stroke.v = p.y;
      stroke.radius = 0.0;  // single-voxel brush
      stroke.certainty = 1.0;
      painted += static_cast<int>(session.paint(train_step, stroke));
    }
  }
  ASSERT_GT(painted, 100);
  // Box-select a couple of small blobs as unwanted.
  int negatives = 0;
  for (std::size_t i = 0; i < small.size() && negatives < 300; i += 3) {
    if (small[i]) {
      Index3 p = small.coord_of(i);
      Index3 lo{std::max(0, p.x - 1), std::max(0, p.y - 1),
                std::max(0, p.z - 1)};
      Index3 hi{std::min(cfg.dims.x - 1, p.x + 1),
                std::min(cfg.dims.y - 1, p.y + 1),
                std::min(cfg.dims.z - 1, p.z + 1)};
      negatives += static_cast<int>(
          session.select_unwanted_region(train_step, lo, hi));
    }
  }
  ASSERT_GT(negatives, 100);
  // Background negatives.
  PaintStroke bg;
  bg.axis = 2;
  bg.slice = 1;
  bg.u = 2;
  bg.v = 2;
  bg.radius = 3.0;
  bg.certainty = 0.0;
  session.paint(train_step, bg);

  // Idle-loop training until the feedback stabilizes.
  for (int slot = 0; slot < 10; ++slot) session.train_idle(60.0);

  // Extract on the trained step.
  Mask extracted = session.classifier().classify_mask(volume, train_step);
  EXPECT_GT(coverage(extracted, large), 0.7);
  EXPECT_LT(coverage(extracted, small), 0.35);

  // Generalize to an unseen step.
  const int test_step = 250;
  const VolumeF& unseen = sequence.step(test_step);
  Mask unseen_extracted =
      session.classifier().classify_mask(unseen, test_step);
  EXPECT_GT(coverage(unseen_extracted, source->large_mask(test_step)), 0.7);
  EXPECT_LT(coverage(unseen_extracted, source->small_mask(test_step)), 0.35);
}

TEST(Integration, BatchExtractionMatchesInteractivePath) {
  // The Sec 8 batch driver must produce the same per-step voxel sets as
  // extracting steps one by one through the sequence.
  ArgonBubbleConfig cfg;
  cfg.dims = Dims{24, 24, 24};
  cfg.num_steps = 12;
  ArgonBubbleSource source(cfg);
  StreamedSequence sequence(std::make_shared<ArgonBubbleSource>(cfg));

  auto extract = [&](const VolumeF& v, int step) {
    (void)step;
    auto [lo, hi] = value_range(v);
    return threshold_mask(v, static_cast<float>(lerp(lo, hi, 0.7)), hi);
  };
  BatchReport report = run_batch_extraction(source, 0, 11, extract);
  ASSERT_EQ(report.steps.size(), 12u);
  for (int step = 0; step < 12; ++step) {
    Mask serial = extract(sequence.step(step), step);
    EXPECT_EQ(report.steps[static_cast<std::size_t>(step)].feature_voxels,
              mask_count(serial))
        << "step " << step;
  }
}

}  // namespace
}  // namespace ifet
