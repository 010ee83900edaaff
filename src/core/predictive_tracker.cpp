#include "core/predictive_tracker.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ifet {

std::vector<int> PredictiveTrack::ambiguous_steps() const {
  std::vector<int> out;
  for (const auto& s : steps) {
    if (s.candidates >= 2) out.push_back(s.step);
  }
  return out;
}

PredictiveTracker::PredictiveTracker(const VolumeSequence& sequence,
                                     const TrackingCriterion& criterion,
                                     const PredictiveTrackerConfig& config)
    : sequence_(sequence), criterion_(criterion), config_(config) {
  IFET_REQUIRE(config.centroid_tolerance > 0.0 &&
                   config.size_ratio_tolerance >= 1.0,
               "PredictiveTracker: invalid tolerances");
}

Mask PredictiveTracker::criterion_mask(int step) const {
  const VolumeF& volume = sequence_.step(step);
  const StepCriterion accept = criterion_.at_step(step);
  Mask mask(volume.dims());
  for (std::size_t i = 0; i < volume.size(); ++i) {
    mask[i] = accept(volume[i]) ? 1 : 0;
  }
  return mask;
}

std::vector<ComponentInfo> PredictiveTracker::components_at(int step) const {
  Labeling labeling = label_components(criterion_mask(step));
  std::vector<ComponentInfo> out;
  for (const auto& c : labeling.components) {
    if (c.voxel_count >= config_.min_component_voxels) out.push_back(c);
  }
  return out;
}

PredictiveTrack PredictiveTracker::track(Index3 seed, int seed_step,
                                         int last_step) const {
  IFET_REQUIRE(seed_step >= 0 && last_step < sequence_.num_steps() &&
                   seed_step <= last_step,
               "PredictiveTracker: bad step range");
  PredictiveTrack track;

  // Locate the seed component.
  Labeling labeling = label_components(criterion_mask(seed_step));
  IFET_REQUIRE(labeling.labels.dims().contains(seed),
               "PredictiveTracker: seed out of range");
  std::int32_t seed_label =
      labeling.labels[labeling.labels.linear_index(seed.x, seed.y, seed.z)];
  if (seed_label == 0) {
    track.lost_at = seed_step;
    return track;
  }
  track.steps.push_back(
      {seed_step, labeling.info(seed_label), 0.0, 1});

  for (int step = seed_step + 1; step <= last_step; ++step) {
    // Predict: linear motion from the last two matched steps; size carries
    // over from the last match.
    const ComponentInfo& last = track.steps.back().component;
    Vec3 predicted_centroid = last.centroid;
    if (track.steps.size() >= 2) {
      const ComponentInfo& prev =
          track.steps[track.steps.size() - 2].component;
      predicted_centroid += last.centroid - prev.centroid;
    }
    const double predicted_size = static_cast<double>(last.voxel_count);

    // Verify candidates.
    std::vector<ComponentInfo> candidates = components_at(step);
    const ComponentInfo* best = nullptr;
    double best_error = config_.centroid_tolerance;
    int verified = 0;
    for (const auto& candidate : candidates) {
      double error = (candidate.centroid - predicted_centroid).norm();
      double ratio = static_cast<double>(candidate.voxel_count) /
                     std::max(1.0, predicted_size);
      bool ok = error <= config_.centroid_tolerance &&
                ratio <= config_.size_ratio_tolerance &&
                ratio >= 1.0 / config_.size_ratio_tolerance;
      if (!ok) continue;
      ++verified;
      if (best == nullptr || error < best_error) {
        best = &candidate;
        best_error = error;
      }
    }
    if (best == nullptr) {
      track.lost_at = step;
      break;
    }
    track.steps.push_back({step, *best, best_error, verified});
  }
  return track;
}

}  // namespace ifet
