#include "core/tracking.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "util/error.hpp"

namespace ifet {

AdaptiveTfCriterion::AdaptiveTfCriterion(const Iatf& iatf, double opacity_cut,
                                         DerivedCache* derived)
    : iatf_(iatf), opacity_cut_(opacity_cut), derived_(derived) {}

const TransferFunction1D& AdaptiveTfCriterion::tf_for(int step) const {
  auto it = tf_cache_.find(step);
  if (it == tf_cache_.end()) {
    std::shared_ptr<const TransferFunction1D> tf;
    if (derived_ != nullptr) {
      tf = derived_->transfer_function(step, iatf_.params_hash(),
                                       [&] { return iatf_.evaluate(step); });
    } else {
      tf = std::make_shared<const TransferFunction1D>(iatf_.evaluate(step));
    }
    it = tf_cache_.emplace(step, std::move(tf)).first;
  }
  return *it->second;
}

StepCriterion AdaptiveTfCriterion::at_step(int step) const {
  return StepCriterion::opacity_at_least(tf_for(step), opacity_cut_);
}

std::size_t TrackResult::voxels_at(int step) const {
  auto it = masks.find(step);
  return it == masks.end() ? 0 : mask_count(it->second);
}

int TrackResult::first_step() const {
  IFET_REQUIRE(!masks.empty(), "TrackResult: empty track");
  return masks.begin()->first;
}

int TrackResult::last_step() const {
  IFET_REQUIRE(!masks.empty(), "TrackResult: empty track");
  return masks.rbegin()->first;
}

Tracker::Tracker(const VolumeSequence& sequence,
                 const TrackingCriterion& criterion,
                 const TrackerConfig& config)
    : sequence_(sequence), criterion_(criterion), config_(config) {
  IFET_REQUIRE(config_.min_step < 0 || config_.max_step < 0 ||
                   config_.min_step <= config_.max_step,
               "Tracker: min_step must not exceed max_step");
}

TrackResult Tracker::track(Index3 seed, int seed_step) const {
  Mask seeds(sequence_.dims());
  IFET_REQUIRE(seeds.dims().contains(seed), "Tracker: seed out of range");
  seeds.at(seed) = 1;
  return track_from_mask(seeds, seed_step);
}

namespace {

/// The pinned window leans ahead of the step in the sweep direction: one
/// step behind, kWindowAhead ahead, so the steps the sweep is about to
/// grow are already loading while it grows this one.
constexpr int kWindowAhead = 3;

/// The next step holding pending candidates in the sweep through `step`
/// along `dir`, turning `dir` around when none lies ahead; -1 when no step
/// is pending. `pending[t - lo]` holds step t's candidates.
int next_pending_step(const std::vector<std::vector<std::uint32_t>>& pending,
                      int lo, int step, int& dir) {
  const int n = static_cast<int>(pending.size());
  for (int turn = 0; turn < 2; ++turn) {
    for (int i = step - lo + dir; i >= 0 && i < n; i += dir) {
      if (!pending[static_cast<std::size_t>(i)].empty()) return lo + i;
    }
    dir = -dir;
  }
  return -1;
}

}  // namespace

TrackResult Tracker::track_from_mask(const Mask& seeds, int seed_step) const {
  IFET_REQUIRE(seeds.dims() == sequence_.dims(),
               "Tracker: seed mask dimension mismatch");
  IFET_REQUIRE(seeds.size() <= UINT32_MAX,
               "Tracker: steps over 2^32 voxels are not supported");
  const int lo_step = config_.min_step >= 0 ? config_.min_step : 0;
  const int hi_step =
      config_.max_step >= 0 ? config_.max_step : sequence_.num_steps() - 1;
  IFET_REQUIRE(seed_step >= lo_step && seed_step <= hi_step,
               "Tracker: seed step outside tracking window");

  TrackResult result;
  // Per-step worklists of candidate voxels as linear indices, indexed by
  // step - lo_step. A candidate costs one criterion check, made when its
  // step is grown or, for the step grown last, when it is seeded.
  std::vector<std::vector<std::uint32_t>> pending(
      static_cast<std::size_t>(hi_step - lo_step + 1));
  for (std::size_t v = 0; v < seeds.size(); ++v) {
    if (seeds[v]) {
      pending[static_cast<std::size_t>(seed_step - lo_step)].push_back(
          static_cast<std::uint32_t>(v));
    }
  }
  // The step grown last. Its volume stays pinned while the window holds
  // it, which it does whenever it neighbors the step being grown.
  int last_step = -1;
  const VolumeF* last_volume = nullptr;
  StepCriterion last_accept = StepCriterion::range(0.0, 0.0);

  // Appends `voxels` to step `next`'s candidates, minus those `next`
  // already holds. When `next` is the step grown last, its criterion
  // checks them now and only accepted ones wait for a revisit: the
  // revisit would reject the others the same way, so the fixpoint is
  // unchanged and most revisits behind the sweep never happen.
  const auto seed_step_with = [&](int next,
                                  const std::vector<std::uint32_t>& voxels) {
    if (next < lo_step || next > hi_step) return;
    std::vector<std::uint32_t>& out =
        pending[static_cast<std::size_t>(next - lo_step)];
    auto visited = result.masks.find(next);
    if (visited == result.masks.end()) {
      out.insert(out.end(), voxels.begin(), voxels.end());
      return;
    }
    const Mask& mask = visited->second;
    const bool check = next == last_step;
    for (const std::uint32_t v : voxels) {
      if (!mask[v] && (!check || last_accept((*last_volume)[v]))) {
        out.push_back(v);
      }
    }
  };

  const Dims d = sequence_.dims();
  GrowState grow;
  std::vector<std::uint32_t> candidates;
  // Voxels added per step (indexed by step - lo_step): a step's mask is
  // non-empty exactly when this is.
  std::vector<std::size_t> voxels_added(pending.size(), 0);
  // Monotone sweeps from the seed step: forward while pending steps lie
  // ahead, then back. Without a max_voxels cap growing reaches the same 4D
  // fixpoint in any step order; a sweep keeps the stream's lookahead
  // pointing one way instead of flipping on every step. The seed step is
  // processed first even without seeds.
  int dir = 1;
  for (int step = seed_step; step >= 0;
       step = next_pending_step(pending, lo_step, step, dir)) {
    candidates =
        std::exchange(pending[static_cast<std::size_t>(step - lo_step)], {});

    // Out-of-core: pin the window around the step, leaning ahead in the
    // sweep direction, so the reference below stays valid and the next
    // steps of the sweep are already loading while we grow within this one.
    const int behind = dir > 0 ? 1 : kWindowAhead;
    const int ahead = dir > 0 ? kWindowAhead : 1;
    sequence_.hint_window(std::max(lo_step, step - behind),
                          std::min(hi_step, step + ahead));
    const VolumeF* volume_ptr = sequence_.try_step(step);
    if (volume_ptr == nullptr) {
      // Quarantined data under FailPolicy::kSkipStep: the step contributes
      // zero overlap and no mask. Forward the candidates one step further
      // from the seed so the region re-seeds on the far side of the gap
      // (consecutive bad steps keep forwarding; docs/ROBUSTNESS.md).
      IFET_REQUIRE(step != seed_step,
                   "Tracker: seed step " + std::to_string(step) +
                       " is unavailable");
      last_step = -1;
      seed_step_with(step >= seed_step ? step + 1 : step - 1, candidates);
      continue;
    }
    const VolumeF& volume = *volume_ptr;
    Mask& mask = result.masks.try_emplace(step, d).first->second;

    // 3D BFS within this step from all accepted candidates, with the
    // criterion resolved once for the step.
    const StepCriterion accept = criterion_.at_step(step);
    grow.newly_added.clear();
    grow_step(accept, volume, candidates, mask, grow);
    voxels_added[static_cast<std::size_t>(step - lo_step)] +=
        grow.newly_added.size();

    // Temporal propagation: every voxel newly added at this step seeds the
    // same position at t-1 and t+1 (the 4D connectivity). A step ahead
    // that nothing has reached yet takes them all and is grown next, so it
    // gets the candidate buffer just consumed: one buffer cycles through
    // the sweep instead of one allocation per step. No other slot keeps a
    // buffer it is not using.
    const int next = step + dir;
    if (next >= lo_step && next <= hi_step && !grow.newly_added.empty() &&
        pending[static_cast<std::size_t>(next - lo_step)].empty() &&
        result.masks.count(next) == 0) {
      candidates.clear();
      std::swap(candidates, pending[static_cast<std::size_t>(next - lo_step)]);
    }
    seed_step_with(step - 1, grow.newly_added);
    seed_step_with(step + 1, grow.newly_added);
    last_step = step;
    last_volume = &volume;
    last_accept = accept;
    if (config_.max_voxels != 0 && grow.total_voxels >= config_.max_voxels) {
      break;
    }
  }

  // Drop steps the region never actually reached.
  for (auto it = result.masks.begin(); it != result.masks.end();) {
    if (voxels_added[static_cast<std::size_t>(it->first - lo_step)] == 0) {
      it = result.masks.erase(it);
    } else {
      ++it;
    }
  }
  return result;
}

IFET_HOT IFET_DETERMINISTIC void Tracker::grow_step(
    StepCriterion accept, const VolumeF& volume,
    const std::vector<std::uint32_t>& candidates, Mask& mask,
    GrowState& state) const {
  const Dims d = volume.dims();
  const auto nx = static_cast<std::uint32_t>(d.x);
  const auto ny = static_cast<std::uint32_t>(d.y);
  const auto plane = nx * ny;
  const auto size = static_cast<std::uint32_t>(volume.size());
  const std::size_t cap = config_.max_voxels;
  const std::size_t before = state.total_voxels;
  std::vector<std::uint32_t>& added = state.newly_added;
  const auto add = [&](std::uint32_t v) {
    if (mask[v] || !accept(volume[v])) return;
    mask[v] = 1;
    IFET_HOT_ALLOW("amortized growth of a BFS worklist reused across steps");
    added.push_back(v);
  };
  for (const std::uint32_t v : candidates) add(v);
  // The BFS queue is added[head..]: every accepted voxel is queued once,
  // in acceptance order. Neighbors in the order +x, -x, +y, -y, +z, -z.
  for (std::size_t head = 0; head < added.size(); ++head) {
    if (cap != 0 && before + added.size() >= cap) break;
    const std::uint32_t v = added[head];
    const std::uint32_t row = v / nx;
    const std::uint32_t x = v - row * nx;
    const std::uint32_t y = row % ny;
    if (x + 1 < nx) add(v + 1);
    if (x > 0) add(v - 1);
    if (y + 1 < ny) add(v + nx);
    if (y > 0) add(v - nx);
    if (v + plane < size) add(v + plane);
    if (v >= plane) add(v - plane);
  }
  state.total_voxels = before + added.size();
}

}  // namespace ifet
