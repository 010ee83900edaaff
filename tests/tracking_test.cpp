#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/track_events.hpp"
#include "core/tracking.hpp"
#include "flowsim/datasets.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/fault_injection.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/determinism.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "volume/filters.hpp"

namespace ifet {
namespace {

/// Moving-box sequence: a 4^3 box of value 0.8 whose x position advances by
/// `speed` voxels per step (background 0.1). With speed <= 3 consecutive
/// boxes overlap; with speed >= 5 they do not.
std::shared_ptr<CallbackSource> moving_box_source(int steps, int speed) {
  Dims d{32, 16, 16};
  return std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 1.0}, [d, speed](int step) {
        VolumeF v(d, 0.1f);
        int x0 = 2 + speed * step;
        for (int k = 6; k < 10; ++k) {
          for (int j = 6; j < 10; ++j) {
            for (int i = x0; i < x0 + 4 && i < d.x; ++i) {
              v.at(i, j, k) = 0.8f;
            }
          }
        }
        return v;
      });
}

TEST(FixedRangeCriterion, AcceptsInsideRange) {
  FixedRangeCriterion c(0.4, 0.6);
  EXPECT_TRUE(c.accept(0, 0.5));
  EXPECT_TRUE(c.accept(7, 0.4));
  EXPECT_FALSE(c.accept(0, 0.39));
  EXPECT_FALSE(c.accept(0, 0.61));
}

TEST(Tracker, GrowsWithinOneStep) {
  StreamedSequence seq(moving_box_source(1, 0));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  TrackResult result = tracker.track(Index3{3, 7, 7}, 0);
  EXPECT_EQ(result.voxels_at(0), 64u);  // the whole 4^3 box
}

TEST(Tracker, SeedNotSatisfyingCriterionGrowsNothing) {
  StreamedSequence seq(moving_box_source(1, 0));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  TrackResult result = tracker.track(Index3{0, 0, 0}, 0);  // background
  EXPECT_TRUE(result.masks.empty());
}

TEST(Tracker, FollowsOverlappingFeatureThroughTime) {
  const int steps = 6;
  StreamedSequence seq(moving_box_source(steps, 2));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  TrackResult result = tracker.track(Index3{3, 7, 7}, 0);
  for (int s = 0; s < steps; ++s) {
    EXPECT_EQ(result.voxels_at(s), 64u) << "step " << s;
  }
  EXPECT_EQ(result.first_step(), 0);
  EXPECT_EQ(result.last_step(), steps - 1);
}

TEST(Tracker, TracksBackwardFromLateSeed) {
  const int steps = 5;
  StreamedSequence seq(moving_box_source(steps, 2));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  // Seed in the feature at the LAST step; 4D growing reaches step 0.
  TrackResult result = tracker.track(Index3{2 + 2 * 4 + 1, 7, 7}, 4);
  EXPECT_EQ(result.voxels_at(0), 64u);
  EXPECT_EQ(result.voxels_at(4), 64u);
}

TEST(Tracker, LosesFeatureWithoutTemporalOverlap) {
  // Speed 6 > box width 4: consecutive masks do not overlap, so the paper's
  // assumption is violated and the track must stop after the seed step.
  const int steps = 4;
  StreamedSequence seq(moving_box_source(steps, 6));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  TrackResult result = tracker.track(Index3{3, 7, 7}, 0);
  EXPECT_EQ(result.voxels_at(0), 64u);
  EXPECT_EQ(result.voxels_at(1), 0u);
  EXPECT_FALSE(result.reached(1));
}

TEST(Tracker, RespectsStepWindow) {
  const int steps = 8;
  StreamedSequence seq(moving_box_source(steps, 2));
  FixedRangeCriterion criterion(0.5, 1.0);
  TrackerConfig cfg;
  cfg.min_step = 2;
  cfg.max_step = 5;
  Tracker tracker(seq, criterion, cfg);
  TrackResult result = tracker.track(Index3{2 + 2 * 3 + 1, 7, 7}, 3);
  EXPECT_FALSE(result.reached(1));
  EXPECT_FALSE(result.reached(6));
  EXPECT_TRUE(result.reached(2));
  EXPECT_TRUE(result.reached(5));
}

/// StepCriterion::rows() gives every float the decision operator() gives
/// it: values at and around every entry boundary of the transfer function
/// (a few ulps either side), the range bounds, infinities, signed zeros,
/// denormals, NaN and random values, in full 64-value words and in the
/// shorter last words of a row.
TEST(StepCriterion, RowBitsMatchTheScalarTest) {
  std::vector<float> values;
  const auto around = [&](double x) {
    float f = static_cast<float>(x);
    for (int k = 0; k < 4; ++k) f = std::nextafter(f, -INFINITY);
    for (int k = 0; k < 9; ++k) {
      values.push_back(f);
      f = std::nextafter(f, INFINITY);
    }
  };
  const auto add_tf_boundaries = [&](const TransferFunction1D& tf) {
    for (int e = 0; e <= TransferFunction1D::kEntries; ++e) {
      around(tf.value_lo() + (tf.value_hi() - tf.value_lo()) * e /
                                 TransferFunction1D::kEntries);
    }
  };
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNan = std::numeric_limits<float>::quiet_NaN();
  for (const float special :
       {kInf, -kInf, 0.0f, -0.0f, kNan, std::numeric_limits<float>::min(),
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::numeric_limits<float>::max(),
        -std::numeric_limits<float>::max()}) {
    values.push_back(special);
  }
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    values.push_back(static_cast<float>(rng.uniform(-1.5, 2.5)));
  }

  std::vector<TransferFunction1D> tfs;
  {
    TransferFunction1D band(0.0, 1.0);
    band.add_band(0.3, 0.6, 1.0, 0.05);
    tfs.push_back(band);
    TransferFunction1D low(-2.0, 3.0);  // entry 0 accepted, so NaN is
    low.add_band(-2.0, -1.0, 1.0);
    low.add_band(0.5, 0.7, 0.8);
    tfs.push_back(low);
    TransferFunction1D comb(0.1, 0.2);  // alternating entries
    for (int e = 0; e < TransferFunction1D::kEntries; e += 2) {
      comb.set_opacity_entry(e, 1.0);
    }
    tfs.push_back(comb);
    TransferFunction1D top(0.0, 1.0);  // the last entry, up to +inf
    top.add_band(0.9, 1.0, 1.0);
    tfs.push_back(top);
  }
  for (const TransferFunction1D& tf : tfs) add_tf_boundaries(tf);
  std::vector<StepCriterion> criteria;
  for (const TransferFunction1D& tf : tfs) {
    criteria.push_back(StepCriterion::opacity_at_least(tf, 0.5));
    criteria.push_back(StepCriterion::opacity_at_least(tf, 0.0));
  }
  for (const auto& [lo, hi] : std::vector<std::pair<double, double>>{
           {0.3, 0.6},
           {0.1, 0.1},
           {0.6, 0.3},
           {-INFINITY, 0.2},
           {0.2, INFINITY},
           {-INFINITY, INFINITY},
           {std::nan(""), 1.0},
           {1e300, 1e301},
           {-1e300, -1e-300},
           {0.30000000000000004, 0.6000000000000001}}) {
    criteria.push_back(StepCriterion::range(lo, hi));
    around(lo);
    around(hi);
  }
  while (values.size() % 64 != 0) values.push_back(0.5f);

  for (std::size_t c = 0; c < criteria.size(); ++c) {
    const StepCriterion& test = criteria[c];
    const StepCriterion::Rows rows = test.rows();
    for (std::size_t at = 0; at < values.size(); at += 64) {
      for (const int n : {64, 63, 17, 16, 1}) {
        const std::uint64_t bits = rows.accept_bits(values.data() + at, n);
        for (int i = 0; i < 64; ++i) {
          const bool expected = i < n && test(values[at + i]);
          ASSERT_EQ(((bits >> i) & 1u) != 0, expected)
              << "criterion " << c << ", value " << values[at + i]
              << ", n " << n;
        }
      }
    }
  }
}

TEST(Tracker, TrackFromMaskValidatesDims) {
  StreamedSequence seq(moving_box_source(2, 0));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  Mask wrong(Dims{4, 4, 4});
  EXPECT_THROW(tracker.track_from_mask(wrong, 0), Error);
  EXPECT_THROW(tracker.track(Index3{99, 0, 0}, 0), Error);
}

TEST(Tracker, AdaptiveCriterionFollowsDecayingFeature) {
  // Fig 10 in miniature via the real SwirlingFlow source.
  SwirlingFlowConfig scfg;
  scfg.dims = Dims{24, 24, 24};
  scfg.num_steps = 40;
  // Decay fast enough that by the last step the peak falls below the fixed
  // criterion's lower bound (peak0 * 0.55) while staying above background.
  scfg.peak_decay = 0.012;
  auto source = std::make_shared<SwirlingFlowSource>(scfg);
  StreamedSequence seq(source);

  // Key frames: bands around the decaying peak at steps 0 and 39.
  Iatf iatf(seq);
  auto band_at = [&](int step) {
    TransferFunction1D tf(0.0, 1.0);
    double peak = source->peak_value(step);
    tf.add_band(peak * 0.55, std::min(1.0, peak * 1.05), 1.0, 0.02);
    return tf;
  };
  iatf.add_key_frame(0, band_at(0));
  iatf.add_key_frame(39, band_at(39));
  iatf.train(1200);

  // Seed at the feature center at step 0.
  Vec3 c = source->feature_center(0);
  Index3 seed{static_cast<int>(c.x * 24), static_cast<int>(c.y * 24),
              static_cast<int>(c.z * 24)};

  AdaptiveTfCriterion adaptive(iatf, 0.3);
  Tracker tracker(seq, adaptive);
  TrackResult adaptive_result = tracker.track(seed, 0);

  double p0 = source->peak_value(0);
  FixedRangeCriterion fixed(p0 * 0.55, 1.0);
  Tracker fixed_tracker(seq, fixed);
  TrackResult fixed_result = fixed_tracker.track(seed, 0);

  // Fixed criterion loses the feature before the end; adaptive keeps it.
  EXPECT_EQ(fixed_result.voxels_at(39), 0u);
  EXPECT_GT(adaptive_result.voxels_at(39), 0u);
}

/// The tracker as a per-voxel FIFO BFS, kept as the reference the
/// row-word grow must match: a step's candidates (linear indices) grow
/// through the six spatial neighbours, every voxel a step adds seeds the
/// same position at t - 1 and t + 1, the steps are visited in monotone
/// sweeps, the step grown just before checks its new candidates at once,
/// and a quarantined step forwards its candidates one step further from
/// the seed. No cap.
TrackResult reference_track(const VolumeSequence& sequence,
                            const TrackingCriterion& criterion,
                            const TrackerConfig& config, const Mask& seeds,
                            int seed_step) {
  const int lo_step = config.min_step >= 0 ? config.min_step : 0;
  const int hi_step =
      config.max_step >= 0 ? config.max_step : sequence.num_steps() - 1;
  TrackResult result;
  std::vector<std::vector<std::uint32_t>> pending(
      static_cast<std::size_t>(hi_step - lo_step + 1));
  for (std::size_t v = 0; v < seeds.size(); ++v) {
    if (seeds[v]) {
      pending[static_cast<std::size_t>(seed_step - lo_step)].push_back(
          static_cast<std::uint32_t>(v));
    }
  }
  int last_step = -1;
  const VolumeF* last_volume = nullptr;
  StepCriterion last_accept = StepCriterion::range(0.0, 0.0);
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
  const auto next_pending = [&](int step, int& dir) {
    const int n = static_cast<int>(pending.size());
    for (int turn = 0; turn < 2; ++turn) {
      for (int i = step - lo_step + dir; i >= 0 && i < n; i += dir) {
        if (!pending[static_cast<std::size_t>(i)].empty()) return lo_step + i;
      }
      dir = -dir;
    }
    return -1;
  };

  const Dims d = sequence.dims();
  const auto nx = static_cast<std::uint32_t>(d.x);
  const auto ny = static_cast<std::uint32_t>(d.y);
  const std::uint32_t plane = nx * ny;
  const auto size = static_cast<std::uint32_t>(d.count());
  std::vector<std::uint32_t> added;
  std::vector<std::size_t> voxels_added(pending.size(), 0);
  int dir = 1;
  for (int step = seed_step; step >= 0; step = next_pending(step, dir)) {
    const std::vector<std::uint32_t> candidates =
        std::exchange(pending[static_cast<std::size_t>(step - lo_step)], {});
    const int behind = dir > 0 ? 1 : 3;
    const int ahead = dir > 0 ? 3 : 1;
    sequence.hint_window(std::max(lo_step, step - behind),
                         std::min(hi_step, step + ahead));
    const VolumeF* volume = sequence.try_step(step);
    if (volume == nullptr) {
      last_step = -1;
      seed_step_with(step >= seed_step ? step + 1 : step - 1, candidates);
      continue;
    }
    Mask& mask = result.masks.try_emplace(step, d).first->second;
    const StepCriterion accept = criterion.at_step(step);
    added.clear();
    const auto add = [&](std::uint32_t v) {
      if (mask[v] || !accept((*volume)[v])) return;
      mask[v] = 1;
      added.push_back(v);
    };
    for (const std::uint32_t v : candidates) add(v);
    for (std::size_t head = 0; head < added.size(); ++head) {
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
    voxels_added[static_cast<std::size_t>(step - lo_step)] += added.size();
    seed_step_with(step - 1, added);
    seed_step_with(step + 1, added);
    last_step = step;
    last_volume = volume;
    last_accept = accept;
  }
  for (auto it = result.masks.begin(); it != result.masks.end();) {
    if (voxels_added[static_cast<std::size_t>(it->first - lo_step)] == 0) {
      it = result.masks.erase(it);
    } else {
      ++it;
    }
  }
  return result;
}

/// Accepts voxels whose opacity in a per-step band transfer function is at
/// least 0.5: the opacity path of StepCriterion without an IATF.
class BandTfCriterion final : public TrackingCriterion {
 public:
  BandTfCriterion(int steps, double lo, double hi) {
    for (int t = 0; t < steps; ++t) {
      TransferFunction1D tf(0.0, 1.0);
      const double shift = 0.01 * t;
      tf.add_band(lo + shift, hi + shift, 1.0, 0.05);
      tfs_.push_back(tf);
    }
  }
  StepCriterion at_step(int step) const override {
    return StepCriterion::opacity_at_least(
        tfs_[static_cast<std::size_t>(step)], 0.5);
  }

 private:
  std::vector<TransferFunction1D> tfs_;
};

/// `steps` steps of nx x 9 x 7: step t is the window at plane t of one
/// field of blurred noise, so regions are coherent, have holes and runs
/// that cross 64-voxel word edges, and drift from step to step. Values lie
/// in [0, 1].
std::shared_ptr<CallbackSource> blurred_field_source(int nx, int steps,
                                                     std::uint64_t seed) {
  const Dims d{nx, 9, 7};
  Rng rng(seed);
  VolumeF noise(Dims{nx, d.y, d.z + steps - 1});
  for (std::size_t v = 0; v < noise.size(); ++v) {
    noise[v] = static_cast<float>(rng.uniform());
  }
  auto field = std::make_shared<VolumeF>(gaussian_blur(noise, 1.0));
  return std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 1.0}, [d, field](int step) {
        VolumeF v(d);
        const std::size_t offset =
            static_cast<std::size_t>(step) * d.x * d.y;
        for (std::size_t i = 0; i < v.size(); ++i) v[i] = (*field)[offset + i];
        return v;
      });
}

/// Every voxel of `step` that is set in `a` but not in `b`, or the other
/// way round, as a count.
std::size_t mask_difference(const TrackResult& a, const TrackResult& b) {
  std::size_t differ = 0;
  for (const auto& [step, mask] : a.masks) {
    auto other = b.masks.find(step);
    for (std::size_t v = 0; v < mask.size(); ++v) {
      const bool in_b = other != b.masks.end() && other->second[v] != 0;
      differ += (mask[v] != 0) != in_b ? 1 : 0;
    }
  }
  for (const auto& [step, mask] : b.masks) {
    if (a.masks.count(step) == 0) differ += mask_count(mask);
  }
  return differ;
}

/// The row-word grow gives the reference BFS's masks bit for bit: rows of
/// 1 to 3 words (nx 1, 7, 63, 64, 65 and 130, so runs end at and cross
/// word edges), a fixed range and a transfer-function criterion, seeds at
/// the first, middle and last step, a step window, and a quarantined step
/// under FailPolicy::kSkipStep. Both seed paths run: a seed mask of
/// several voxels and a single seed voxel.
TEST(TrackerEquivalence, RowWordGrowMatchesReferenceBfs) {
  constexpr int kSteps = 6;
  const FixedRangeCriterion range(0.46, 0.58);
  const FixedRangeCriterion narrow(0.51, 0.54);
  const BandTfCriterion tf(kSteps, 0.44, 0.56);
  std::uint64_t seed = 77;
  for (const int nx : {1, 7, 63, 64, 65, 130}) {
    const auto field = blurred_field_source(nx, kSteps, seed++);
    const auto faulty = std::make_shared<FaultInjectingSource>(
        field, std::vector<FaultSpec>{{2, FaultKind::kCorrupt, 1}});
    for (const bool quarantine : {false, true}) {
      StreamConfig config;
      config.async_prefetch = false;
      config.fail_policy = FailPolicy::kSkipStep;
      StreamedSequence seq(quarantine ? std::shared_ptr<const VolumeSource>(
                                            faulty)
                                      : field,
                           config);
      for (const TrackingCriterion* criterion :
           {static_cast<const TrackingCriterion*>(&range),
            static_cast<const TrackingCriterion*>(&narrow),
            static_cast<const TrackingCriterion*>(&tf)}) {
        for (const bool window : {false, true}) {
          TrackerConfig cfg;
          if (window) {
            cfg.min_step = 1;
            cfg.max_step = kSteps - 2;
          }
          const int first = window ? 1 : 0;
          const int last = window ? kSteps - 2 : kSteps - 1;
          for (const int seed_step : {first, (first + last) / 2, last}) {
            if (quarantine && seed_step == 2) continue;
            SCOPED_TRACE("nx " + std::to_string(nx) + ", quarantine " +
                         std::to_string(quarantine) + ", criterion " +
                         (criterion == &tf       ? "tf"
                          : criterion == &narrow ? "narrow"
                                                 : "range") +
                         ", window " + std::to_string(window) +
                         ", seed step " + std::to_string(seed_step));
            const Tracker tracker(seq, *criterion, cfg);
            // Seed mask: every 37th voxel, most of them rejected.
            Mask seeds(seq.dims());
            for (std::size_t v = 0; v < seeds.size(); v += 37) seeds[v] = 1;
            const TrackResult grown = tracker.track_from_mask(seeds, seed_step);
            const TrackResult expected =
                reference_track(seq, *criterion, cfg, seeds, seed_step);
            EXPECT_EQ(mask_difference(grown, expected), 0u);
            EXPECT_EQ(grown.masks.size(), expected.masks.size());
            if (quarantine && seed_step != 2) {
              EXPECT_FALSE(grown.reached(2));
            }

            // Single seed: the first voxel the criterion accepts.
            const VolumeF& volume = seq.step(seed_step);
            const StepCriterion accept = criterion->at_step(seed_step);
            std::size_t v = 0;
            while (v < volume.size() && !accept(volume[v])) ++v;
            ASSERT_LT(v, volume.size());
            Mask one(seq.dims());
            one[v] = 1;
            const TrackResult single =
                tracker.track(volume.coord_of(v), seed_step);
            EXPECT_EQ(mask_difference(
                          single, reference_track(seq, *criterion, cfg, one,
                                                  seed_step)),
                      0u);
            EXPECT_TRUE(single.reached(seed_step));
          }
        }
      }
    }
  }
}

/// The argon bubble at 32^3 x 12, every step generated once and served
/// from memory, so a check costs the tracking, not the argon generator.
struct ArgonScene {
  ArgonBubbleConfig cfg;
  std::unique_ptr<ArgonBubbleSource> argon;
  std::vector<VolumeF> volumes;
  std::shared_ptr<CallbackSource> source;
  /// The step the ring tracks are seeded at.
  int grow_step = 0;

  ArgonScene(const ArgonScene&) = delete;  // `source` refers to `volumes`
  ArgonScene& operator=(const ArgonScene&) = delete;
  ArgonScene() {
    cfg.dims = Dims{32, 32, 32};
    cfg.num_steps = 12;
    argon = std::make_unique<ArgonBubbleSource>(cfg);
    for (int s = 0; s < cfg.num_steps; ++s) {
      volumes.push_back(argon->generate(s));
    }
    source = std::make_shared<CallbackSource>(
        cfg.dims, cfg.num_steps, argon->value_range(),
        [this](int step) { return volumes[static_cast<std::size_t>(step)]; });
    grow_step = cfg.num_steps / 2;
  }

  /// The ring band around the ring at `grow_step`.
  FixedRangeCriterion ring_criterion() const {
    const double c = argon->ring_band_center(grow_step);
    const double h = argon->ring_band_half_width();
    return FixedRangeCriterion(c - h, c + h);
  }
};

/// Perturbed replay of Tracker::grow_step (IFET_DETERMINISTIC): region
/// growing on the argon bubble digests identically across pool widths
/// {1, 4, hardware}, cold and warm caches (a fresh 3-step-budget sequence
/// per trial; warm trials track twice through it) and repeated runs. The
/// pinned digest proves the data is unchanged.
TEST(TrackerReplay, ArgonGrowDigestsIdenticallyAcrossSchedules) {
  const ArgonScene scene;
  const ArgonBubbleConfig& cfg = scene.cfg;
  const std::shared_ptr<CallbackSource>& source = scene.source;
  const int grow_step = scene.grow_step;
  const FixedRangeCriterion criterion = scene.ring_criterion();
  const Mask seeds = scene.argon->feature_mask(grow_step);
  StreamConfig tight;
  tight.budget_bytes = 3 * cfg.dims.count() * sizeof(float);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const ReplayCheck check("tracker_grow_argon", {1, 4, hw});
  const ReplayReport report = check.run([&](const ReplayTrial& trial) {
    ThreadPool::ScopedGlobalWidth width(trial.threads);
    StreamedSequence sequence(source, tight);
    Tracker tracker(sequence, criterion);
    TrackResult grown = tracker.track_from_mask(seeds, grow_step);
    if (trial.warm) grown = tracker.track_from_mask(seeds, grow_step);
    DigestSink sink;
    for (const auto& [step, mask] : grown.masks) {  // std::map: sorted
      sink.pod(step);
      sink.span(mask.data().data(), mask.size());
    }
    return sink.value();
  });
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.reference_digest, 0x640fbfc93126609dull)
      << report.summary();
}

/// Digest of a feature history: each node's step, label, voxel count,
/// bounding box and centroid bits with its parents and children in order,
/// then the events in order.
std::uint64_t history_digest(const FeatureHistory& history) {
  DigestSink sink;
  for (const FeatureNode& node : history.nodes) {
    sink.pod(node.step);
    sink.pod(node.label);
    sink.pod(node.info.voxel_count);
    sink.pod(node.info.bbox_min);
    sink.pod(node.info.bbox_max);
    sink.pod(node.info.centroid.x);
    sink.pod(node.info.centroid.y);
    sink.pod(node.info.centroid.z);
    sink.pod(node.parents.size());
    sink.span(node.parents.data(), node.parents.size());
    sink.pod(node.children.size());
    sink.span(node.children.data(), node.children.size());
  }
  for (const FeatureEvent& event : history.events) {
    sink.pod(event.type);
    sink.pod(event.step);
    sink.pod(event.node);
  }
  return sink.value();
}

/// Replay of build_feature_history over `track`: the history digests
/// identically on every trial and on a second build (warm trials), and
/// matches `pinned`. The history runs on the calling thread, so one pool
/// width is all there is to replay.
void expect_history_replays(const std::string& name, const TrackResult& track,
                            std::uint64_t pinned) {
  const ReplayCheck check(name, {1});
  const ReplayReport report = check.run([&](const ReplayTrial& trial) {
    FeatureHistory history = build_feature_history(track);
    if (trial.warm) history = build_feature_history(track);
    return history_digest(history);
  });
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.reference_digest, pinned) << report.summary();
}

/// The feature tree of three tracks, pinned bitwise: node order,
/// attributes and centroid bits, edge order and events. The scenes are
/// the TrackerReplay ring track on the argon bubble, the Fig 9 vortex
/// track of DetectsSplitOnVortexData, and a fixed-range band over the
/// argon bubble that holds at least a quarter of every step, so steps of
/// several components and large overlaps are part of the pin.
TEST(FeatureHistoryReplay, TreesOfThreeTracksArePinned) {
  const ArgonScene scene;
  {
    SCOPED_TRACE("argon ring");
    StreamedSequence seq(scene.source);
    const FixedRangeCriterion criterion = scene.ring_criterion();
    const TrackResult track = Tracker(seq, criterion).track_from_mask(
        scene.argon->feature_mask(scene.grow_step), scene.grow_step);
    EXPECT_EQ(build_feature_history(track).steps().size(),
              static_cast<std::size_t>(scene.cfg.num_steps));
    expect_history_replays("feature_history_argon_ring", track,
                           0x9020c03a99f92f8eull);
  }
  {
    SCOPED_TRACE("vortex split");
    TurbulentVortexConfig vcfg;
    vcfg.dims = Dims{32, 32, 32};
    vcfg.num_steps = 25;
    vcfg.split_step = 18;
    auto source = std::make_shared<TurbulentVortexSource>(vcfg);
    StreamedSequence seq(source);
    const FixedRangeCriterion criterion(0.55, 1.0);
    const Vec3 c = source->lobe_centers(0)[0];
    const Index3 seed{static_cast<int>(c.x * 32), static_cast<int>(c.y * 32),
                      static_cast<int>(c.z * 32)};
    const TrackResult track = Tracker(seq, criterion).track(seed, 0);
    EXPECT_FALSE(
        build_feature_history(track).events_of(EventType::kSplit).empty());
    expect_history_replays("feature_history_vortex_split", track,
                           0x9b4b782b8fb60827ull);
  }
  {
    SCOPED_TRACE("argon band");
    StreamedSequence seq(scene.source);
    // [range lo, the largest value at cumulative fraction 0.35 over the
    // steps], seeded at the step's lowest voxel.
    const double lo = seq.value_range().first;
    double top = lo;
    for (int t = 0; t < seq.num_steps(); ++t) {
      top = std::max(top,
                     seq.cumulative_histogram(t).value_at_fraction(0.35));
    }
    const VolumeF& volume = seq.step(scene.grow_step);
    const auto lowest = std::min_element(volume.data().begin(),
                                         volume.data().end());
    const Index3 seed = volume.coord_of(
        static_cast<std::size_t>(lowest - volume.data().begin()));
    const FixedRangeCriterion criterion(lo, top);
    const TrackResult track =
        Tracker(seq, criterion).track(seed, scene.grow_step);
    ASSERT_EQ(track.masks.size(),
              static_cast<std::size_t>(scene.cfg.num_steps));
    for (const auto& [step, mask] : track.masks) {
      EXPECT_GE(4 * mask_count(mask), mask.size()) << "step " << step;
    }
    const FeatureHistory history = build_feature_history(track);
    int widest = 0;
    for (int step : history.steps()) {
      widest = std::max(widest, history.component_count(step));
    }
    EXPECT_GE(widest, 2);
    expect_history_replays("feature_history_argon_band", track,
                           0x3cdc8ced6d53a06bull);
  }
}

/// The feature history as label volumes give it: each step labeled by
/// label_components, and each voxel that two consecutive steps hold
/// counting its (la, lb) pair; the pairs' edges go in (la, lb) order.
FeatureHistory voxel_overlap_history(const TrackResult& track,
                                     std::size_t min_overlap) {
  FeatureHistory history;
  Labeling previous;
  std::vector<int> previous_nodes;
  int previous_step = 0;
  for (const auto& [step, mask] : track.masks) {
    Labeling labeling = label_components(mask);
    std::vector<int> nodes(labeling.components.size() + 1, -1);
    for (const ComponentInfo& info : labeling.components) {
      FeatureNode node;
      node.step = step;
      node.label = info.label;
      node.info = info;
      nodes[static_cast<std::size_t>(info.label)] =
          static_cast<int>(history.nodes.size());
      history.nodes.push_back(node);
    }
    if (!previous_nodes.empty() && step == previous_step + 1) {
      std::map<std::pair<std::int32_t, std::int32_t>, std::size_t> overlap;
      for (std::size_t v = 0; v < mask.size(); ++v) {
        const std::int32_t la = previous.labels[v];
        const std::int32_t lb = labeling.labels[v];
        if (la > 0 && lb > 0) ++overlap[{la, lb}];
      }
      for (const auto& [pair, count] : overlap) {
        if (count < min_overlap) continue;
        const int from = previous_nodes[static_cast<std::size_t>(pair.first)];
        const int to = nodes[static_cast<std::size_t>(pair.second)];
        history.nodes[static_cast<std::size_t>(from)].children.push_back(to);
        history.nodes[static_cast<std::size_t>(to)].parents.push_back(from);
      }
    }
    previous = std::move(labeling);
    previous_nodes = std::move(nodes);
    previous_step = step;
  }
  const int first = track.masks.begin()->first;
  const int last = track.masks.rbegin()->first;
  for (std::size_t n = 0; n < history.nodes.size(); ++n) {
    const FeatureNode& node = history.nodes[n];
    const int index = static_cast<int>(n);
    if (node.parents.empty() && node.step != first) {
      history.events.push_back({EventType::kBirth, node.step, index});
    }
    if (node.children.empty() && node.step != last) {
      history.events.push_back({EventType::kDeath, node.step, index});
    }
    if (node.children.size() >= 2) {
      history.events.push_back({EventType::kSplit, node.step, index});
    }
    if (node.parents.size() >= 2) {
      history.events.push_back({EventType::kMerge, node.step, index});
    }
    if (node.parents.size() == 1 && node.children.size() == 1) {
      history.events.push_back({EventType::kContinuation, node.step, index});
    }
  }
  return history;
}

// The history over run lists equals the one from label volumes and voxel
// overlaps: nodes, attributes, edge order and events, on random tracks
// whose rows cross 64-voxel word edges, with one step left out so that one
// pair of neighbouring masks is not consecutive.
TEST(FeatureHistory, RunOverlapsMatchVoxelOverlaps) {
  Rng rng(2027);
  for (const int nx : {65, 130}) {
    for (int trial = 0; trial < 3; ++trial) {
      const Dims d{nx, 9, 6};
      const int steps = 5 + trial;
      const int skipped = 1 + trial;
      TrackResult track;
      for (int t = 0; t < steps; ++t) {
        if (t == skipped) continue;
        const double fill = 0.05 + 0.85 * rng.uniform();
        Mask mask(d);
        for (std::size_t v = 0; v < mask.size(); ++v) {
          mask[v] = rng.uniform() < fill ? 1 : 0;
        }
        track.masks.emplace(t, std::move(mask));
      }
      for (const std::size_t min_overlap : {std::size_t{1}, std::size_t{3}}) {
        SCOPED_TRACE(testing::Message() << "nx " << nx << " trial " << trial
                                        << " min_overlap " << min_overlap);
        const FeatureHistory got = build_feature_history(track, min_overlap);
        const FeatureHistory want = voxel_overlap_history(track, min_overlap);
        ASSERT_EQ(got.nodes.size(), want.nodes.size());
        for (std::size_t n = 0; n < want.nodes.size(); ++n) {
          const FeatureNode& a = got.nodes[n];
          const FeatureNode& b = want.nodes[n];
          EXPECT_EQ(a.step, b.step) << "node " << n;
          EXPECT_EQ(a.label, b.label) << "node " << n;
          EXPECT_EQ(a.info.voxel_count, b.info.voxel_count) << "node " << n;
          EXPECT_TRUE(a.info.bbox_min == b.info.bbox_min) << "node " << n;
          EXPECT_TRUE(a.info.bbox_max == b.info.bbox_max) << "node " << n;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a.info.centroid.x),
                    std::bit_cast<std::uint64_t>(b.info.centroid.x));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a.info.centroid.y),
                    std::bit_cast<std::uint64_t>(b.info.centroid.y));
          EXPECT_EQ(std::bit_cast<std::uint64_t>(a.info.centroid.z),
                    std::bit_cast<std::uint64_t>(b.info.centroid.z));
          EXPECT_EQ(a.parents, b.parents) << "node " << n;
          EXPECT_EQ(a.children, b.children) << "node " << n;
        }
        ASSERT_EQ(got.events.size(), want.events.size());
        for (std::size_t e = 0; e < want.events.size(); ++e) {
          EXPECT_EQ(got.events[e].type, want.events[e].type) << "event " << e;
          EXPECT_EQ(got.events[e].step, want.events[e].step) << "event " << e;
          EXPECT_EQ(got.events[e].node, want.events[e].node) << "event " << e;
        }
      }
    }
  }
}

TEST(TrackEvents, ContinuationChain) {
  const int steps = 4;
  StreamedSequence seq(moving_box_source(steps, 2));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  FeatureHistory history =
      build_feature_history(tracker.track(Index3{3, 7, 7}, 0));
  EXPECT_EQ(static_cast<int>(history.nodes.size()), steps);
  for (int s = 0; s < steps; ++s) {
    EXPECT_EQ(history.component_count(s), 1);
  }
  EXPECT_EQ(history.events_of(EventType::kContinuation).size(),
            static_cast<std::size_t>(steps - 2));
  EXPECT_TRUE(history.events_of(EventType::kSplit).empty());
  EXPECT_TRUE(history.events_of(EventType::kBirth).empty());
  EXPECT_TRUE(history.events_of(EventType::kDeath).empty());
}

TEST(TrackEvents, DetectsSplitOnVortexData) {
  TurbulentVortexConfig vcfg;
  vcfg.dims = Dims{32, 32, 32};
  vcfg.num_steps = 25;
  vcfg.split_step = 18;
  auto source = std::make_shared<TurbulentVortexSource>(vcfg);
  StreamedSequence seq(source);
  // The tracked band: above the distractors (0.5), covering the feature.
  FixedRangeCriterion criterion(0.55, 1.0);
  Tracker tracker(seq, criterion);
  auto centers = source->lobe_centers(0);
  Index3 seed{static_cast<int>(centers[0].x * 32),
              static_cast<int>(centers[0].y * 32),
              static_cast<int>(centers[0].z * 32)};
  FeatureHistory history = build_feature_history(tracker.track(seed, 0));

  EXPECT_EQ(history.component_count(17), 1);
  EXPECT_EQ(history.component_count(20), 2);
  auto splits = history.events_of(EventType::kSplit);
  ASSERT_FALSE(splits.empty());
  EXPECT_EQ(splits[0].step, 17);  // the step whose component has 2 children
}

TEST(TrackEvents, DetectsMergeOnApproachingBlobs) {
  // Two blobs drift towards each other and fuse — the mirror image of the
  // Fig 9 split, driven through the full generator/tracker path.
  Dims d{40, 16, 16};
  const int steps = 8;
  auto source = std::make_shared<CallbackSource>(
      d, steps, std::pair<double, double>{0.0, 1.0}, [d](int step) {
        VolumeF v(d, 0.05f);
        auto blob = [&](double cx) {
          for (int k = 0; k < d.z; ++k) {
            for (int j = 0; j < d.y; ++j) {
              for (int i = 0; i < d.x; ++i) {
                double dx = i - cx, dy = j - 8.0, dz = k - 8.0;
                double r2 = dx * dx + dy * dy + dz * dz;
                float val = static_cast<float>(0.9 * std::exp(-r2 / 18.0));
                std::size_t li = v.linear_index(i, j, k);
                v[li] = std::max(v[li], val);
              }
            }
          }
        };
        blob(10.0 + 1.5 * step);   // left blob moves right
        blob(30.0 - 1.5 * step);   // right blob moves left
        return v;
      });
  StreamedSequence seq(source);
  FixedRangeCriterion criterion(0.45, 1.0);
  Tracker tracker(seq, criterion);
  TrackResult track = tracker.track(Index3{10, 8, 8}, 0);
  FeatureHistory history = build_feature_history(track);
  EXPECT_EQ(history.component_count(0), 2);  // 4D growing reaches both
  EXPECT_EQ(history.component_count(steps - 1), 1);
  auto merges = history.events_of(EventType::kMerge);
  ASSERT_GE(merges.size(), 1u);
  // The merge is observed at the first single-component step.
  int merge_step = merges.front().step;
  EXPECT_EQ(history.component_count(merge_step), 1);
  EXPECT_EQ(history.component_count(merge_step - 1), 2);
}

TEST(TrackEvents, FormatTreeListsSteps) {
  StreamedSequence seq(moving_box_source(3, 2));
  FixedRangeCriterion criterion(0.5, 1.0);
  Tracker tracker(seq, criterion);
  FeatureHistory history =
      build_feature_history(tracker.track(Index3{3, 7, 7}, 0));
  std::string tree = format_feature_tree(history);
  EXPECT_NE(tree.find("t=0:"), std::string::npos);
  EXPECT_NE(tree.find("t=2:"), std::string::npos);
  EXPECT_NE(tree.find("size=64"), std::string::npos);
}

TEST(TrackEvents, EmptyTrackYieldsEmptyHistory) {
  TrackResult empty;
  FeatureHistory history = build_feature_history(empty);
  EXPECT_TRUE(history.nodes.empty());
  EXPECT_TRUE(history.events.empty());
}

TEST(TrackEvents, MergeDetectedOnConstructedMasks) {
  // Hand-build a track: two components at step 0 merging into one at step 1.
  Dims d{16, 8, 8};
  TrackResult track;
  Mask step0(d);
  for (int i = 2; i < 5; ++i) step0.at(i, 4, 4) = 1;
  for (int i = 9; i < 12; ++i) step0.at(i, 4, 4) = 1;
  Mask step1(d);
  for (int i = 2; i < 12; ++i) step1.at(i, 4, 4) = 1;
  track.masks.emplace(0, std::move(step0));
  track.masks.emplace(1, std::move(step1));

  FeatureHistory history = build_feature_history(track);
  EXPECT_EQ(history.component_count(0), 2);
  EXPECT_EQ(history.component_count(1), 1);
  auto merges = history.events_of(EventType::kMerge);
  ASSERT_EQ(merges.size(), 1u);
  EXPECT_EQ(merges[0].step, 1);
}

TEST(TrackEvents, BirthAndDeathDetected) {
  Dims d{8, 8, 8};
  TrackResult track;
  // Step 0: one blob; step 1: the same blob plus a NEW disjoint blob (birth);
  // step 2: only the new blob (the old one dies at step 1... it has no
  // child at step 2).
  Mask m0(d), m1(d), m2(d);
  m0.at(1, 1, 1) = 1;
  m1.at(1, 1, 1) = 1;
  m1.at(6, 6, 6) = 1;
  m2.at(6, 6, 6) = 1;
  track.masks.emplace(0, m0);
  track.masks.emplace(1, m1);
  track.masks.emplace(2, m2);
  FeatureHistory history = build_feature_history(track);
  auto births = history.events_of(EventType::kBirth);
  auto deaths = history.events_of(EventType::kDeath);
  ASSERT_EQ(births.size(), 1u);
  EXPECT_EQ(births[0].step, 1);
  ASSERT_EQ(deaths.size(), 1u);
  EXPECT_EQ(deaths[0].step, 1);
}

}  // namespace
}  // namespace ifet
