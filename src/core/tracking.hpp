// Feature tracking by 4D region growing (paper Sec 5).
//
// Assumption (stated in the paper): temporal sampling is dense enough that
// matching features overlap in 3D between consecutive steps. Tracking is
// then region growing where the fourth dimension is time — a voxel's
// neighbors are its six spatial neighbors in the same step plus the
// same-position voxel in steps t-1 and t+1. The inclusion criterion is
// pluggable: a fixed value range reproduces conventional threshold
// tracking; the adaptive criterion consults the IATF (opacity above a cut)
// so the tracked value band follows the data drift — the Fig 10 contrast.
//
// The grown region is stored as one mask volume per visited step ("the
// region growing result is then saved in a 3D volume texture for
// rendering").
//
// The grow works a row at a time. A step's rows are its (y, z) pairs,
// each held as ceil(nx / 64) words of 64 voxel bits. A seed fills its
// whole run of accepted, not yet tracked voxels along x with a few word
// operations; the filled run seeds the same bits in the four neighbouring
// rows (y +- 1, z +- 1) and at steps t - 1 and t + 1. Acceptance is
// computed only for the rows a fill touches. The masks are the unique 4D
// fixpoint, whatever order the rows and steps are grown in.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>

#include "core/iatf.hpp"
#include "stream/derived_cache.hpp"
#include "util/hot_path.hpp"
#include "volume/sequence.hpp"
#include "volume/volume.hpp"

namespace ifet {

/// A tracking criterion resolved for one step: the voxel test as plain
/// data, so growing makes no virtual call and no lookup per voxel.
class StepCriterion {
 public:
  /// Accept values in [lo, hi].
  static StepCriterion range(double lo, double hi) {
    return StepCriterion(nullptr, lo, hi);
  }
  /// Accept values whose opacity in `tf` is at least `cut`; `tf` must
  /// outlive the predicate.
  static StepCriterion opacity_at_least(const TransferFunction1D& tf,
                                        double cut) {
    return StepCriterion(&tf, cut, 0.0);
  }

  bool operator()(double value) const {
    if (tf_ != nullptr) return tf_->opacity(value) >= lo_;
    return value >= lo_ && value <= hi_;
  }

  /// This test resolved for rows of float voxels: the floats it accepts as
  /// closed intervals in float order, plus NaN when it accepts NaN, so a
  /// row costs a few compares per voxel. Every float gets the decision
  /// operator() gives it: a range's bounds round inward to floats, and the
  /// opacity test's entry lookup is monotone in the value, so the entries
  /// it accepts are runs of floats.
  class Rows {
   public:
    /// Bit i is the test on values[i] for i < n (n <= 64); bits n and up
    /// are 0.
    std::uint64_t accept_bits(const float* values, int n) const;

   private:
    friend class StepCriterion;
    /// Closed intervals {lo, hi}: spans_[0..count_).
    std::array<std::array<float, 2>, TransferFunction1D::kEntries / 2>
        spans_{};
    int count_ = 0;
    bool nan_ = false;
  };
  Rows rows() const;

 private:
  StepCriterion(const TransferFunction1D* tf, double lo, double hi)
      : tf_(tf), lo_(lo), hi_(hi) {}

  const TransferFunction1D* tf_;
  double lo_, hi_;  ///< The range, or the opacity cut in lo_.
};

/// Voxel-inclusion predicate for tracking.
class TrackingCriterion {
 public:
  virtual ~TrackingCriterion() = default;
  /// The voxel test at time `step`, valid while this criterion lives.
  virtual StepCriterion at_step(int step) const = 0;
  /// True if a voxel with `value` at time `step` belongs to the feature.
  bool accept(int step, double value) const { return at_step(step)(value); }
};

/// Conventional tracking: a constant value range for all steps.
class FixedRangeCriterion final : public TrackingCriterion {
 public:
  FixedRangeCriterion(double lo, double hi) : lo_(lo), hi_(hi) {}
  StepCriterion at_step(int) const override {
    return StepCriterion::range(lo_, hi_);
  }

 private:
  double lo_, hi_;
};

/// Adaptive tracking: accept where the IATF's opacity for (value, step)
/// exceeds `opacity_cut`. The per-step 1D transfer functions are
/// synthesized once and cached (sub-second per step, paper Sec 5).
///
/// When a DerivedCache is supplied the synthesized TFs are memoized there,
/// keyed by (step, Iatf::params_hash()) — shared across criteria and runs,
/// and naturally invalidated by further training (the hash changes).
class AdaptiveTfCriterion final : public TrackingCriterion {
 public:
  AdaptiveTfCriterion(const Iatf& iatf, double opacity_cut = 0.25,
                      DerivedCache* derived = nullptr);
  StepCriterion at_step(int step) const override;

 private:
  const TransferFunction1D& tf_for(int step) const;

  const Iatf& iatf_;
  double opacity_cut_;
  DerivedCache* derived_;
  /// Per-criterion memo; holds shared_ptrs from `derived_` (or privately
  /// synthesized TFs), so a step resolves its TF once.
  mutable std::map<int, std::shared_ptr<const TransferFunction1D>> tf_cache_;
};

/// Per-step output of a tracking run.
struct TrackResult {
  /// step -> mask of tracked voxels (only steps the region reached).
  std::map<int, Mask> masks;

  /// Number of tracked voxels at `step` (0 if the step was never reached).
  std::size_t voxels_at(int step) const;
  bool reached(int step) const { return masks.count(step) != 0; }
  int first_step() const;
  int last_step() const;
};

struct TrackerConfig {
  /// Restrict growing to [min_step, max_step] (inclusive); -1 = sequence
  /// bounds.
  int min_step = -1;
  int max_step = -1;
};

class Tracker {
 public:
  Tracker(const VolumeSequence& sequence, const TrackingCriterion& criterion,
          const TrackerConfig& config = {});

  /// Grow from a single seed; the seed voxel must satisfy the criterion.
  TrackResult track(Index3 seed, int seed_step) const;

  /// Grow from every voxel of `seeds` that satisfies the criterion.
  TrackResult track_from_mask(const Mask& seeds, int seed_step) const;

 private:
  struct StepRows;
  struct PendingRows;

  /// The track from `seed_step`: its candidates are the voxels of `seeds`,
  /// or the single voxel `seed` when `seeds` is null.
  TrackResult grow_track(int seed_step, const Mask* seeds, Index3 seed) const;

  /// The 3D fixpoint within one step: fills the runs of open voxels that
  /// hold the queued seed bits of `rows`, writes them to the step's mask
  /// and queues the neighbouring rows, until no seed is left. Returns the
  /// voxels added. The region-growing inner loop, hot once the step's
  /// volume is resident.
  std::size_t grow_step(StepRows& rows) const;

  const VolumeSequence& sequence_;
  const TrackingCriterion& criterion_;
  TrackerConfig config_;
};

}  // namespace ifet
