// Time-varying volume sequences (the "4D" in the paper's title).
//
// Terascale sequences do not fit in core (paper Sec 4.2.2: "when the volume
// size is large or many time steps are used, it can be time consuming to
// load the volumes for training since not all the data can fit in core").
// VolumeSequence is therefore an *interface*: consumers (IATF synthesis,
// dataspace classification, 4D region growing, rendering) ask for steps and
// per-step cumulative histograms without knowing whether the data is fully
// resident or streamed from disk under a byte budget.
//
// The one implementation is StreamedSequence (src/stream/): a client of a
// StreamTier, either a private tier (single user; an unlimited budget is
// the fully-resident path) or the server's shared tier (one client per
// session).
#pragma once

#include <functional>
#include <memory>

#include "volume/brick_index.hpp"
#include "volume/histogram.hpp"
#include "volume/volume.hpp"

namespace ifet {

/// Abstract producer of the volume for a given time step.
class VolumeSource {
 public:
  virtual ~VolumeSource() = default;

  virtual Dims dims() const = 0;
  virtual int num_steps() const = 0;
  /// Global scalar range across all steps (used to fix histogram binning so
  /// cumulative coordinates are comparable between time steps).
  virtual std::pair<double, double> value_range() const = 0;
  virtual VolumeF generate(int step) const = 0;

  /// generate(step), produced into caller-supplied `storage` (a volume of
  /// any content) when the source can reuse its buffer: a source that
  /// does takes the buffer and leaves `storage` empty. The default leaves
  /// `storage` untouched. VolumeStore passes the buffer of an evicted
  /// step, so a load need not map and fault in fresh pages.
  virtual VolumeF generate_into(int step, VolumeF& storage) const {
    (void)storage;
    return generate(step);
  }

  /// Ingest-time brick min/max metadata for `step`, when the backing
  /// container carries it (a .cvol brick record — see io/compressed).
  /// The default (procedural sources) returns nullptr and consumers build
  /// the index from the decoded volume instead. Implementations must serve
  /// this WITHOUT decoding the step's payload — it is the renderer's cheap
  /// pre-pass over steps that may never become resident.
  virtual std::shared_ptr<const BrickIndex> brick_metadata(int step) const {
    (void)step;
    return nullptr;
  }
};

/// Adapts a lambda to a VolumeSource.
class CallbackSource final : public VolumeSource {
 public:
  CallbackSource(Dims dims, int num_steps, std::pair<double, double> range,
                 std::function<VolumeF(int)> generate)
      : dims_(dims),
        num_steps_(num_steps),
        range_(range),
        generate_(std::move(generate)) {}

  Dims dims() const override { return dims_; }
  int num_steps() const override { return num_steps_; }
  std::pair<double, double> value_range() const override { return range_; }
  VolumeF generate(int step) const override { return generate_(step); }

 private:
  Dims dims_;
  int num_steps_;
  std::pair<double, double> range_;
  std::function<VolumeF(int)> generate_;
};

/// Interface every 4D pipeline consumes: per-step volumes plus per-step
/// cumulative histograms over the sequence-global value range.
///
/// Reference validity: the VolumeF& returned by step() stays valid while
/// the step is inside the sequence's window — the steps around the last
/// access, or the range last declared with hint_window(). Callers that
/// interleave accesses to several steps (e.g. 4D region growing) declare
/// the steps they hold with hint_window().
class VolumeSequence {
 public:
  virtual ~VolumeSequence() = default;

  virtual Dims dims() const = 0;
  virtual int num_steps() const = 0;
  virtual std::pair<double, double> value_range() const = 0;
  virtual int histogram_bins() const = 0;

  /// Volume at `step` (loaded/generated on miss; cached).
  virtual const VolumeF& step(int step) const = 0;

  /// Volume at `step`, or nullptr when the step is unavailable and the
  /// sequence's fail policy skips it (FailPolicy::kSkipStep — see
  /// docs/ROBUSTNESS.md). Consumers that can bridge gaps (feature
  /// tracking) use this; step() throws instead.
  virtual const VolumeF* try_step(int t) const = 0;

  /// Cumulative histogram of `step` over the sequence-global value range.
  virtual const CumulativeHistogram& cumulative_histogram(int step) const = 0;

  /// Histogram of `step` over the sequence-global value range.
  virtual Histogram histogram(int step) const = 0;

  /// Number of source loads so far (cache-miss count; for tests).
  virtual std::size_t generation_count() const = 0;

  /// Brick min/max metadata for `step` (renderer empty-space skipping):
  /// ingest-time metadata from the backing container when present (served
  /// without decoding the payload), else built from the decoded volume;
  /// memoized either way. nullptr means "no metadata" and callers build
  /// from the volume themselves (Raycaster::prepare_plan does). The index
  /// describes the voxels step() serves, a substitute's included, once
  /// step() has settled whether `step` loads: ask after step().
  virtual std::shared_ptr<const BrickIndex> brick_index(int step) const = 0;

  /// Declare that the caller will interleave accesses to steps in
  /// [lo, hi] (clamped to the sequence; a window that misses the sequence
  /// is an error): the sequence pins that window so references stay valid
  /// while the rest evicts.
  virtual void hint_window(int lo, int hi) const = 0;

  /// Advise that `step` will likely be needed soon; the sequence overlaps
  /// its decode with the caller's compute.
  virtual void prefetch_hint(int step) const = 0;
};

}  // namespace ifet
