// Fixed-size brick decomposition with per-brick value ranges — the
// renderer's empty-space-skipping metadata (docs/PERFORMANCE.md).
//
// A BrickIndex partitions a volume into brick_size^3 cells (ragged at the
// high faces when an extent is not a multiple) and records the min/max
// voxel value of each cell. Built once at ingest, it answers the question
// the ray caster asks per frame: "can ANY sample inside this brick have
// nonzero opacity under the current transfer function?" — a brick whose
// dilated value range maps to zero opacity everywhere is provably
// invisible, so rays clip it out analytically instead of marching it.
//
// NaN guarantee: stored ranges are never NaN. A brick containing a NaN
// voxel gets the range [-inf, +inf], which no transfer function maps to
// "provably transparent", so NaN-contaminated data is always marched the
// same way the scalar renderer marches it.
//
// The index serializes into the .cvol container's per-step brick records
// (io/compressed) so the streaming layer can serve it without decoding
// payloads; procedural sources fall back to building it from the decoded
// volume (stream/volume_store).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "volume/volume.hpp"

namespace ifet {

class TransferFunction1D;

class BrickIndex {
 public:
  /// Default brick edge (8^3 = 512 voxels/brick): small enough that thin
  /// features keep most bricks empty, large enough that the per-brick
  /// metadata stays ~0.2% of the volume.
  static constexpr int kDefaultBrickSize = 8;

  /// Inclusive value range of one brick's voxels.
  struct Range {
    float lo = 0.0f;
    float hi = 0.0f;
  };

  BrickIndex() = default;

  /// One pass over `volume`: min/max per brick_size^3 cell. Bricks at the
  /// high faces cover the remainder when an extent is not a multiple of
  /// brick_size. A brick containing NaN gets [-inf, +inf].
  static BrickIndex build(const VolumeF& volume,
                          int brick_size = kDefaultBrickSize);

  bool empty() const { return ranges_.empty(); }
  int brick_size() const { return brick_size_; }
  const Dims& volume_dims() const { return dims_; }
  /// Brick-grid extents (ceil-division of the volume extents).
  const Dims& grid() const { return grid_; }
  std::size_t num_bricks() const { return ranges_.size(); }

  std::size_t brick_linear(int bx, int by, int bz) const {
    IFET_DEBUG_ASSERT(grid_.contains(bx, by, bz),
                      "BrickIndex::brick_linear out of range");
    return static_cast<std::size_t>(bx) +
           static_cast<std::size_t>(grid_.x) *
               (static_cast<std::size_t>(by) +
                static_cast<std::size_t>(grid_.y) *
                    static_cast<std::size_t>(bz));
  }

  const Range& range(int bx, int by, int bz) const {
    return ranges_[brick_linear(bx, by, bz)];
  }
  const std::vector<Range>& ranges() const { return ranges_; }

  /// Per-brick activity flags under a transfer function: flag[b] == 0 iff
  /// every sample whose trilinear support can touch brick b is provably
  /// transparent under `tf`. The decision range of each brick is the union
  /// of the value ranges of its full 3x3x3 brick neighbourhood — one brick
  /// (>= 1 voxel) of conservative margin, covering the +1-voxel trilinear
  /// tap reach, the nearest-voxel highlight/gradient lookups, and any
  /// boundary-ULP disagreement between the ray marcher's analytic brick
  /// clipping and the exact per-sample addressing. `out` is resized to
  /// num_bricks().
  void classify(const TransferFunction1D& tf,
                std::vector<std::uint8_t>& out) const;

  /// classify() with a second chance through a highlight transfer
  /// function: bricks whose 3x3x3 neighbourhood contains a set mask voxel
  /// are also kept active when `highlight_tf` has nonzero opacity over the
  /// decision range (the tracked-feature overlay re-colors masked samples
  /// through the adaptive TF, so the main TF alone cannot prove them
  /// transparent). `mask` must match volume_dims().
  void classify_with_highlight(const TransferFunction1D& tf,
                               const Mask& mask,
                               const TransferFunction1D& highlight_tf,
                               std::vector<std::uint8_t>& out) const;

  /// Serialized ranges (little-endian f32 lo/hi pairs, brick-linear
  /// order) — the payload of the .cvol brick section. Geometry (dims,
  /// brick size) travels in the container header, not here.
  std::vector<std::uint8_t> serialize() const;

  /// Inverse of serialize(). Throws CorruptDataError when `size` does not
  /// match the brick count implied by (volume_dims, brick_size) or a
  /// stored range is NaN.
  static BrickIndex deserialize(Dims volume_dims, int brick_size,
                                const std::uint8_t* bytes, std::size_t size);

  /// Serialized byte size of an index over (volume_dims, brick_size).
  static std::size_t serialized_bytes(Dims volume_dims, int brick_size);

 private:
  /// Union of the 3x3x3 neighbourhood ranges around brick (bx,by,bz).
  Range dilated_range(int bx, int by, int bz) const;

  Dims dims_{};
  Dims grid_{};
  int brick_size_ = 0;
  std::vector<Range> ranges_;
};

}  // namespace ifet
