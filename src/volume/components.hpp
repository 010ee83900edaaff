// 3D connected-component labeling and per-component attributes.
//
// Components are the paper's "features": connected sets of voxels
// satisfying a criterion (Sec 2, Sec 5). Attributes (voxel count, centroid,
// bounding box) follow Reinders et al.'s basic-attribute scheme the paper
// cites, and drive the event detection in core/track_events.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "math/vec.hpp"
#include "volume/volume.hpp"

namespace ifet {

/// Per-component summary attributes.
struct ComponentInfo {
  std::int32_t label = 0;       ///< Label >= 1 in the label volume.
  std::size_t voxel_count = 0;  ///< Size in voxels.
  Vec3 centroid;                ///< Mean voxel coordinate.
  Index3 bbox_min;              ///< Inclusive bounding box corner.
  Index3 bbox_max;              ///< Inclusive bounding box corner.
  double value_sum = 0.0;       ///< Sum of the scalar field over the component
                                ///< (0 when labeling a bare mask).
};

/// Result of a labeling pass: per-voxel labels (0 = background) plus sorted
/// (largest-first) component attributes.
struct Labeling {
  Volume<std::int32_t> labels;
  std::vector<ComponentInfo> components;

  /// Info for a given label; throws if the label does not exist.
  const ComponentInfo& info(std::int32_t label) const;

  /// Mask selecting exactly one component.
  Mask component_mask(std::int32_t label) const;
};

/// 6-connected component labeling of a binary mask. A bare mask is
/// flooded in z-slabs on every thread of the global pool and the parts
/// that touch across slab faces are merged; with a value volume the whole
/// mask is one FIFO flood, so value_sum adds in one fixed order. Both give
/// the same labels and attributes. If `values` is non-null it must match
/// the mask dims and is integrated into ComponentInfo::value_sum.
Labeling label_components(const Mask& mask, const VolumeF* values = nullptr);

/// One part of a slab flood: a 6-connected set of mask voxels inside one
/// z-slab, with the sums the merge adds into its component.
struct LabelPart {
  std::uint32_t first = 0;  ///< Linear index of its first voxel in scan order.
  std::size_t count = 0;
  std::uint32_t lo[3] = {0, 0, 0};   ///< Inclusive bounding box corner.
  std::uint32_t hi[3] = {0, 0, 0};   ///< Inclusive bounding box corner.
  std::uint64_t sum[3] = {0, 0, 0};  ///< Integer coordinate sums.
  double value_sum = 0.0;
};

/// One slab's flood scratch, on cache lines of its own: the slab's thread
/// updates the worklist's end once per voxel, and a neighbouring slab's
/// vectors on the same line would bounce it between threads.
struct alignas(64) LabelSlab {
  std::vector<std::uint32_t> worklist;
  std::vector<LabelPart> parts;
};

/// Scratch of label_components_into, owned by the caller so that repeated
/// labelings reuse it: one worklist and one part list per slab, and the
/// merge's tables. One instance per concurrent caller.
struct LabelScratch {
  std::vector<LabelSlab> slabs;
  std::vector<std::uint32_t> first_id;    ///< Global id of each slab's part 1.
  std::vector<std::uint32_t> root;        ///< Union-find parent per part.
  std::vector<std::int32_t> final_label;  ///< Component label per part.
  std::vector<LabelPart> merged;          ///< Summed parts, in label order.
};

/// The number of z-slabs label_components_into floods a bare mask of dims
/// `d` in: one per thread of the global pool (its workers and the caller),
/// at most one per plane. build_feature_history splits its overlap scan
/// into as many parts.
std::size_t label_slab_count(Dims d);

/// label_components into buffers the caller owns and may reuse: `labels`
/// is overwritten with the mask's labels (reallocated only when its dims
/// differ). Labels are numbered in scan order of each component's first
/// voxel; the components come back sorted largest-first.
std::vector<ComponentInfo> label_components_into(
    const Mask& mask, const VolumeF* values, Volume<std::int32_t>& labels,
    LabelScratch& scratch);

/// True when the eight mask voxels from linear index `v` on are all clear
/// (false when fewer than eight remain): scans of mostly clear masks step
/// over such runs at once.
inline bool eight_clear(const Mask& mask, std::size_t v) {
  std::uint64_t eight = 1;
  if (mask.size() - v >= 8) std::memcpy(&eight, &mask[v], 8);
  return eight == 0;
}

/// Remove components smaller than `min_voxels` from a mask.
Mask remove_small_components(const Mask& mask, std::size_t min_voxels);

}  // namespace ifet
