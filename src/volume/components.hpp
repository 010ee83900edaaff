// 3D connected-component labeling and per-component attributes.
//
// Components are the paper's "features": connected sets of voxels
// satisfying a criterion (Sec 2, Sec 5). Attributes (voxel count, centroid,
// bounding box) follow Reinders et al.'s basic-attribute scheme the paper
// cites, and drive the event detection in core/track_events. A mask is
// labeled from its x-runs, the maximal stretches of set voxels along x in
// each row, on the calling thread, so the work scales with runs, not
// voxels.
#pragma once

#include <cstdint>
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

/// 6-connected component labeling of a binary mask, from its x-runs
/// (label_runs), into a label volume. If `values` is non-null it must
/// match the mask dims and is integrated into ComponentInfo::value_sum.
Labeling label_components(const Mask& mask, const VolumeF* values = nullptr);

/// A maximal stretch of set voxels along x in one row (y, z) of a mask.
struct MaskRun {
  std::uint32_t x0 = 0;  ///< First voxel.
  std::uint32_t x1 = 0;  ///< Last voxel (inclusive).
};

/// A mask as x-runs with a component label per run: what label_runs
/// fills, owned by the caller so that repeated labelings reuse it. One
/// instance per concurrent caller.
struct RunLabeling {
  Dims dims;
  std::vector<MaskRun> runs;  ///< Every run, in scan order.
  /// Row r = y + ny * z holds runs [row_start[r], row_start[r + 1]).
  std::vector<std::uint32_t> row_start;
  std::vector<std::int32_t> label;  ///< Component label per run.
  /// Union-find parent per run; once label_runs returns, the lowest run
  /// of the run's component.
  std::vector<std::uint32_t> root;
};

/// Labels the 6-connected components of `mask` by its x-runs into `out`.
/// Each run joins the runs it overlaps in rows y - 1 and z - 1, and the
/// components are numbered 1, 2, ... in scan order of their first voxels.
/// Attributes are summed in integers per run; value_sum adds the
/// component's values one voxel at a time in scan order. The components
/// come back sorted largest-first.
std::vector<ComponentInfo> label_runs(const Mask& mask, const VolumeF* values,
                                      RunLabeling& out);

/// Remove components smaller than `min_voxels` from a mask.
Mask remove_small_components(const Mask& mask, std::size_t min_voxels);

}  // namespace ifet
