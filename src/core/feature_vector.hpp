// Per-voxel feature vectors for data-space extraction (paper Sec 4.3).
//
// "...the trained network in fact takes as input a feature vector which
// consists of data values of the feature, neighborhood information, and the
// time step number." Neighborhood information is a *shell*: "we do not use
// all the voxel values in the neighborhood; only those voxels a fixed
// distance away from the feature of interest are used, and this distance is
// data dependent and derived according to the characteristics of the
// selected features so far."
//
// FeatureVectorSpec makes every component optional so the user can drop
// properties they judge unimportant (Sec 6); the classifier then shrinks
// its network while transferring the surviving weights.
//
// A step may carry several aligned variables (Sec 8: "the system can take
// multivariate data as input"). The vector then repeats the per-variable
// components for each of the V variables:
//
//   [value, shell...] x V, position, time, gradient x V
//
// which for V = 1 is the classic [value, shell..., position, time,
// gradient] layout.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "volume/volume.hpp"

namespace ifet {

struct FeatureVectorSpec {
  int variables = 1;           ///< Aligned scalar fields per step (V).
  bool use_value = true;       ///< Each variable's own scalar value.
  bool use_shell = true;       ///< Each variable's shell of neighbor samples.
  bool use_position = true;    ///< Normalized (x, y, z), shared.
  bool use_time = true;        ///< Normalized time step, shared.
  bool use_gradient = false;   ///< Each variable's gradient magnitude.
  double shell_radius = 3.0;   ///< Shell distance in voxels.
  int shell_samples = 14;      ///< 6 axis + 8 diagonal directions by default.

  /// Total feature-vector width for this spec.
  int width() const;

  /// Human-readable component names, index-aligned with assemble()'s output
  /// (used by the session UI when the user toggles properties). With V >= 2
  /// the per-variable names carry a "var<v>." prefix.
  std::vector<std::string> component_names() const;
};

/// The aligned scalar fields of one time step, one per variable. A single
/// volume converts implicitly, so univariate callers pass a VolumeF where a
/// StepFields is expected. Borrows the volumes.
class StepFields {
 public:
  StepFields(const VolumeF& field) : fields_{&field} {}
  StepFields(std::vector<const VolumeF*> fields);  ///< Throws on a null.

  int size() const { return static_cast<int>(fields_.size()); }
  const VolumeF& operator[](int v) const {
    return *fields_[static_cast<std::size_t>(v)];
  }

 private:
  std::vector<const VolumeF*> fields_;
};

/// Context needed to assemble a vector: the step's fields and their global
/// value ranges (one lo/hi per variable), the step index and the sequence
/// length (for time normalization).
struct FeatureContext {
  StepFields fields;
  std::vector<std::pair<double, double>> ranges;
  int step = 0;
  int num_steps = 1;

  /// Throws unless there are spec.variables non-null fields of one shape
  /// and as many ranges; returns that shape.
  Dims require_shape(const FeatureVectorSpec& spec) const;
};

/// Assemble the (already normalized to ~[0,1]) feature vector of voxel
/// (i, j, k). Shell samples use trilinear interpolation at `shell_radius`
/// voxels along fixed directions, clamped at volume borders.
std::vector<double> assemble_feature_vector(const FeatureVectorSpec& spec,
                                            const FeatureContext& context,
                                            int i, int j, int k);

/// The fixed shell directions (unit vectors); first 6 are the axes, the
/// next 8 the cube diagonals, then edge midpoints for larger counts.
std::vector<Vec3> shell_directions(int count);

/// Shell sample offsets: radius * shell_directions(count), quantized to
/// 1/256 voxel (an exact binary fraction). The quantization error is at
/// most 0.2% of a voxel — far below the trilinear reconstruction error —
/// and it makes `voxel_index + offset` exact in double for any volume that
/// fits in memory, so the fractional interpolation weights are the same
/// constants for every voxel. That constancy is what lets the batched
/// assembler hoist the weights and run clamp-free over a padded copy while
/// staying bitwise identical to the scalar path.
std::vector<Vec3> shell_offsets(double radius, int count);

/// Batched feature assembly for the flat inference engine.
///
/// Construction hoists everything assemble_feature_vector recomputes per
/// voxel out of the voxel loop: each variable's value span, the position
/// denominators and normalized time, and — for the shell — the
/// per-direction interpolation weights plus one edge-replicated padded copy
/// of each variable's field. Because the quantized shell_offsets() make
/// `voxel + offset` exact, each direction's trilinear weights are
/// voxel-independent constants and every sample reduces to eight direct
/// loads from a padded grid and the same lerp chain Volume::sample runs —
/// no coordinate clamping, flooring, or bounds logic left per voxel.
///
/// Numerical contract: every assembled vector is bitwise identical to
/// assemble_feature_vector(spec, context, v.x, v.y, v.z) for the same
/// voxel. Out-of-range samples hit edge-replicated padding, where both
/// trilinear operands are equal and lerp(a, a, t) == a exactly — the same
/// value the scalar path's clamp-to-edge produces.
///
/// The assembler borrows the context's fields; they must outlive it. Safe
/// to share across threads (assemble_feature_cols is const and touches no
/// mutable state).
class FeatureBlockAssembler {
 public:
  FeatureBlockAssembler(const FeatureVectorSpec& spec,
                        const FeatureContext& context);

  int width() const { return width_; }

  /// Assemble `count` voxels column-major for FlatMlp::forward_batch_cols:
  /// component c of voxel v lands at out[c*ld + v] (ld >= count). Shell
  /// directions are the OUTER loop, so each inner loop runs one fixed tap
  /// across many voxels — constant weights in registers, contiguous
  /// stores — and the inference engine consumes the columns without a
  /// transpose.
  void assemble_feature_cols(const Index3* voxels, int count, double* out,
                             int ld) const;

 private:
  /// One shell direction, resolved against the padded grid: the linear
  /// offset of its (floor) corner for voxel (0,0,0) plus the constant
  /// trilinear weights. The grid geometry is shared by every variable.
  struct ShellTap {
    std::ptrdiff_t base = 0;
    double fx = 0.0, fy = 0.0, fz = 0.0;
  };

  /// Per-variable hoisted state.
  struct Variable {
    const VolumeF* field = nullptr;
    double lo = 0.0, span = 1.0;
    std::vector<float> padded;  ///< edge-replicated field copy (shell only)
  };

  FeatureVectorSpec spec_;
  std::vector<Variable> vars_;
  std::vector<ShellTap> taps_;    ///< hoisted per-direction sample plan
  std::ptrdiff_t pdx_ = 0, pdxy_ = 0;  ///< padded row/slab strides
  int width_ = 0;
  double den_x_ = 1.0, den_y_ = 1.0, den_z_ = 1.0;
  double time_value_ = 0.0;
};

/// Derive a shell radius from the painted feature voxels "according to the
/// characteristics of the selected features": half the mean feature
/// diameter, estimated from the per-component bounding boxes of the
/// positive samples, clamped to [1.5, 6] voxels.
double derive_shell_radius(const Mask& positive_samples);

}  // namespace ifet
