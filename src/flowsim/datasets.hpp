// Synthetic stand-ins for the paper's five evaluation data sets.
//
// The originals (argon-bubble shock simulation, Sandia DNS combustion jet,
// Princeton reionization run, NCAR turbulent vortex, swirling flow) are not
// redistributable; each generator below reproduces the *statistical property
// the corresponding experiment depends on* and — unlike the originals —
// carries analytic ground truth, which lets the benches score extraction
// quality quantitatively instead of by eyeballing renderings. See DESIGN.md
// Sec 2 for the substitution arguments.
//
// All generators are deterministic functions of (seed, step): a
// VolumeSequence can evict and regenerate any step bit-identically.
#pragma once

#include <memory>
#include <vector>

#include "flowsim/fluid_solver.hpp"
#include "flowsim/noise.hpp"
#include "volume/sequence.hpp"
#include "volume/volume.hpp"

namespace ifet {

/// A VolumeSource that also knows where its feature of interest is.
class LabeledSource : public VolumeSource {
 public:
  /// Ground-truth mask of the primary feature of interest at `step`.
  virtual Mask feature_mask(int step) const = 0;
};

// ---------------------------------------------------------------------------
// Argon bubble (Figs 2-4): a torus-shaped "smoke ring" plus smaller
// turbulence structures. The whole field undergoes a global monotonic value
// drift over time, so the ring's raw-value band moves while its cumulative-
// histogram coordinate stays nearly constant — the exact regime that
// motivates the IATF input vector.
// ---------------------------------------------------------------------------
struct ArgonBubbleConfig {
  Dims dims{64, 64, 64};
  int num_steps = 360;          ///< Steps indexed 0..num_steps-1 ("t").
  std::uint64_t seed = 42;
  double ring_major_radius0 = 0.18;  ///< Major radius at t=0 (domain units).
  double ring_growth = 0.00045;      ///< Major radius growth per step.
  double ring_tube_radius = 0.06;    ///< Tube radius of the torus.
  double drift_per_step = 0.0011;    ///< Global additive value drift per step.
  double turbulence_amplitude = 0.38;
};

class ArgonBubbleSource final : public LabeledSource {
 public:
  explicit ArgonBubbleSource(const ArgonBubbleConfig& config = {});

  Dims dims() const override { return config_.dims; }
  int num_steps() const override { return config_.num_steps; }
  std::pair<double, double> value_range() const override;
  VolumeF generate(int step) const override;
  Mask feature_mask(int step) const override;

  const ArgonBubbleConfig& config() const { return config_; }

  /// Raw value at the *center* of the ring band at `step` (analytic; used
  /// by Fig 2 to place the feature peak and by tests).
  double ring_band_center(int step) const;
  /// Half-width of the ring's raw-value band.
  double ring_band_half_width() const;

 private:
  /// Distance to the torus surface axis at normalized point p, step t.
  double torus_distance(const Vec3& p, int step) const;
  /// Pre-drift field value at normalized point p.
  double base_value(const Vec3& p, int step) const;
  /// The global monotonic drift applied to every voxel.
  double drift(double value, int step) const;

  ArgonBubbleConfig config_;
  ValueNoise noise_;
};

// ---------------------------------------------------------------------------
// Combustion jet (Fig 5): fuel flows between two counter-flowing air
// streams; turbulence distorts the mixing layer. Driven by the real
// FluidSolver; the produced scalar is vorticity magnitude whose value range
// *grows* as turbulence develops, which is why a static TF fails. The
// feature of interest is the strong-vorticity structure: ground truth is the
// top `feature_fraction` of each step's vorticity distribution.
// ---------------------------------------------------------------------------
struct CombustionJetConfig {
  Dims dims{48, 64, 24};        ///< Aspect follows the paper's 480x720x120.
  int num_steps = 33;           ///< Recorded snapshots.
  int solver_steps_per_snapshot = 4;
  std::uint64_t seed = 7;
  double inflow_speed = 2.2;    ///< Fuel jet speed (+y).
  double counterflow_speed = 1.1;  ///< Air streams (-y).
  double inflow_ramp = 0.015;   ///< Fractional speed growth per solver step.
  double feature_fraction = 0.02;  ///< Top-vorticity fraction = "the vortex".
};

class CombustionJetSource final : public LabeledSource {
 public:
  /// Runs the solver for num_steps * solver_steps_per_snapshot steps up
  /// front and stores the vorticity-magnitude snapshots.
  explicit CombustionJetSource(const CombustionJetConfig& config = {});

  Dims dims() const override { return config_.dims; }
  int num_steps() const override { return config_.num_steps; }
  std::pair<double, double> value_range() const override;
  VolumeF generate(int step) const override;
  Mask feature_mask(int step) const override;

  const CombustionJetConfig& config() const { return config_; }

  /// Vorticity value such that `feature_fraction` of step's voxels exceed
  /// it (the ground-truth adaptive criterion).
  double feature_threshold(int step) const;

  /// Max vorticity of a step (tests assert the range grows over time).
  double max_vorticity(int step) const;

  /// The simulation's second variable: the advected fuel (mixture
  /// fraction) field of a snapshot, in [0, 1]. The paper's DNS data is
  /// multivariate; the reacting mixing layer is where fuel meets strong
  /// vorticity — a joint condition only a classifier over both variables
  /// can express (FeatureVectorSpec::variables, core/feature_vector.hpp).
  const VolumeF& fuel_snapshot(int step) const;

 private:
  CombustionJetConfig config_;
  std::vector<VolumeF> snapshots_;
  std::vector<VolumeF> fuel_snapshots_;
  std::vector<double> thresholds_;
  std::vector<double> maxima_;
  double global_max_ = 0.0;
};

// ---------------------------------------------------------------------------
// Reionization (Figs 7-8): a few large filamentary structures with fine
// surface detail plus hundreds of tiny blobs whose *values overlap* the
// large structures — so a 1D TF cannot remove them and smoothing destroys
// the detail. Ground truth distinguishes large and small features.
// ---------------------------------------------------------------------------
struct ReionizationConfig {
  Dims dims{64, 64, 64};
  int num_steps = 400;
  std::uint64_t seed = 99;
  int num_small_features = 160;
  double small_radius = 0.018;     ///< Radius of tiny blobs (domain units).
  double filament_width0 = 0.085;  ///< Large-structure width at t=0.
  double filament_growth = 5e-5;   ///< Width growth per step (reionization).
  double detail_amplitude = 0.30;  ///< Fine fbm detail on large structures.
};

class ReionizationSource final : public LabeledSource {
 public:
  explicit ReionizationSource(const ReionizationConfig& config = {});

  Dims dims() const override { return config_.dims; }
  int num_steps() const override { return config_.num_steps; }
  std::pair<double, double> value_range() const override;
  VolumeF generate(int step) const override;

  /// Primary feature = the large structures.
  Mask feature_mask(int step) const override { return large_mask(step); }

  Mask large_mask(int step) const;
  Mask small_mask(int step) const;

  const ReionizationConfig& config() const { return config_; }

 private:
  double large_contribution(const Vec3& p, int step) const;
  double small_contribution(const Vec3& p, int step) const;

  ReionizationConfig config_;
  ValueNoise noise_;
  std::vector<Vec3> small_centers_;
  std::vector<double> small_amplitudes_;
};

// ---------------------------------------------------------------------------
// Turbulent vortex (Fig 9): a single feature that moves, deforms, and
// *splits in two* near the end of the sequence, embedded among distractor
// structures of a different value band.
// ---------------------------------------------------------------------------
struct TurbulentVortexConfig {
  Dims dims{64, 64, 64};
  int num_steps = 25;           ///< Matches the paper's t = 50..74 window.
  int split_step = 18;          ///< The feature is split for t >= this step.
  std::uint64_t seed = 11;
  double feature_value = 0.82;  ///< Peak value of the tracked feature.
  double feature_radius = 0.11;
};

class TurbulentVortexSource final : public LabeledSource {
 public:
  explicit TurbulentVortexSource(const TurbulentVortexConfig& config = {});

  Dims dims() const override { return config_.dims; }
  int num_steps() const override { return config_.num_steps; }
  std::pair<double, double> value_range() const override;
  VolumeF generate(int step) const override;
  Mask feature_mask(int step) const override;

  const TurbulentVortexConfig& config() const { return config_; }

  /// Ground truth: number of connected pieces the feature has at `step`.
  int expected_components(int step) const;
  /// Center(s) of the feature lobes at `step`.
  std::vector<Vec3> lobe_centers(int step) const;

 private:
  double feature_contribution(const Vec3& p, int step) const;

  TurbulentVortexConfig config_;
  ValueNoise noise_;
};

// ---------------------------------------------------------------------------
// Swirling flow (Fig 10): the tracked feature's data values *decay* over
// time. A fixed tracking criterion loses it mid-sequence; the adaptive
// criterion must follow it to the last step.
// ---------------------------------------------------------------------------
struct SwirlingFlowConfig {
  Dims dims{64, 64, 64};
  int num_steps = 63;           ///< Paper shows t = 23, 41, 62.
  std::uint64_t seed = 5;
  double peak_value0 = 0.92;    ///< Feature peak value at t=0 ...
  double peak_decay = 0.0085;   ///< ... decaying linearly per step.
  double feature_radius = 0.10;
  double swirl_rate = 0.035;    ///< Radians per step around the volume axis.
};

class SwirlingFlowSource final : public LabeledSource {
 public:
  explicit SwirlingFlowSource(const SwirlingFlowConfig& config = {});

  Dims dims() const override { return config_.dims; }
  int num_steps() const override { return config_.num_steps; }
  std::pair<double, double> value_range() const override;
  VolumeF generate(int step) const override;
  Mask feature_mask(int step) const override;

  const SwirlingFlowConfig& config() const { return config_; }

  /// Peak value of the feature at `step` (decays linearly).
  double peak_value(int step) const;
  /// Feature center at `step` (rotates about the volume axis).
  Vec3 feature_center(int step) const;

 private:
  double feature_contribution(const Vec3& p, int step) const;

  SwirlingFlowConfig config_;
  ValueNoise noise_;
};

}  // namespace ifet
