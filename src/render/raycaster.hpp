// Software direct-volume ray caster.
//
// Substitutes the paper's hardware pipeline (Sec 7: fragment programs +
// view-aligned 3D textures on a GeForce 6800) with the same algorithm on
// the CPU: per-sample transfer-function lookup, optional Phong shading from
// central-difference gradient normals, front-to-back compositing with early
// ray termination, and the tracked-feature highlight pass — "when a voxel's
// value in the region growing texture is one, its color is set to red and
// its opacity is set to the opacity in the adaptive transfer function.
// Otherwise, the color and opacity looked up from the user specified 1D
// transfer function are shown."
//
// Color is always assigned from the *original data value* through a
// time-constant color map; the learned methods modulate opacity only
// (Sec 7's caveat about misleading color shifts).
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "io/image_io.hpp"
#include "render/camera.hpp"
#include "tf/transfer_function.hpp"
#include "util/hot_path.hpp"
#include "volume/brick_index.hpp"
#include "volume/sequence.hpp"
#include "volume/volume.hpp"

namespace ifet {

struct RenderSettings {
  int width = 256;
  int height = 256;
  /// Ray-march step as a fraction of a voxel (1.0 = one voxel per sample).
  /// TF opacities are authored for unit sampling and corrected per sample
  /// distance: a' = 1 - (1 - a)^step_voxels.
  double step_voxels = 1.0;
  /// Headlight Phong shading, with the fixed coefficients of ray_packet.hpp.
  bool shading = true;
  /// Clip rays against per-brick min/max metadata: bricks the transfer
  /// function maps to zero opacity everywhere are jumped over instead of
  /// marched. Bitwise identical to the unskipped march — skipped samples
  /// are provably transparent (docs/PERFORMANCE.md) — so this is purely a
  /// speed knob; tests that assert sample *counts* turn it off.
  bool empty_space_skipping = true;
};

/// Inputs of a highlight (feature-tracking) overlay pass.
struct HighlightLayer {
  const Mask* mask = nullptr;             ///< Tracked-region texture.
  const TransferFunction1D* tf = nullptr; ///< Adaptive TF giving its opacity.
  Rgb color{0.9, 0.05, 0.05};             ///< Paper renders the feature red.
};

struct RenderStats {
  std::size_t rays = 0;
  std::size_t samples = 0;        ///< TF lookups performed.
  std::size_t terminated_early = 0;
  double seconds = 0.0;
  // Empty-space skipping (zero when the plan carries no brick index).
  std::size_t samples_skipped = 0;  ///< Samples clipped out by brick jumps.
  std::size_t bricks_total = 0;     ///< Bricks in the volume's index.
  std::size_t bricks_active = 0;    ///< Bricks the TF left potentially visible.

  /// Fraction of would-be samples the brick clipping removed.
  double skip_rate() const {
    const std::size_t total = samples + samples_skipped;
    return total == 0 ? 0.0
                      : static_cast<double>(samples_skipped) /
                            static_cast<double>(total);
  }
};

class Raycaster {
 public:
  explicit Raycaster(const RenderSettings& settings = {});

  const RenderSettings& settings() const { return settings_; }

  /// Render `volume` with a transfer function and color map. If `highlight`
  /// is provided its mask voxels are drawn in the highlight color with the
  /// adaptive TF's opacity (the multi-pass feature-tracking display).
  ImageRgb8 render(const VolumeF& volume, const TransferFunction1D& tf,
                   const ColorMap& colors, const Camera& camera,
                   const HighlightLayer* highlight = nullptr,
                   RenderStats* stats = nullptr) const;

  /// Streamed form for animation sweeps: fetch `step` through the sequence
  /// and (when `prefetch_next`) hint step+1 so an out-of-core sequence
  /// decodes the next frame while this one rasterizes.
  ImageRgb8 render_step(const VolumeSequence& sequence, int step,
                        const TransferFunction1D& tf, const ColorMap& colors,
                        const Camera& camera,
                        const HighlightLayer* highlight = nullptr,
                        RenderStats* stats = nullptr,
                        bool prefetch_next = true) const;

  /// Pre-classified render: a per-voxel certainty volume (the data-space
  /// classifier's output, computed once up front rather than per sample)
  /// modulates the transfer-function opacity —
  /// a = tf.opacity(value) * certainty — so only voxels the network deems
  /// part of the feature stay visible. Color still comes from the original
  /// data value. A certainty of one everywhere reproduces render() exactly.
  /// `certainty` must match `volume`'s dimensions.
  ImageRgb8 render_classified(const VolumeF& volume, const VolumeF& certainty,
                              const TransferFunction1D& tf,
                              const ColorMap& colors, const Camera& camera,
                              RenderStats* stats = nullptr) const;

  /// Per-frame render state, resolved once by prepare_plan: input pointers
  /// (caller-owned, must outlive the plan), the world-space bounding box,
  /// and the derived marching constants. Splitting setup from the ray loop
  /// lets render_rows stay validation- and allocation-free, and lets
  /// benches drive the row kernel directly.
  struct Plan {
    const VolumeF* volume = nullptr;
    const TransferFunction1D* tf = nullptr;
    const ColorMap* colors = nullptr;
    const Camera* camera = nullptr;
    const HighlightLayer* highlight = nullptr;  ///< optional
    const VolumeF* certainty = nullptr;         ///< optional
    Vec3 box_lo, box_hi;  ///< world-space volume bounds
    Vec3 box_scale;       ///< world -> voxel scale per axis
    double dt = 0.0;          ///< world-space step length
    double value_span = 0.0;  ///< tf.value_hi() - tf.value_lo()
    Vec3 light_dir;           ///< headlight direction (unit)

    /// Opacity correction per TF entry:
    /// corrected[e] = 1 - pow(1 - tf.opacity_entry(e), step_voxels),
    /// the double the scalar march computes for every sample of entry e;
    /// highlight_corrected holds the same for the highlight layer's TF.
    /// The packet kernel reads these instead of calling pow per sample
    /// (certainty-modulated samples have no entry and keep the pow).
    std::array<double, TransferFunction1D::kEntries> corrected{};
    std::array<double, TransferFunction1D::kEntries> highlight_corrected{};

    // --- Empty-space skipping (null/empty when disabled) ---
    /// Brick min/max metadata; ingest-time when the caller supplied it,
    /// built from the volume by prepare_plan otherwise.
    std::shared_ptr<const BrickIndex> bricks;
    /// Per-brick activity under this plan's TF (and highlight layer when
    /// present): 0 = provably transparent, clipped out of every ray.
    std::vector<std::uint8_t> brick_active;

    /// World -> continuous voxel coordinates; voxel i covers
    /// [i-0.5, i+0.5) in sample space (centers at integer coordinates).
    IFET_HOT Vec3 to_voxel(const Vec3& world) const {
      return Vec3{(world.x - box_lo.x) * box_scale.x - 0.5,
                  (world.y - box_lo.y) * box_scale.y - 0.5,
                  (world.z - box_lo.z) * box_scale.z - 0.5};
    }
  };

  /// Per-call counters filled by render_rows (plain integers: the caller
  /// aggregates across workers; the kernel itself stays atomics-free).
  struct RenderRowCounters {
    std::size_t samples = 0;
    std::size_t terminated_early = 0;
    std::size_t samples_skipped = 0;
  };

  /// Validate the inputs and resolve the per-frame constants. Throws on
  /// the same contract violations render() would (highlight needs mask+TF
  /// of matching dims; certainty must match dims).
  ///
  /// When empty-space skipping is enabled, `bricks` supplies the volume's
  /// ingest-time brick metadata (e.g. VolumeSequence::brick_index); pass
  /// nullptr to have the plan build it from the volume (one extra pass —
  /// the path for sources without a stored brick section). The active TF
  /// (and highlight layer) is folded into per-brick activity flags here,
  /// once per frame.
  Plan prepare_plan(const VolumeF& volume, const TransferFunction1D& tf,
                    const ColorMap& colors, const Camera& camera,
                    const HighlightLayer* highlight = nullptr,
                    const VolumeF* certainty = nullptr,
                    std::shared_ptr<const BrickIndex> bricks = nullptr) const;

  /// March rays for image rows [row0, row1) of a validated plan. The hot
  /// ray loop: no validation, no allocation, no I/O once the plan and the
  /// destination image exist. render() dispatches this across the thread
  /// pool; benches call it directly to prove the zero-allocation contract.
  void render_rows(const Plan& plan, int row0, int row1, ImageRgb8& image,
                   RenderRowCounters& counters) const;

 private:
  ImageRgb8 render_impl(const VolumeF& volume, const TransferFunction1D& tf,
                        const ColorMap& colors, const Camera& camera,
                        const HighlightLayer* highlight,
                        const VolumeF* certainty, RenderStats* stats,
                        std::shared_ptr<const BrickIndex> bricks = nullptr)
      const;

  RenderSettings settings_;
};

/// Render one axis-aligned slice of a volume through a TF + color map
/// (the interface's 2D views, Sec 6). Axis 0=X, 1=Y, 2=Z.
ImageRgb8 render_slice(const VolumeF& volume, int axis, int slice,
                       const TransferFunction1D& tf, const ColorMap& colors);

}  // namespace ifet
