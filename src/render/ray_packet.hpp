// SoA ray-packet compositing kernel for the brick-skipping ray caster.
//
// Once empty-space skipping has clipped a ray down to runs of samples in
// potentially-visible bricks, each run is processed in structure-of-arrays
// form: positions, gathered trilinear values, TF opacity/color, and
// gradient shading are computed in staged per-lane loops over contiguous
// arrays, then composited sequentially (front-to-back order is inherently
// serial). The staged loops live in their own translation unit compiled
// with IFET_HOT_KERNEL_OPTIONS (-O3 -mavx2 -fno-trapping-math
// -ffp-contract=off under IFET_AVX2_KERNELS) — the FlatMlp tile idiom.
//
// Bitwise contract: every lane gets EXACTLY the doubles of the scalar
// march in render_rows, in the same per-sample order, with FP contraction
// off, so images are bitwise identical to the unskipped scalar path
// (BrickSkipEquivalence in tests/brick_index_test.cpp memcmps shaded,
// unshaded, overlay and pre-classified frames, in tier-1 and again under
// TSan). Two of those doubles are looked up rather than recomputed, each
// from a pure function of its key: a sample's shade depends only on its
// nearest voxel (given the plan's light), so the packet memoizes it per
// voxel; and a TF sample's corrected opacity depends only on its TF entry,
// so the plan holds it per entry (Raycaster::Plan::corrected).
//
// Allocation contract: the scratch is a caller-owned fixed-size struct
// (stack-local in render_rows); the kernel allocates nothing.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>

#include "render/camera.hpp"
#include "render/raycaster.hpp"
#include "util/hot_path.hpp"

namespace ifet {

/// Headlight Phong coefficients of a shaded sample, read by both marches:
/// shade = kPhongAmbient + kPhongDiffuse * |n.l| + kPhongSpecular *
/// |n.l|^kPhongSpecularPower, or kPhongAmbient + kPhongDiffuse / 2 where
/// the gradient vanishes.
inline constexpr double kPhongAmbient = 0.3;
inline constexpr double kPhongDiffuse = 0.7;
inline constexpr double kPhongSpecular = 0.25;
inline constexpr double kPhongSpecularPower = 24.0;
/// A ray stops compositing once its accumulated alpha reaches this. The
/// background is black, so the transparency a ray leaves adds nothing.
inline constexpr double kEarlyTerminationAlpha = 0.98;

/// Round half away from zero: std::lround without the libm call. Exact for
/// every finite x whose result fits a long — x - trunc(x) is the fraction
/// of x exactly, so no addition rounds a value just below a half up (as
/// floor(x + 0.5) does to 0.49999999999999994).
IFET_HOT inline long round_half_away(double x) {
  const double whole = std::trunc(x);
  const double frac = x - whole;
  const long n = static_cast<long>(whole);
  if (frac >= 0.5) return n + 1;
  if (frac <= -0.5) return n - 1;
  return n;
}

/// Caller-owned scratch of one render_rows call (~69 KB, lives on the
/// render worker's stack): the SoA lanes of one compositing run, and the
/// shade memo every run of the call shares.
struct RayPacket {
  /// Samples per run: enough rows for the staged loops to amortize and
  /// vectorize (the FlatMlp tile size), small enough to stay L1-resident.
  static constexpr int kLanes = 64;
  /// Shade memo slots, direct-mapped: 64 KiB with the keys, which keeps
  /// the packet a small share of a worker's stack.
  static constexpr int kShadeSlotBits = 12;
  static constexpr std::size_t kShadeSlots = std::size_t{1} << kShadeSlotBits;

  /// Memo slot of a voxel key (Fibonacci hash of its low 32 bits: plain
  /// `key mod kShadeSlots` would put z-neighbours of a 64^3 volume in one
  /// slot).
  IFET_HOT static std::size_t shade_slot(std::size_t key) {
    return static_cast<std::uint32_t>(key * 2654435761u) >>
           (32 - kShadeSlotBits);
  }

  double t[kLanes];                 ///< world-space ray parameter
  double vx[kLanes], vy[kLanes], vz[kLanes];  ///< continuous voxel coords
  double value[kLanes];             ///< trilinear volume samples
  double opacity[kLanes];           ///< pre-correction opacity (the a <= 0 cull)
  double corrected[kLanes];         ///< the plan's per-entry corrected opacity
  double r[kLanes], g[kLanes], b[kLanes];     ///< per-lane color
  std::uint8_t lit[kLanes];         ///< highlight-mask hits

  /// Shade memo: slot s holds the shade of linear voxel shade_key[s] - 1
  /// (0 = empty). Zeroed with the packet, once per render_rows call, so it
  /// never outlives the plan whose light it was computed under.
  std::size_t shade_key[kShadeSlots] = {};
  double shade[kShadeSlots];
};

/// Composite samples [i0, i0 + count) of one ray (positions t0 + i*dt)
/// front-to-back into (alpha, accum). Returns the number of lanes actually
/// composited: count normally, fewer when early termination fires
/// (`terminated` is then set and the remaining lanes are untouched by the
/// compositor). count must be in (0, RayPacket::kLanes]. `scratch` must
/// come from the same plan on every call (its shade memo is per plan).
IFET_HOT int composite_packet(const Raycaster::Plan& plan,
                              const RenderSettings& settings, const Ray& ray,
                              double t0, long i0, int count,
                              RayPacket& scratch, double& alpha, Rgb& accum,
                              bool& terminated);

}  // namespace ifet
