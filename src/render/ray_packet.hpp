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
// Bitwise contract: every lane evaluates EXACTLY the double expressions of
// the scalar march in render_rows, in the same per-sample order, with FP
// contraction off, so images are bitwise identical to the unskipped scalar
// path (BrickSkipEquivalence in tests/brick_index_test.cpp memcmps all
// compositing modes, in tier-1 and again under TSan).
//
// Allocation contract: the scratch is a caller-owned fixed-size POD
// (stack-local in render_rows); the kernel allocates nothing.
#pragma once

#include <cstdint>

#include "render/camera.hpp"
#include "render/raycaster.hpp"

namespace ifet {

/// Caller-owned SoA scratch for one compositing run (~5 KB, lives on the
/// render worker's stack).
struct RayPacket {
  /// Samples per run: enough rows for the staged loops to amortize and
  /// vectorize (the FlatMlp tile size), small enough to stay L1-resident.
  static constexpr int kLanes = 64;

  double t[kLanes];                 ///< world-space ray parameter
  double vx[kLanes], vy[kLanes], vz[kLanes];  ///< continuous voxel coords
  double value[kLanes];             ///< trilinear volume samples
  double opacity[kLanes];           ///< pre-correction TF opacity
  double r[kLanes], g[kLanes], b[kLanes];     ///< per-lane color
  std::uint8_t lit[kLanes];         ///< highlight-mask hits
};

/// Composite samples [i0, i0 + count) of one ray (positions t0 + i*dt)
/// front-to-back into (alpha, accum). Returns the number of lanes actually
/// composited: count normally, fewer when early termination fires
/// (`terminated` is then set and the remaining lanes are untouched by the
/// compositor). count must be in (0, RayPacket::kLanes].
IFET_HOT int composite_packet(const Raycaster::Plan& plan,
                              const RenderSettings& settings, const Ray& ray,
                              double t0, long i0, int count,
                              RayPacket& scratch, double& alpha, Rgb& accum,
                              bool& terminated);

}  // namespace ifet
