#include "render/ray_packet.hpp"

#include <cmath>

#include "volume/ops.hpp"

namespace ifet {

namespace {

/// The scalar march's shade of a sample whose nearest voxel is (i, j, k):
/// within one plan a pure function of the voxel and the light, which is
/// what lets stage 5 memoize it.
IFET_HOT inline double shade_at(const VolumeF& volume, int i, int j, int k,
                                const Vec3& light_dir) {
  const Vec3 g = gradient_at(volume, i, j, k);
  const double gn = g.norm();
  double shade = kPhongAmbient;
  if (gn > 1e-9) {
    const Vec3 normal = g / gn;
    const double ndotl = std::fabs(normal.dot(light_dir));
    shade += kPhongDiffuse * ndotl;
    // Headlight specular (view == light direction).
    const double spec = std::pow(ndotl, kPhongSpecularPower);
    shade += kPhongSpecular * spec;
  } else {
    shade += kPhongDiffuse * 0.5;
  }
  return shade;
}

/// shade_at through the packet's memo; (i, j, k) must lie in the volume.
IFET_HOT inline double memoized_shade(RayPacket& scratch,
                                      const VolumeF& volume, int i, int j,
                                      int k, const Vec3& light_dir) {
  const std::size_t key = volume.linear_index(i, j, k) + 1;
  const std::size_t slot = RayPacket::shade_slot(key);
  if (scratch.shade_key[slot] != key) {
    scratch.shade_key[slot] = key;
    scratch.shade[slot] = shade_at(volume, i, j, k, light_dir);
  }
  return scratch.shade[slot];
}

}  // namespace

// Every stage below is a restaging of the scalar march body in
// Raycaster::render_rows: same double expressions, same per-sample order
// where order matters (the sequential composite), no cross-lane math. With
// -ffp-contract=off this keeps the packet path bitwise identical to the
// scalar path on any optimization level or ISA the build selects.
IFET_HOT int composite_packet(const Raycaster::Plan& plan,
                              const RenderSettings& settings, const Ray& ray,
                              double t0, long i0, int count,
                              RayPacket& scratch, double& alpha, Rgb& accum,
                              bool& terminated) {
  const VolumeF& volume = *plan.volume;
  const TransferFunction1D& tf = *plan.tf;
  const ColorMap& colors = *plan.colors;
  const HighlightLayer* highlight = plan.highlight;
  const VolumeF* certainty = plan.certainty;
  const double dt = plan.dt;
  const double value_span = plan.value_span;
  const Vec3 light_dir = plan.light_dir;

  // Stage 1: sample positions (indexed t, never accumulated — the skip
  // jumps that produced this run land on the same grid).
  for (int l = 0; l < count; ++l) {
    const double t = t0 + static_cast<double>(i0 + l) * dt;
    const Vec3 world = ray.origin + ray.direction * t;
    const Vec3 vox = plan.to_voxel(world);
    scratch.t[l] = t;
    scratch.vx[l] = vox.x;
    scratch.vy[l] = vox.y;
    scratch.vz[l] = vox.z;
  }

  // Stage 2: gather the trilinear taps.
  for (int l = 0; l < count; ++l) {
    scratch.value[l] =
        volume.sample_inline(scratch.vx[l], scratch.vy[l], scratch.vz[l]);
  }

  // Stage 3: nearest-voxel hits in the region-growing texture.
  if (highlight != nullptr) {
    for (int l = 0; l < count; ++l) {
      const int hi_i = static_cast<int>(round_half_away(scratch.vx[l]));
      const int hi_j = static_cast<int>(round_half_away(scratch.vy[l]));
      const int hi_k = static_cast<int>(round_half_away(scratch.vz[l]));
      scratch.lit[l] = highlight->mask->clamped(hi_i, hi_j, hi_k) != 0;
    }
  }

  // Stage 4: TF opacity, its per-entry correction, and color per lane.
  for (int l = 0; l < count; ++l) {
    const double value = scratch.value[l];
    if (highlight != nullptr && scratch.lit[l] != 0) {
      const int e = highlight->tf->entry_of(value);
      scratch.opacity[l] = highlight->tf->opacity_entry(e);
      scratch.corrected[l] = plan.highlight_corrected[e];
      scratch.r[l] = highlight->color.r;
      scratch.g[l] = highlight->color.g;
      scratch.b[l] = highlight->color.b;
    } else {
      const int e = tf.entry_of(value);
      double a = tf.opacity_entry(e);
      if (certainty != nullptr) {
        a *= certainty->sample(
            Vec3{scratch.vx[l], scratch.vy[l], scratch.vz[l]});
      }
      const double norm =
          value_span > 0.0
              ? clamp((value - tf.value_lo()) / value_span, 0.0, 1.0)
              : 0.0;
      const Rgb color = colors.at(norm);
      scratch.opacity[l] = a;
      scratch.corrected[l] = plan.corrected[e];
      scratch.r[l] = color.r;
      scratch.g[l] = color.g;
      scratch.b[l] = color.b;
    }
  }

  // Stage 5: gradient shading for the visible lanes (the scalar path
  // shades only samples that survive the a <= 0 cull; pre-correction
  // opacity gates the same set), each voxel's shade computed at most once
  // per render_rows call. A nearest voxel outside the volume (a grazing
  // ray rounding to -1 or the extent) bypasses the memo: gradient_at
  // clamps its taps differently from the border voxel's, so it has no key.
  if (settings.shading) {
    const Dims dims = volume.dims();
    for (int l = 0; l < count; ++l) {
      if (scratch.opacity[l] <= 0.0) continue;
      const int gi = static_cast<int>(round_half_away(scratch.vx[l]));
      const int gj = static_cast<int>(round_half_away(scratch.vy[l]));
      const int gk = static_cast<int>(round_half_away(scratch.vz[l]));
      const double shade =
          dims.contains(gi, gj, gk)
              ? memoized_shade(scratch, volume, gi, gj, gk, light_dir)
              : shade_at(volume, gi, gj, gk, light_dir);
      scratch.r[l] *= shade;
      scratch.g[l] *= shade;
      scratch.b[l] *= shade;
    }
  }

  // Stage 6: sequential front-to-back compositing (inherently serial).
  int consumed = 0;
  for (int l = 0; l < count; ++l) {
    ++consumed;
    double a = scratch.opacity[l];
    if (a <= 0.0) continue;
    // Certainty makes a lane's opacity continuous, so it has no entry to
    // look up: those lanes keep the per-sample pow.
    const bool graded =
        certainty != nullptr && (highlight == nullptr || scratch.lit[l] == 0);
    a = graded ? 1.0 - std::pow(1.0 - a, settings.step_voxels)
               : scratch.corrected[l];
    const double w = (1.0 - alpha) * a;
    accum.r += w * scratch.r[l];
    accum.g += w * scratch.g[l];
    accum.b += w * scratch.b[l];
    alpha += w;
    if (alpha >= kEarlyTerminationAlpha) {
      terminated = true;
      break;
    }
  }
  return consumed;
}

}  // namespace ifet
