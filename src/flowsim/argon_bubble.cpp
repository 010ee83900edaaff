#include <cmath>
#include <numbers>

#include "flowsim/datasets.hpp"
#include "parallel/thread_pool.hpp"

namespace ifet {

namespace {
// Pre-drift ring amplitude: the ring band sits *inside* the value range,
// below the turbulence blobs, so its cumulative-histogram coordinate is a
// nontrivial interior point (Fig 2's circled peak).
constexpr double kRingAmplitude = 0.75;
// Ground-truth ring voxels are those within this fraction of the tube
// radius; at the corresponding Gaussian falloff the ring contribution is
// kRingAmplitude * exp(-0.6^2) ~= 0.52.
constexpr double kRingCoreFraction = 0.6;
constexpr double kTwoPi = 2.0 * std::numbers::pi;
}  // namespace

ArgonBubbleSource::ArgonBubbleSource(const ArgonBubbleConfig& config)
    : config_(config), noise_(config.seed) {
  IFET_REQUIRE(config_.num_steps > 0, "ArgonBubble: need at least one step");
  IFET_REQUIRE(config_.ring_tube_radius > 0.0,
               "ArgonBubble: tube radius must be positive");
}

double ArgonBubbleSource::torus_distance(const Vec3& p, int step) const {
  const double major =
      config_.ring_major_radius0 + config_.ring_growth * step;
  // Ring drifts slowly along +z as the shocked bubble convects downstream.
  const double zc = clamp(0.35 + 0.0004 * step, 0.0, 0.75);
  const double qx = p.x - 0.5;
  const double qy = p.y - 0.5;
  const double q = std::sqrt(qx * qx + qy * qy);
  const double dz = p.z - zc;
  const double dr = q - major;
  return std::sqrt(dr * dr + dz * dz);
}

double ArgonBubbleSource::base_value(const Vec3& p, int step) const {
  const double d = torus_distance(p, step);
  const double r = config_.ring_tube_radius;
  const double ring = kRingAmplitude * std::exp(-(d * d) / (r * r));

  // Smaller turbulence structures trail below/behind the ring; they carry
  // higher peak values than the ring so the ring is an interior band.
  const double t4 = step * 0.05;
  double turb = noise_.fbm(p.x * 6.0, p.y * 6.0, p.z * 6.0, t4, 4);
  const double zc = clamp(0.35 + 0.0004 * step, 0.0, 0.75);
  const double wake = smoothstep(zc, zc - 0.3, p.z);  // 1 below ring, 0 above
  turb = std::max(0.0, turb) * (0.6 + config_.turbulence_amplitude) * wake;

  const double ambient =
      0.08 * std::fabs(noise_.fbm(p.x * 3.0, p.y * 3.0, p.z * 3.0, 3));

  return std::max({ring, turb, ambient});
}

double ArgonBubbleSource::drift(double value, int step) const {
  // Global monotonic transform: gain oscillates slowly, offset walks up.
  // Monotonicity in `value` means the cumulative-histogram coordinate of
  // every structure is invariant under this drift — the Fig 2 property.
  const double gain = 0.8 + 0.15 * std::sin(kTwoPi * step / 240.0);
  const double offset = config_.drift_per_step * step;
  return gain * value + offset;
}

VolumeF ArgonBubbleSource::generate(int step) const {
  IFET_REQUIRE(step >= 0 && step < config_.num_steps,
               "ArgonBubble: step out of range");
  const Dims d = config_.dims;
  VolumeF out(d);
  parallel_for(0, static_cast<std::size_t>(d.z), [&](std::size_t kz) {
    int k = static_cast<int>(kz);
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        Vec3 p{(i + 0.5) / d.x, (j + 0.5) / d.y, (k + 0.5) / d.z};
        out[out.linear_index(i, j, k)] =
            static_cast<float>(drift(base_value(p, step), step));
      }
    }
  });
  return out;
}

Mask ArgonBubbleSource::feature_mask(int step) const {
  const Dims d = config_.dims;
  Mask out(d);
  const double cutoff = kRingCoreFraction * config_.ring_tube_radius;
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        Vec3 p{(i + 0.5) / d.x, (j + 0.5) / d.y, (k + 0.5) / d.z};
        out[out.linear_index(i, j, k)] =
            torus_distance(p, step) <= cutoff ? 1 : 0;
      }
    }
  }
  return out;
}

std::pair<double, double> ArgonBubbleSource::value_range() const {
  // Max base value is ~1.0 (turbulence), max gain 0.95, max offset at the
  // final step; keep a small safety margin.
  double max_offset = config_.drift_per_step * (config_.num_steps - 1);
  return {0.0, 0.95 * 1.05 + max_offset + 0.05};
}

double ArgonBubbleSource::ring_band_center(int step) const {
  const double lo =
      kRingAmplitude * std::exp(-(kRingCoreFraction * kRingCoreFraction));
  const double hi = kRingAmplitude;
  return 0.5 * (drift(lo, step) + drift(hi, step));
}

double ArgonBubbleSource::ring_band_half_width() const {
  const double lo =
      kRingAmplitude * std::exp(-(kRingCoreFraction * kRingCoreFraction));
  const double hi = kRingAmplitude;
  // Gain is at most 0.95; use the nominal gain 0.8 for the half width.
  return 0.5 * (hi - lo) * 0.95;
}

}  // namespace ifet
