// Shared helpers for the ifet test suites.
#pragma once

#include <cmath>

#include "stream/streamed_sequence.hpp"
#include "util/rng.hpp"
#include "volume/volume.hpp"

namespace ifet::testing {

/// Sequence config with `bins` histogram bins, everything else default.
inline StreamConfig bins_config(int bins) {
  StreamConfig config;
  config.histogram_bins = bins;
  return config;
}

/// Sequence config under which load counts are exact: a budget of `steps`
/// decoded steps of `dims`, no lookahead, no window around the current
/// step, synchronous loads.
inline StreamConfig load_counting_config(Dims dims, int steps) {
  StreamConfig config;
  config.budget_bytes =
      static_cast<std::size_t>(steps) * dims.count() * sizeof(float);
  config.lookahead = 0;
  config.pin_radius = 0;
  config.async_prefetch = false;
  return config;
}

/// Volume filled with deterministic pseudo-random values in [lo, hi).
inline VolumeF random_volume(Dims dims, std::uint64_t seed, double lo = 0.0,
                             double hi = 1.0) {
  Rng rng(seed);
  VolumeF v(dims);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<float>(rng.uniform(lo, hi));
  }
  return v;
}

/// Volume with a single solid axis-aligned box of `value`.
inline VolumeF box_volume(Dims dims, Index3 lo, Index3 hi, float value,
                          float background = 0.0f) {
  VolumeF v(dims, background);
  for (int k = lo.z; k <= hi.z; ++k) {
    for (int j = lo.y; j <= hi.y; ++j) {
      for (int i = lo.x; i <= hi.x; ++i) {
        v.at(i, j, k) = value;
      }
    }
  }
  return v;
}

/// Mask with a single solid axis-aligned box.
inline Mask box_mask(Dims dims, Index3 lo, Index3 hi) {
  Mask m(dims);
  for (int k = lo.z; k <= hi.z; ++k) {
    for (int j = lo.y; j <= hi.y; ++j) {
      for (int i = lo.x; i <= hi.x; ++i) {
        m.at(i, j, k) = 1;
      }
    }
  }
  return m;
}

/// Gaussian blob volume centered at `c` (voxel coords) with sigma voxels.
inline VolumeF blob_volume(Dims dims, Vec3 c, double sigma, float peak) {
  VolumeF v(dims);
  for (int k = 0; k < dims.z; ++k) {
    for (int j = 0; j < dims.y; ++j) {
      for (int i = 0; i < dims.x; ++i) {
        double dx = i - c.x, dy = j - c.y, dz = k - c.z;
        v.at(i, j, k) = static_cast<float>(
            peak * std::exp(-(dx * dx + dy * dy + dz * dz) /
                            (2.0 * sigma * sigma)));
      }
    }
  }
  return v;
}

}  // namespace ifet::testing
