// One-dimensional transfer functions (paper Sec 4.1).
//
// A TransferFunction1D maps a scalar data value to opacity through a
// 256-entry lookup table over a fixed value range — the exact structure the
// paper's user draws per key frame and the exact structure the IATF
// synthesizes per time step. Color comes from a separate ColorMap: Sec 7
// mandates that the learning methods "only apply to the opacity, when color
// is assigned by the original data value", so color stays constant over time
// while opacity adapts.
#pragma once

#include <array>
#include <cmath>
#include <cstddef>
#include <vector>

#include "math/vec.hpp"

namespace ifet {

/// RGB color with components in [0, 1].
struct Rgb {
  double r = 0.0, g = 0.0, b = 0.0;
};

/// Piecewise-linear value -> color map (constant over time, per Sec 7).
class ColorMap {
 public:
  /// Default: blue -> cyan -> yellow -> red "heat" ramp over [0, 1].
  ColorMap();

  /// Control points as (position in [0,1], color) pairs, sorted by position.
  explicit ColorMap(std::vector<std::pair<double, Rgb>> stops);

  /// Color for a normalized position in [0, 1].
  Rgb at(double t) const;

 private:
  std::vector<std::pair<double, Rgb>> stops_;
};

class TransferFunction1D {
 public:
  static constexpr int kEntries = 256;

  /// All-transparent TF over the value range [lo, hi].
  TransferFunction1D(double value_lo, double value_hi);

  double value_lo() const { return lo_; }
  double value_hi() const { return hi_; }

  /// Data value at the center of entry `i`.
  double entry_value(int i) const;
  /// Entry index for a data value (clamped). Inline: tracking calls it
  /// per voxel.
  int entry_of(double value) const {
    const double t = (value - lo_) / (hi_ - lo_);
    const double e = std::floor(t * kEntries);
    // Clamp in double space: casting out-of-int-range doubles (notably the
    // +/-inf bounds of NaN-contaminated brick ranges) to int is undefined
    // and on x86 collapses +inf to INT_MIN, which would clamp to entry 0
    // instead of the last entry. NaN takes the !(e > 0) branch, so NaN
    // values deterministically read entry 0.
    if (!(e > 0.0)) return 0;
    if (e >= static_cast<double>(kEntries)) return kEntries - 1;
    return static_cast<int>(e);
  }

  /// Opacity of entry `i`.
  double opacity_entry(int i) const { return opacity_[static_cast<size_t>(i)]; }
  void set_opacity_entry(int i, double alpha);

  /// Opacity for a data value (nearest-entry lookup, like a 1D texture).
  double opacity(double value) const {
    return opacity_[static_cast<std::size_t>(entry_of(value))];
  }

  /// Author a trapezoid "tent": opacity ramps 0 -> peak over [v0, v1],
  /// holds over [v1, v2], ramps back to 0 over [v2, v3]. This is the shape
  /// the paper's users draw to select a value band of interest.
  void add_trapezoid(double v0, double v1, double v2, double v3, double peak);

  /// Convenience box: peak opacity inside [lo, hi], zero outside, with a
  /// small linear skirt of `skirt` values on both sides.
  void add_band(double lo, double hi, double peak, double skirt = 0.0);

  /// Multiply every entry by `s` (clamped to [0,1]).
  void scale_opacity(double s);

  /// Set of entries with opacity above `threshold`, as value intervals.
  std::vector<std::pair<double, double>> opaque_intervals(
      double threshold) const;

  /// Linear interpolation of two TFs defined over the same range — the
  /// conventional baseline the IATF is compared against in Fig 3.
  static TransferFunction1D interpolate(const TransferFunction1D& a,
                                        const TransferFunction1D& b, double t);

 private:
  double lo_, hi_;
  std::array<double, kEntries> opacity_{};
};

/// A user-authored transfer function pinned to a time step (paper: key frame).
struct KeyFrameTf {
  int step = 0;
  TransferFunction1D tf;
};

/// Ordered collection of key frames; the IATF's training source.
class KeyFrameSet {
 public:
  void add(int step, TransferFunction1D tf);

  /// Upsert: replace the TF of an existing key frame or add a new one
  /// (the user revising a key frame during the interactive loop).
  void set(int step, TransferFunction1D tf);

  /// Remove the key frame at `step`; returns false if absent.
  bool remove(int step);

  std::size_t size() const { return frames_.size(); }
  bool empty() const { return frames_.empty(); }
  const KeyFrameTf& operator[](std::size_t i) const { return frames_[i]; }
  const std::vector<KeyFrameTf>& frames() const { return frames_; }

  /// The two key frames bracketing `step` plus the interpolation parameter;
  /// clamps outside the covered range. Requires at least one frame.
  TransferFunction1D interpolate_at(int step) const;

 private:
  std::vector<KeyFrameTf> frames_;  // kept sorted by step
};

}  // namespace ifet
