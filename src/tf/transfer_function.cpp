#include "tf/transfer_function.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace ifet {

ColorMap::ColorMap()
    : ColorMap({{0.0, Rgb{0.05, 0.05, 0.6}},
                {0.35, Rgb{0.0, 0.8, 0.9}},
                {0.65, Rgb{0.95, 0.9, 0.1}},
                {1.0, Rgb{0.9, 0.1, 0.05}}}) {}

ColorMap::ColorMap(std::vector<std::pair<double, Rgb>> stops)
    : stops_(std::move(stops)) {
  IFET_REQUIRE(!stops_.empty(), "ColorMap requires at least one stop");
  IFET_REQUIRE(std::is_sorted(stops_.begin(), stops_.end(),
                              [](const auto& a, const auto& b) {
                                return a.first < b.first;
                              }),
               "ColorMap stops must be sorted by position");
}

Rgb ColorMap::at(double t) const {
  t = clamp(t, 0.0, 1.0);
  if (t <= stops_.front().first) return stops_.front().second;
  if (t >= stops_.back().first) return stops_.back().second;
  for (std::size_t i = 1; i < stops_.size(); ++i) {
    if (t <= stops_[i].first) {
      double span = stops_[i].first - stops_[i - 1].first;
      double u = span > 0.0 ? (t - stops_[i - 1].first) / span : 0.0;
      const Rgb& a = stops_[i - 1].second;
      const Rgb& b = stops_[i].second;
      return Rgb{lerp(a.r, b.r, u), lerp(a.g, b.g, u), lerp(a.b, b.b, u)};
    }
  }
  return stops_.back().second;
}

TransferFunction1D::TransferFunction1D(double value_lo, double value_hi)
    : lo_(value_lo), hi_(value_hi) {
  IFET_REQUIRE(value_hi > value_lo,
               "TransferFunction1D requires hi > lo value range");
}

double TransferFunction1D::entry_value(int i) const {
  IFET_REQUIRE(i >= 0 && i < kEntries, "entry_value: index out of range");
  return lo_ + (i + 0.5) * (hi_ - lo_) / kEntries;
}

void TransferFunction1D::set_opacity_entry(int i, double alpha) {
  IFET_REQUIRE(i >= 0 && i < kEntries, "set_opacity_entry: index range");
  opacity_[static_cast<std::size_t>(i)] = clamp(alpha, 0.0, 1.0);
}

void TransferFunction1D::add_trapezoid(double v0, double v1, double v2,
                                       double v3, double peak) {
  IFET_REQUIRE(v0 <= v1 && v1 <= v2 && v2 <= v3,
               "add_trapezoid: corners must be ordered");
  for (int i = 0; i < kEntries; ++i) {
    double v = entry_value(i);
    double a = 0.0;
    if (v >= v0 && v <= v3) {
      if (v < v1) {
        a = v1 > v0 ? peak * (v - v0) / (v1 - v0) : peak;
      } else if (v <= v2) {
        a = peak;
      } else {
        a = v3 > v2 ? peak * (v3 - v) / (v3 - v2) : peak;
      }
    }
    if (a > opacity_[static_cast<std::size_t>(i)]) {
      opacity_[static_cast<std::size_t>(i)] = clamp(a, 0.0, 1.0);
    }
  }
}

void TransferFunction1D::add_band(double lo, double hi, double peak,
                                  double skirt) {
  add_trapezoid(lo - skirt, lo, hi, hi + skirt, peak);
}

void TransferFunction1D::scale_opacity(double s) {
  for (auto& a : opacity_) a = clamp(a * s, 0.0, 1.0);
}

std::vector<std::pair<double, double>> TransferFunction1D::opaque_intervals(
    double threshold) const {
  std::vector<std::pair<double, double>> intervals;
  int start = -1;
  for (int i = 0; i < kEntries; ++i) {
    bool on = opacity_[static_cast<std::size_t>(i)] > threshold;
    if (on && start < 0) start = i;
    if ((!on || i == kEntries - 1) && start >= 0) {
      int end = on ? i : i - 1;
      intervals.emplace_back(entry_value(start), entry_value(end));
      start = -1;
    }
  }
  return intervals;
}

TransferFunction1D TransferFunction1D::interpolate(
    const TransferFunction1D& a, const TransferFunction1D& b, double t) {
  IFET_REQUIRE(a.value_lo() == b.value_lo() && a.value_hi() == b.value_hi(),
               "TF interpolation requires matching value ranges");
  TransferFunction1D out(a.value_lo(), a.value_hi());
  for (int i = 0; i < kEntries; ++i) {
    out.set_opacity_entry(i,
                          lerp(a.opacity_entry(i), b.opacity_entry(i), t));
  }
  return out;
}

void KeyFrameSet::add(int step, TransferFunction1D tf) {
  if (!frames_.empty()) {
    IFET_REQUIRE(tf.value_lo() == frames_.front().tf.value_lo() &&
                     tf.value_hi() == frames_.front().tf.value_hi(),
                 "KeyFrameSet: all key frames must share a value range");
    for (const auto& f : frames_) {
      IFET_REQUIRE(f.step != step, "KeyFrameSet: duplicate key frame step");
    }
  }
  frames_.push_back(KeyFrameTf{step, std::move(tf)});
  std::sort(frames_.begin(), frames_.end(),
            [](const KeyFrameTf& x, const KeyFrameTf& y) {
              return x.step < y.step;
            });
}

void KeyFrameSet::set(int step, TransferFunction1D tf) {
  for (auto& frame : frames_) {
    if (frame.step == step) {
      IFET_REQUIRE(tf.value_lo() == frame.tf.value_lo() &&
                       tf.value_hi() == frame.tf.value_hi(),
                   "KeyFrameSet::set: value range mismatch");
      frame.tf = std::move(tf);
      return;
    }
  }
  add(step, std::move(tf));
}

bool KeyFrameSet::remove(int step) {
  for (auto it = frames_.begin(); it != frames_.end(); ++it) {
    if (it->step == step) {
      frames_.erase(it);
      return true;
    }
  }
  return false;
}

TransferFunction1D KeyFrameSet::interpolate_at(int step) const {
  IFET_REQUIRE(!frames_.empty(), "KeyFrameSet::interpolate_at: no frames");
  if (step <= frames_.front().step) return frames_.front().tf;
  if (step >= frames_.back().step) return frames_.back().tf;
  for (std::size_t i = 1; i < frames_.size(); ++i) {
    if (step <= frames_[i].step) {
      double span = frames_[i].step - frames_[i - 1].step;
      double t = span > 0.0 ? (step - frames_[i - 1].step) / span : 0.0;
      return TransferFunction1D::interpolate(frames_[i - 1].tf, frames_[i].tf,
                                             t);
    }
  }
  return frames_.back().tf;
}

}  // namespace ifet
