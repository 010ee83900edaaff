// Shared helpers for the ifet test suites.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "math/vec.hpp"
#include "render/raycaster.hpp"
#include "server/session_manager.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/rng.hpp"
#include "volume/ops.hpp"
#include "volume/sequence.hpp"
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

/// A radius-3 blob drifting +x one voxel per step, starting at x =
/// dims.x / 4: structure for IATF synthesis, classification and tracking
/// alike. Deterministic.
inline std::shared_ptr<CallbackSource> drifting_blob_source(Dims dims,
                                                            int steps) {
  return std::make_shared<CallbackSource>(
      dims, steps, std::pair<double, double>{0.0, 1.0}, [dims](int step) {
        VolumeF v(dims);
        for (int k = 0; k < dims.z; ++k) {
          for (int j = 0; j < dims.y; ++j) {
            for (int i = 0; i < dims.x; ++i) {
              const double dx = i - (dims.x / 4 + step);
              const double dy = j - dims.y / 2;
              const double dz = k - dims.z / 2;
              const double r2 = dx * dx + dy * dy + dz * dz;
              v.at(i, j, k) =
                  static_cast<float>(clamp(1.0 - r2 / 9.0, 0.0, 1.0));
            }
          }
        }
        return v;
      });
}

/// The canonical scripted server client over drifting_blob_source(dims,
/// steps): window hint, key frame, TF training, a TF and a histogram query
/// per step, two paint strokes, classifier training, classification,
/// adaptive tracking and a render. Training is epoch-counted, so the
/// script is deterministic end to end.
inline std::vector<Command> canonical_script(Dims dims, int steps) {
  std::vector<Command> script;
  Command c;

  c.kind = CommandKind::kHintWindow;
  c.window_lo = 0;
  c.window_hi = 2;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kSetKeyFrame;
  c.step = 0;
  c.band_lo = 0.55;
  c.band_hi = 1.0;
  c.band_peak = 0.95;
  c.band_skirt = 0.05;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kTrainTf;
  c.epochs = 20;
  script.push_back(c);

  for (int s = 0; s < steps; ++s) {
    c = Command{};
    c.kind = CommandKind::kQueryTf;
    c.step = s;
    script.push_back(c);
    c.kind = CommandKind::kHistogram;
    script.push_back(c);
  }

  c = Command{};
  c.kind = CommandKind::kPaint;
  c.step = 1;
  c.stroke.axis = 2;
  c.stroke.slice = dims.z / 2;
  c.stroke.u = dims.x / 4 + 1;
  c.stroke.v = dims.y / 2;
  c.stroke.radius = 1.5;
  c.stroke.certainty = 1.0;
  script.push_back(c);

  c.stroke.u = dims.x - 1;
  c.stroke.v = dims.y - 1;
  c.stroke.radius = 1.0;
  c.stroke.certainty = 0.0;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kTrainClassifier;
  c.epochs = 10;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kClassify;
  c.step = 1;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kTrack;
  c.step = 1;
  c.seed = Index3{dims.x / 4 + 1, dims.y / 2, dims.z / 2};
  c.opacity_cut = 0.25;
  script.push_back(c);

  c = Command{};
  c.kind = CommandKind::kRender;
  c.step = 1;
  c.image_size = 24;
  script.push_back(c);

  return script;
}

/// Runs `script` alone on a fresh unlimited-budget manager over
/// drifting_blob_source(dims, steps), serially, and expects every client's
/// results to match that reference bitwise.
inline void expect_match_isolated(
    Dims dims, int steps, const std::vector<Command>& script,
    const std::vector<std::vector<ServerResult>>& clients) {
  SessionManagerConfig iso_config;  // budget 0 = fully resident
  SessionManager manager(drifting_blob_source(dims, steps), iso_config);
  const int id = manager.create_session();
  for (std::size_t i = 0; i < script.size(); ++i) {
    const ServerResult reference = manager.execute(id, script[i]);
    EXPECT_TRUE(reference.ok) << "command " << i << ": " << reference.error;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      SCOPED_TRACE("client " + std::to_string(c) + " command " +
                   std::to_string(i));
      EXPECT_TRUE(clients[c][i].ok) << clients[c][i].error;
      EXPECT_EQ(clients[c][i].digest, reference.digest);
      EXPECT_EQ(clients[c][i].value, reference.value);
    }
  }
}

/// One variant of a render check.
struct RenderVariant {
  const char* name;
  RenderSettings settings;
  const HighlightLayer* highlight;     ///< Null: no tracking overlay.
  const VolumeF* certainty = nullptr;  ///< Non-null: render_classified.
};

/// The 64^3 argon-bubble scene of the render contracts: step 225 of the
/// 360-step sequence, the TF an IATF trained on ring-band key frames at
/// steps 195 and 255 synthesizes for it, and the step-255 band as the
/// tracked-feature mask. Its IATF TF has no zero entry, so every brick
/// stays active.
struct ArgonRenderScene {
  ArgonRenderScene() = default;
  // `overlay` points at this object's own mask and tf.
  ArgonRenderScene(const ArgonRenderScene&) = delete;
  ArgonRenderScene& operator=(const ArgonRenderScene&) = delete;

  VolumeF volume;
  TransferFunction1D tf{0.0, 1.0};
  Mask mask;
  HighlightLayer overlay;
  Camera camera{0.5, 0.35, 2.4};
  ColorMap colors;

  /// Shaded, the same with the tracking overlay, and unshaded, all at
  /// 96^2.
  std::vector<RenderVariant> variants() const {
    RenderSettings shaded;
    shaded.width = 96;
    shaded.height = 96;
    RenderSettings unshaded = shaded;
    unshaded.shading = false;
    return {{"front-to-back shaded", shaded, nullptr},
            {"tracking overlay", shaded, &overlay},
            {"front-to-back unshaded", unshaded, nullptr}};
  }
};

/// Built once per test binary.
inline const ArgonRenderScene& argon_render_scene() {
  static const std::unique_ptr<ArgonRenderScene> scene = [] {
    ArgonBubbleConfig cfg;
    cfg.dims = Dims{64, 64, 64};
    cfg.num_steps = 360;
    auto source = std::make_shared<ArgonBubbleSource>(cfg);
    // Only the key frames and step 225 are ever read: no lookahead, so no
    // neighbouring step is generated.
    StreamConfig stream;
    stream.budget_bytes = 4 * cfg.dims.count() * sizeof(float);
    stream.lookahead = 0;
    stream.async_prefetch = false;
    StreamedSequence sequence(source, stream);

    auto [vlo, vhi] = sequence.value_range();
    const double h = source->ring_band_half_width();
    Iatf iatf(sequence);
    for (int key_step : {195, 255}) {
      const double c = source->ring_band_center(key_step);
      TransferFunction1D key(vlo, vhi);
      key.add_band(c - h, c + h, 1.0, 0.5 * h);
      iatf.add_key_frame(key_step, key);
    }
    iatf.train(300);

    auto s = std::make_unique<ArgonRenderScene>();
    s->tf = iatf.evaluate(225);
    s->volume = sequence.step(225);  // resident since evaluate()
    const double c = source->ring_band_center(255);
    s->mask = threshold_mask(s->volume, static_cast<float>(c - h),
                             static_cast<float>(c + h));
    s->overlay = HighlightLayer{&s->mask, &s->tf, Rgb{0.9, 0.05, 0.05}};
    return s;
  }();
  return *scene;
}

}  // namespace ifet::testing
