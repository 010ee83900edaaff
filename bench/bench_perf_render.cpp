// Section 7 performance reproduction: rendering rates.
//
// Paper (GeForce 6800 GT): 6 fps for a 256^3 volume into a 512^2 window
// with the adaptive transfer function recalculated every frame and shading
// on; 4 fps when the tracked feature is rendered on top (multi-pass).
//
// Our renderer is a CPU ray caster, so absolute fps differ; what must
// reproduce is the *structure* of the costs: per-frame IATF recalculation
// is negligible next to the rendering itself, and the highlight overlay
// costs a modest constant factor (paper: 6 -> 4 fps, i.e. 1.5x).
#include <benchmark/benchmark.h>

#include <memory>

#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "render/raycaster.hpp"
#include "stream/streamed_sequence.hpp"
#include "volume/ops.hpp"

namespace {

using namespace ifet;

struct RenderFixture {
  RenderFixture() {
    ArgonBubbleConfig cfg;
    cfg.dims = Dims{64, 64, 64};
    cfg.num_steps = 360;
    source = std::make_shared<ArgonBubbleSource>(cfg);
    // Synchronous loads: no prefetch decode competes with the timed
    // frames for the pool.
    StreamConfig stream;
    stream.budget_bytes = 4 * cfg.dims.count() * sizeof(float);
    stream.async_prefetch = false;
    sequence = std::make_unique<StreamedSequence>(source, stream);
    volume = source->generate(225);

    auto [vlo, vhi] = sequence->value_range();
    TransferFunction1D key(vlo, vhi);
    double c = source->ring_band_center(195);
    double h = source->ring_band_half_width();
    key.add_band(c - h, c + h, 1.0, 0.5 * h);
    iatf = std::make_unique<Iatf>(*sequence);
    iatf->add_key_frame(195, key);
    TransferFunction1D key2(vlo, vhi);
    c = source->ring_band_center(255);
    key2.add_band(c - h, c + h, 1.0, 0.5 * h);
    iatf->add_key_frame(255, key2);
    iatf->train(300);

    tf = std::make_unique<TransferFunction1D>(iatf->evaluate(225));
    mask = std::make_unique<Mask>(threshold_mask(volume, (float)(c - h),
                                                 (float)(c + h)));
  }

  std::shared_ptr<ArgonBubbleSource> source;
  std::unique_ptr<VolumeSequence> sequence;
  VolumeF volume;
  std::unique_ptr<Iatf> iatf;
  std::unique_ptr<TransferFunction1D> tf;
  std::unique_ptr<Mask> mask;
};

RenderFixture& fixture() {
  static RenderFixture f;
  return f;
}

RenderSettings settings_for(int image_size, bool shading) {
  RenderSettings s;
  s.width = image_size;
  s.height = image_size;
  s.shading = shading;
  return s;
}

/// Paper Sec 7 paragraph 2: shaded rendering, IATF recalculated per frame.
void BM_RenderShadedWithIatfRecalc(benchmark::State& state) {
  RenderFixture& f = fixture();
  const int size = static_cast<int>(state.range(0));
  Raycaster caster(settings_for(size, true));
  Camera camera(0.5, 0.35, 2.4);
  for (auto _ : state) {
    TransferFunction1D frame_tf = f.iatf->evaluate(225);  // per frame!
    ImageRgb8 img =
        caster.render(f.volume, frame_tf, ColorMap(), camera);
    benchmark::DoNotOptimize(img.pixels.data());
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RenderShadedWithIatfRecalc)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The same frame without the per-frame IATF evaluation: the difference is
/// the cost of the paper's "adaptive transfer function recalculated every
/// frame" — which must be negligible.
void BM_RenderShadedStaticTf(benchmark::State& state) {
  RenderFixture& f = fixture();
  const int size = static_cast<int>(state.range(0));
  Raycaster caster(settings_for(size, true));
  Camera camera(0.5, 0.35, 2.4);
  for (auto _ : state) {
    ImageRgb8 img = caster.render(f.volume, *f.tf, ColorMap(), camera);
    benchmark::DoNotOptimize(img.pixels.data());
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RenderShadedStaticTf)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Paper Sec 7 paragraph 3: the feature-tracking overlay pass (region-
/// growing texture consulted per sample, tracked voxels drawn red).
void BM_RenderWithTrackingOverlay(benchmark::State& state) {
  RenderFixture& f = fixture();
  const int size = static_cast<int>(state.range(0));
  Raycaster caster(settings_for(size, true));
  Camera camera(0.5, 0.35, 2.4);
  HighlightLayer layer{f.mask.get(), f.tf.get(), Rgb{0.9, 0.05, 0.05}};
  for (auto _ : state) {
    ImageRgb8 img =
        caster.render(f.volume, *f.tf, ColorMap(), camera, &layer);
    benchmark::DoNotOptimize(img.pixels.data());
  }
  state.counters["fps"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_RenderWithTrackingOverlay)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// IATF evaluation alone (the "sub-seconds per step" claim of Sec 5):
/// synthesizing the 256-entry TF for a step whose cumulative histogram is
/// resident. Cycles over a working set that fits the sequence cache so the
/// measurement isolates network evaluation, not volume regeneration.
void BM_IatfEvaluatePerStep(benchmark::State& state) {
  RenderFixture& f = fixture();
  const int steps[] = {195, 225, 255};
  // Warm the cumulative-histogram cache.
  for (int s : steps) f.iatf->evaluate(s);
  int i = 0;
  for (auto _ : state) {
    TransferFunction1D tf = f.iatf->evaluate(steps[i]);
    benchmark::DoNotOptimize(tf.opacity_entry(0));
    i = (i + 1) % 3;
  }
}
BENCHMARK(BM_IatfEvaluatePerStep)->Unit(benchmark::kMicrosecond);

/// Unshaded rendering, for the shading-cost factor.
void BM_RenderUnshaded(benchmark::State& state) {
  RenderFixture& f = fixture();
  const int size = static_cast<int>(state.range(0));
  Raycaster caster(settings_for(size, false));
  Camera camera(0.5, 0.35, 2.4);
  for (auto _ : state) {
    ImageRgb8 img = caster.render(f.volume, *f.tf, ColorMap(), camera);
    benchmark::DoNotOptimize(img.pixels.data());
  }
}
BENCHMARK(BM_RenderUnshaded)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// TF-sparse 128^3 scene: a TF band over the argon ring, a thin shell, so
/// most bricks classify empty. Served as a one-step sequence, as the
/// session layer renders: after the warm-up frame the decoded step and its
/// brick index stay resident, so a frame costs TF classification plus
/// marching, never index construction.
struct TfSparseFixture {
  TfSparseFixture() {
    ArgonBubbleConfig cfg;
    cfg.dims = Dims{128, 128, 128};
    cfg.num_steps = 360;
    const ArgonBubbleSource source(cfg);
    auto volume = std::make_shared<const VolumeF>(source.generate(225));
    auto [vlo, vhi] = source.value_range();
    tf = std::make_unique<TransferFunction1D>(vlo, vhi);
    const double c = source.ring_band_center(225);
    const double h = source.ring_band_half_width();
    tf->add_band(c - h, c + h, 1.0, 0.5 * h);
    StreamConfig stream;
    stream.budget_bytes = cfg.dims.count() * sizeof(float);
    sequence = std::make_unique<StreamedSequence>(
        std::make_shared<CallbackSource>(
            cfg.dims, 1, source.value_range(),
            [volume](int) { return *volume; }),
        stream);
  }

  std::unique_ptr<TransferFunction1D> tf;
  std::unique_ptr<StreamedSequence> sequence;
};

/// Empty-space skipping off (0) and on (1) through render_step on the
/// TF-sparse scene, shaded at half-voxel steps (the quality setting for
/// stills; bricks are clipped analytically, so finer marching only grows
/// the work skipping removes). The ratio of the pair is the skipping
/// speedup; tests/brick_index_test.cpp proves the frames bitwise equal.
void BM_RenderStepTfSparse128(benchmark::State& state) {
  static const TfSparseFixture f;
  RenderSettings settings = settings_for(128, true);
  settings.step_voxels = 0.5;
  settings.empty_space_skipping = state.range(0) != 0;
  const Raycaster caster(settings);
  const ColorMap colors;
  const Camera camera(0.5, 0.35, 2.4);
  RenderStats stats;
  // Warm-up: decodes the step and memoizes its brick index.
  (void)caster.render_step(*f.sequence, 0, *f.tf, colors, camera, nullptr,
                           &stats, /*prefetch_next=*/false);
  for (auto _ : state) {
    ImageRgb8 img = caster.render_step(*f.sequence, 0, *f.tf, colors, camera,
                                       nullptr, nullptr,
                                       /*prefetch_next=*/false);
    benchmark::DoNotOptimize(img.pixels.data());
    benchmark::ClobberMemory();
  }
  state.counters["skip_rate"] = stats.skip_rate();
}
BENCHMARK(BM_RenderStepTfSparse128)->Arg(0)->Arg(1)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
