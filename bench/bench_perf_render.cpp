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

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string_view>
#include <thread>
#include <vector>

#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "parallel/thread_pool.hpp"
#include "render/raycaster.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/alloc_guard.hpp"
#include "util/determinism.hpp"
#include "util/timer.hpp"
#include "volume/ops.hpp"

// Counting operator new/delete for this binary so the steady-state check
// below can assert zero allocations in the ray loop (docs/STATIC_ANALYSIS.md).
IFET_ALLOC_GUARD_INSTALL();

namespace {

using namespace ifet;

struct RenderFixture {
  RenderFixture() {
    ArgonBubbleConfig cfg;
    cfg.dims = Dims{64, 64, 64};
    cfg.num_steps = 360;
    source = std::make_shared<ArgonBubbleSource>(cfg);
    // Synchronous loads: no prefetch decode may still be running (and
    // allocating) on the pool when the steady-state AllocGuard window
    // opens.
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
BENCHMARK(BM_RenderShadedWithIatfRecalc)->Arg(128)->Arg(256)
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
BENCHMARK(BM_RenderUnshaded)->Arg(128)->Unit(benchmark::kMillisecond);

/// Steady-state contract on the IFET_HOT ray loop: once a frame's Plan and
/// destination image exist, Raycaster::render_rows must march every row
/// with zero heap allocations (render() itself allocates the image and the
/// pool's task plumbing, so the check drives the row kernel directly), and
/// the row-kernel image must be bitwise identical to the render() output.
int check_render_rows_contract() {
  RenderFixture& f = fixture();
  Camera camera(0.5, 0.35, 2.4);
  ColorMap colors;
  HighlightLayer layer{f.mask.get(), f.tf.get(), Rgb{0.9, 0.05, 0.05}};

  RenderSettings shaded = settings_for(96, true);
  RenderSettings mip = settings_for(96, false);
  mip.mode = CompositingMode::kMaximumIntensity;
  struct Variant {
    const char* name;
    const RenderSettings* settings;
    const HighlightLayer* highlight;
  };
  const Variant variants[] = {
      {"front-to-back shaded", &shaded, nullptr},
      {"tracking overlay", &shaded, &layer},
      {"maximum intensity", &mip, nullptr},
  };

  for (const Variant& v : variants) {
    Raycaster caster(*v.settings);
    const ImageRgb8 pooled =
        caster.render(f.volume, *f.tf, colors, camera, v.highlight);
    const Raycaster::Plan plan =
        caster.prepare_plan(f.volume, *f.tf, colors, camera, v.highlight);
    ImageRgb8 direct(v.settings->width, v.settings->height);
    Raycaster::RenderRowCounters warm;
    caster.render_rows(plan, 0, v.settings->height, direct, warm);
    if (pooled.pixels.size() != direct.pixels.size() ||
        std::memcmp(pooled.pixels.data(), direct.pixels.data(),
                    pooled.pixels.size()) != 0) {
      std::cerr << "bench_perf_render: render_rows image for '" << v.name
                << "' is NOT bitwise identical to render()\n";
      return 1;
    }
    if (warm.samples == 0) {
      std::cerr << "bench_perf_render: '" << v.name
                << "' marched no samples; the check is vacuous\n";
      return 1;
    }
    DenyAllocScope guard;
    Raycaster::RenderRowCounters steady;
    caster.render_rows(plan, 0, v.settings->height, direct, steady);
    if (guard.allocations() != 0) {
      std::cerr << "bench_perf_render: warm render_rows for '" << v.name
                << "' performed " << guard.allocations()
                << " heap allocations (expected 0)\n";
      return 1;
    }
  }
  std::cout << "alloc check: warm Raycaster::render_rows made 0 heap "
               "allocations across 3 variants, bitwise equal to render()\n";
  return 0;
}

/// One skip-vs-scalar comparison: renders the scene with empty-space
/// skipping on and off and memcmps the images. Returns false (and prints)
/// on any pixel difference.
bool skip_matches_scalar(const RenderSettings& base, const VolumeF& volume,
                         const TransferFunction1D& tf, const ColorMap& colors,
                         const Camera& camera, const HighlightLayer* highlight,
                         const char* name, RenderStats* skip_stats = nullptr) {
  RenderSettings with = base, without = base;
  with.empty_space_skipping = true;
  without.empty_space_skipping = false;
  const ImageRgb8 skipped = Raycaster(with).render(volume, tf, colors, camera,
                                                   highlight, skip_stats);
  const ImageRgb8 scalar =
      Raycaster(without).render(volume, tf, colors, camera, highlight);
  if (skipped.pixels.size() != scalar.pixels.size() ||
      std::memcmp(skipped.pixels.data(), scalar.pixels.data(),
                  skipped.pixels.size()) != 0) {
    std::cerr << "bench_perf_render: brick-skipping image for '" << name
              << "' is NOT bitwise identical to the scalar march\n";
    return false;
  }
  return true;
}

/// Brick-skipping equivalence across all three compositing variants on the
/// 64^3 fixture (fast enough for a sanitizer stage): the SoA packet +
/// empty-space-skip path must reproduce the scalar march bit for bit.
int check_skip_equivalence() {
  RenderFixture& f = fixture();
  Camera camera(0.5, 0.35, 2.4);
  ColorMap colors;
  HighlightLayer layer{f.mask.get(), f.tf.get(), Rgb{0.9, 0.05, 0.05}};

  RenderSettings shaded = settings_for(96, true);
  RenderSettings mip = settings_for(96, false);
  mip.mode = CompositingMode::kMaximumIntensity;
  if (!skip_matches_scalar(shaded, f.volume, *f.tf, colors, camera, nullptr,
                           "front-to-back shaded") ||
      !skip_matches_scalar(shaded, f.volume, *f.tf, colors, camera, &layer,
                           "tracking overlay") ||
      !skip_matches_scalar(mip, f.volume, *f.tf, colors, camera, nullptr,
                           "maximum intensity")) {
    return 1;
  }
  std::cout << "equivalence check: empty-space skipping is bitwise equal to "
               "the scalar march across 3 variants\n";
  return 0;
}

/// Perturbed-replay check on the IFET_DETERMINISTIC render kernels
/// (util/determinism.hpp): all three compositing variants (front-to-back
/// shaded, tracking overlay, maximum intensity) must produce
/// bitwise-identical frames across pool widths {1, 4, hardware}, cold and
/// warm caches, and shuffled row-chunk submission through render_rows.
int run_replay_check() {
  RenderFixture& f = fixture();
  Camera camera(0.5, 0.35, 2.4);
  ColorMap colors;
  HighlightLayer layer{f.mask.get(), f.tf.get(), Rgb{0.9, 0.05, 0.05}};

  RenderSettings shaded = settings_for(96, true);
  RenderSettings mip = settings_for(96, false);
  mip.mode = CompositingMode::kMaximumIntensity;
  struct Variant {
    const RenderSettings* settings;
    const HighlightLayer* highlight;
  };
  const Variant variants[] = {
      {&shaded, nullptr}, {&shaded, &layer}, {&mip, nullptr}};

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  ReplayCheck check("raycaster_variants", {1, 4, hw});
  ReplayReport report = check.run([&](const ReplayTrial& trial) {
    ThreadPool::ScopedGlobalWidth width(trial.threads);
    DigestSink sink;
    for (const Variant& v : variants) {
      Raycaster caster(*v.settings);
      // Pooled frame: the global pool splits rows differently at every
      // width; the pixels must not notice.
      const ImageRgb8 pooled =
          caster.render(f.volume, *f.tf, colors, camera, v.highlight);
      sink.span(pooled.pixels.data(), pooled.pixels.size());
      // Row-kernel frame, chunks marched in a deterministic shuffle when
      // the trial asks for it: rows only write their own pixels, so the
      // visit order must be invisible.
      const Raycaster::Plan plan =
          caster.prepare_plan(f.volume, *f.tf, colors, camera, v.highlight);
      constexpr int kChunkRows = 8;
      const std::size_t chunks =
          (static_cast<std::size_t>(v.settings->height) + kChunkRows - 1) /
          kChunkRows;
      std::vector<std::size_t> order(chunks);
      std::iota(order.begin(), order.end(), std::size_t{0});
      if (trial.shuffled) order = replay_permutation(chunks, 0xCA57);
      ImageRgb8 direct(v.settings->width, v.settings->height);
      Raycaster::RenderRowCounters counters;
      for (const std::size_t c : order) {
        const int lo = static_cast<int>(c) * kChunkRows;
        const int hi = std::min(lo + kChunkRows, v.settings->height);
        caster.render_rows(plan, lo, hi, direct, counters);
      }
      sink.span(direct.pixels.data(), direct.pixels.size());
    }
    return sink.value();
  });
  std::cout << report.summary();
  return report.ok ? 0 : 1;
}

/// Median frame time over `reps` full render_step() calls against a warm
/// sequence: the product configuration, where brick metadata comes from
/// ingest (or the sequence memo), never a per-frame volume pass. Per-frame
/// TF classification IS included — it recurs every frame.
double frame_time_p50(const Raycaster& caster, const VolumeSequence& sequence,
                      const TransferFunction1D& tf, const ColorMap& colors,
                      const Camera& camera) {
  constexpr int kReps = 7;
  std::vector<double> seconds;
  seconds.reserve(kReps);
  for (int r = 0; r < kReps; ++r) {
    Stopwatch timer;
    ImageRgb8 img = caster.render_step(sequence, 0, tf, colors, camera,
                                       nullptr, nullptr,
                                       /*prefetch_next=*/false);
    benchmark::DoNotOptimize(img.pixels.data());
    seconds.push_back(timer.seconds());
  }
  std::sort(seconds.begin(), seconds.end());
  return seconds[kReps / 2];
}

/// The perf contract of the brick overhaul, on a TF-sparse 128^3 scene
/// (the argon ring occupies a thin shell, so most bricks classify empty):
/// bitwise-identical frames across all variants AND a >= 2x median
/// frame-time speedup, reported machine-readably. Nonzero exit on image
/// mismatch, like bench_perf_classify's parity gate.
int write_render_report(const char* path) {
  ArgonBubbleConfig cfg;
  cfg.dims = Dims{128, 128, 128};
  cfg.num_steps = 360;
  ArgonBubbleSource source(cfg);
  const VolumeF volume = source.generate(225);
  auto [vlo, vhi] = source.value_range();
  TransferFunction1D tf(vlo, vhi);
  const double c = source.ring_band_center(225);
  const double h = source.ring_band_half_width();
  tf.add_band(c - h, c + h, 1.0, 0.5 * h);
  const Mask mask = threshold_mask(volume, (float)(c - h), (float)(c + h));
  const ColorMap colors;
  const Camera camera(0.5, 0.35, 2.4);

  RenderSettings shaded = settings_for(128, true);
  // Half-voxel sampling: the quality setting for shaded stills. The skip
  // condition is step-size independent (bricks are clipped analytically),
  // so finer marching only grows the work the clip removes.
  shaded.step_voxels = 0.5;
  RenderSettings mip = settings_for(128, false);
  mip.mode = CompositingMode::kMaximumIntensity;
  mip.step_voxels = 0.5;
  HighlightLayer layer{&mask, &tf, Rgb{0.9, 0.05, 0.05}};
  RenderStats stats;
  if (!skip_matches_scalar(shaded, volume, tf, colors, camera, nullptr,
                           "front-to-back shaded 128^3", &stats) ||
      !skip_matches_scalar(shaded, volume, tf, colors, camera, &layer,
                           "tracking overlay 128^3") ||
      !skip_matches_scalar(mip, volume, tf, colors, camera, nullptr,
                           "maximum intensity 128^3")) {
    return 1;
  }

  // The steady-state frame loop renders through a sequence, as the session
  // layer does: the decoded step and its brick index are resident after the
  // first frame (on v2 containers the index additionally arrives from disk
  // without a payload decode), so per-frame work is classification +
  // marching — not index construction.
  auto frame_source = std::make_shared<CallbackSource>(
      cfg.dims, 1, source.value_range(),
      [&volume](int) { return volume; });
  StreamConfig frame_stream;
  frame_stream.budget_bytes = cfg.dims.count() * sizeof(float);
  StreamedSequence sequence(frame_source, frame_stream);
  RenderSettings scalar_settings = shaded;
  scalar_settings.empty_space_skipping = false;
  const Raycaster skip_caster(shaded);
  const Raycaster scalar_caster(scalar_settings);
  // One warm-up pass each (decodes the step, memoizes the brick index),
  // then the medians.
  (void)frame_time_p50(scalar_caster, sequence, tf, colors, camera);
  (void)frame_time_p50(skip_caster, sequence, tf, colors, camera);
  const double scalar_p50 =
      frame_time_p50(scalar_caster, sequence, tf, colors, camera);
  const double skip_p50 =
      frame_time_p50(skip_caster, sequence, tf, colors, camera);
  const double speedup = scalar_p50 / skip_p50;

  std::ofstream json(path);
  json << "{\n"
       << "  \"case\": \"argon_bubble_128_tf_sparse\",\n"
       << "  \"grid\": [128, 128, 128],\n"
       << "  \"image_size\": 128,\n"
       << "  \"step_voxels\": 0.5,\n"
       << "  \"frame_ms_p50_scalar\": " << scalar_p50 * 1e3 << ",\n"
       << "  \"frame_ms_p50_skip\": " << skip_p50 * 1e3 << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"skip_rate\": " << stats.skip_rate() << ",\n"
       << "  \"bricks_total\": " << stats.bricks_total << ",\n"
       << "  \"bricks_active\": " << stats.bricks_active << ",\n"
       << "  \"threads\": " << ThreadPool::global().size() << ",\n"
       << "  \"bitwise_identical\": true\n"
       << "}\n";
  std::cout << "render report: scalar " << scalar_p50 * 1e3 << " ms, skip "
            << skip_p50 * 1e3 << " ms, speedup " << speedup << "x, skip rate "
            << stats.skip_rate() << " -> " << path << "\n";
  return 0;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark run
// (skippable with --render-check-only; --equiv-check-only runs just the
// fast skip-vs-scalar parity gate, --replay-check-only just the perturbed
// determinism replay) the binary verifies the row-kernel allocation
// contract, the perturbed-replay determinism contract, and the
// empty-space-skipping bitwise contract, then writes BENCH_render.json —
// so CI gates on the hot ray loop staying heap-free, the brick path
// staying bitwise faithful, and the speedup.
int main(int argc, char** argv) {
  bool check_only = false;
  bool equiv_only = false;
  bool replay_only = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--render-check-only") {
      check_only = true;
      continue;
    }
    if (std::string_view(argv[i]) == "--equiv-check-only") {
      equiv_only = true;
      continue;
    }
    if (std::string_view(argv[i]) == "--replay-check-only") {
      replay_only = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (replay_only) return run_replay_check();
  if (equiv_only) return check_skip_equivalence();
  if (!check_only) {
    int filtered = static_cast<int>(args.size());
    benchmark::Initialize(&filtered, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered, args.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  const int rows_rc = check_render_rows_contract();
  if (rows_rc != 0) return rows_rc;
  const int replay_rc = run_replay_check();
  if (replay_rc != 0) return replay_rc;
  const int equiv_rc = check_skip_equivalence();
  if (check_only || equiv_rc != 0) return equiv_rc;
  return write_render_report("BENCH_render.json");
}
