// Section 8 reproduction: batch extraction over independent time steps.
//
// Paper: "the processing of each time step is completely independent of
// other time steps [so] it is feasible and desirable to employ a large PC
// cluster to conduct the final feature extraction ... concurrently." This
// bench runs the shared-memory batch driver over a step range and reports
// step throughput; on a many-core host wall time is a fraction of the
// per-step sum (on this single-core CI box the numbers coincide — the
// decomposition and accounting are what is exercised). The feature
// history's stages have benches here too: labeling one band-like step
// and the history of 64 such steps, at pool width 1 and at every core.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "core/batch.hpp"
#include "core/track_events.hpp"
#include "flowsim/datasets.hpp"
#include "nn/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "util/rng.hpp"
#include "volume/components.hpp"
#include "volume/filters.hpp"
#include "volume/ops.hpp"

namespace {

using namespace ifet;

void BM_BatchExtraction(benchmark::State& state) {
  const int steps = static_cast<int>(state.range(0));
  SwirlingFlowConfig cfg;
  cfg.dims = Dims{32, 32, 32};
  cfg.num_steps = steps;
  SwirlingFlowSource source(cfg);
  for (auto _ : state) {
    BatchReport report = run_batch_extraction(
        source, 0, steps - 1, [&](const VolumeF& v, int step) {
          float lo = static_cast<float>(source.peak_value(step) * 0.5);
          return threshold_mask(v, lo, 1.0f);
        });
    benchmark::DoNotOptimize(report.steps.data());
    state.counters["speedup_sum_over_wall"] =
        report.cpu_step_seconds / std::max(1e-9, report.wall_seconds);
  }
  state.counters["steps_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * steps,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_BatchExtraction)->Arg(4)->Arg(16)->Arg(48)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Fixed training-set fixture for the evaluate_mse micro-benchmarks: a
/// paint-scale set (hundreds of samples) on a shell-sized network.
struct MseFixture {
  Mlp net;
  std::vector<std::vector<double>> inputs;
  std::vector<std::vector<double>> targets;
};

MseFixture make_mse_fixture(int samples) {
  Rng rng(1234);
  MseFixture f;
  f.net = Mlp({19, 12, 1}, rng);
  f.inputs.reserve(samples);
  f.targets.reserve(samples);
  for (int s = 0; s < samples; ++s) {
    std::vector<double> in(19);
    for (double& x : in) x = rng.uniform(0.0, 1.0);
    f.inputs.push_back(std::move(in));
    f.targets.push_back({s % 2 == 0 ? 1.0 : 0.0});
  }
  return f;
}

/// Scratch-reusing path: Mlp::evaluate_mse keeps one ForwardState across
/// every sample in the set.
void BM_EvaluateMse(benchmark::State& state) {
  MseFixture f = make_mse_fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.net.evaluate_mse(f.inputs, f.targets));
  }
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(f.inputs.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvaluateMse)->Arg(128)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

/// Allocating baseline: the pre-scratch implementation, one full
/// activation-vector allocation chain per sample via Mlp::forward(). The
/// gap against BM_EvaluateMse is the scratch-reuse delta.
void BM_EvaluateMseAllocating(benchmark::State& state) {
  MseFixture f = make_mse_fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    double total = 0.0;
    std::size_t terms = 0;
    for (std::size_t s = 0; s < f.inputs.size(); ++s) {
      std::vector<double> out = f.net.forward(f.inputs[s]);
      for (std::size_t j = 0; j < out.size(); ++j) {
        double err = out[j] - f.targets[s][j];
        total += err * err;
        ++terms;
      }
    }
    benchmark::DoNotOptimize(total / static_cast<double>(terms));
  }
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(f.inputs.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EvaluateMseAllocating)->Arg(128)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

/// Steps of a band-like track: step t is the 64^3 window at plane t of a
/// 64 x 64 x (63 + steps) field of blurred noise, set above the field's
/// 20th percentile. So each step is about 80% set in coherent regions
/// with holes and islands, like one step of perfbench's band query, and
/// consecutive steps overlap as a drifting feature does.
TrackResult band_like_track(int steps) {
  constexpr int kSide = 64;
  Rng rng(4242);
  VolumeF noise(Dims{kSide, kSide, kSide + steps - 1});
  for (std::size_t v = 0; v < noise.size(); ++v) {
    noise[v] = static_cast<float>(rng.uniform());
  }
  const VolumeF field = gaussian_blur(noise, 1.5);
  std::vector<float> sorted(field.data().begin(), field.data().end());
  const auto fifth = sorted.begin() + std::ssize(sorted) / 5;
  std::nth_element(sorted.begin(), fifth, sorted.end());
  const float cut = *fifth;
  TrackResult track;
  for (int t = 0; t < steps; ++t) {
    Mask mask(Dims{kSide, kSide, kSide});
    const std::size_t offset = static_cast<std::size_t>(t) * kSide * kSide;
    for (std::size_t v = 0; v < mask.size(); ++v) {
      mask[v] = field[offset + v] > cut ? 1 : 0;
    }
    track.masks.emplace(t, std::move(mask));
  }
  return track;
}

/// Pool width of a labeling bench: range(0), or every core when it is 0.
std::size_t bench_width(const benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  return width != 0
             ? width
             : std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

/// One band-like 64^3 step labeled bare into reused buffers, as the
/// feature history labels each step: the slab flood on a global pool of
/// range(0) threads (0: every core).
void BM_LabelComponents(benchmark::State& state) {
  const TrackResult track = band_like_track(1);
  const Mask& mask = track.masks.at(0);
  const ThreadPool::ScopedGlobalWidth width(bench_width(state));
  Volume<std::int32_t> labels;
  LabelScratch scratch;
  for (auto _ : state) {
    const std::vector<ComponentInfo> components =
        label_components_into(mask, nullptr, labels, scratch);
    benchmark::DoNotOptimize(components.data());
    benchmark::DoNotOptimize(labels.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["mvox_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(mask.size()) * 1e-6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LabelComponents)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// The feature history of 64 band-like 64^3 steps: every step labeled and
/// every consecutive pair's overlaps counted, on a global pool of
/// range(0) threads (0: every core).
void BM_FeatureHistory(benchmark::State& state) {
  const TrackResult track = band_like_track(64);
  const ThreadPool::ScopedGlobalWidth width(bench_width(state));
  std::size_t voxels = 0;
  for (const auto& [step, mask] : track.masks) voxels += mask.size();
  for (auto _ : state) {
    const FeatureHistory history = build_feature_history(track);
    benchmark::DoNotOptimize(history.nodes.data());
  }
  state.counters["mvox_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(voxels) * 1e-6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_FeatureHistory)->Arg(1)->Arg(0)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
