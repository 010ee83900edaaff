// Section 8 reproduction: batch extraction over independent time steps.
//
// Paper: "the processing of each time step is completely independent of
// other time steps [so] it is feasible and desirable to employ a large PC
// cluster to conduct the final feature extraction ... concurrently." This
// bench runs the shared-memory batch driver over a step range and reports
// step throughput; on a many-core host wall time is a fraction of the
// per-step sum (on this single-core CI box the numbers coincide — the
// decomposition and accounting are what is exercised). The feature
// history's stages have benches here too: labeling one band-like step,
// and the history of 64 such steps and of 64 thin shells.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "core/batch.hpp"
#include "core/track_events.hpp"
#include "core/tracking.hpp"
#include "flowsim/datasets.hpp"
#include "nn/mlp.hpp"
#include "stream/streamed_sequence.hpp"
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

constexpr int kSide = 64;

/// The field behind the band-like steps: 64 x 64 x (63 + steps) voxels of
/// blurred noise, whose step t is the 64^3 window at plane t, so
/// consecutive steps overlap as a drifting feature does.
VolumeF band_like_field(int steps) {
  Rng rng(4242);
  VolumeF noise(Dims{kSide, kSide, kSide + steps - 1});
  for (std::size_t v = 0; v < noise.size(); ++v) {
    noise[v] = static_cast<float>(rng.uniform());
  }
  return gaussian_blur(noise, 1.5);
}

/// The value below which `fraction` of `field`'s voxels lie (the largest
/// value at 1).
float field_quantile(const VolumeF& field, double fraction) {
  std::vector<float> sorted(field.data().begin(), field.data().end());
  const auto rank = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(fraction * static_cast<double>(sorted.size())));
  const auto at = sorted.begin() + static_cast<std::ptrdiff_t>(rank);
  std::nth_element(sorted.begin(), at, sorted.end());
  return *at;
}

/// Steps of band_like_field set above its quantile `lo` and at most its
/// quantile `hi`. Above the 20th percentile each step is about 80% set in
/// coherent regions with holes and islands, like one step of perfbench's
/// band query.
TrackResult band_like_track(int steps, double lo = 0.2, double hi = 1.0) {
  const VolumeF field = band_like_field(steps);
  const float above = field_quantile(field, lo);
  const float below = field_quantile(field, hi);
  TrackResult track;
  for (int t = 0; t < steps; ++t) {
    Mask mask(Dims{kSide, kSide, kSide});
    const std::size_t offset = static_cast<std::size_t>(t) * kSide * kSide;
    for (std::size_t v = 0; v < mask.size(); ++v) {
      const float value = field[offset + v];
      mask[v] = value > above && value <= below ? 1 : 0;
    }
    track.masks.emplace(t, std::move(mask));
  }
  return track;
}

/// One fixed-range track over 64 steps of band_like_field, seeded at step
/// 32, through a fully resident StreamedSequence, so the bench times the
/// grow and not the field. The range is [quantile lo, quantile hi] of the
/// field. The seed is the first voxel the range accepts, or with
/// `seed_mask` every such voxel of step 32 (Tracker::track_from_mask). The
/// track's voxels per second are reported.
void run_track_bench(benchmark::State& state, double lo, double hi,
                     bool seed_mask) {
  constexpr int kSteps = 64;
  auto field = std::make_shared<const VolumeF>(band_like_field(kSteps));
  const FixedRangeCriterion criterion(field_quantile(*field, lo),
                                      field_quantile(*field, hi));
  const Dims dims{kSide, kSide, kSide};
  auto source = std::make_shared<CallbackSource>(
      dims, kSteps, std::pair<double, double>{0.0, 1.0},
      [field, dims](int step) {
        VolumeF volume(dims);
        const std::size_t offset =
            static_cast<std::size_t>(step) * kSide * kSide;
        for (std::size_t v = 0; v < volume.size(); ++v) {
          volume[v] = (*field)[offset + v];
        }
        return volume;
      });
  const StreamedSequence sequence(source);
  for (int t = 0; t < kSteps; ++t) sequence.step(t);  // all resident
  const VolumeF& seed_volume = sequence.step(kSteps / 2);
  Mask seeds(dims);
  for (std::size_t v = 0; v < seeds.size(); ++v) {
    seeds[v] = criterion.accept(kSteps / 2, seed_volume[v]) ? 1 : 0;
  }
  std::size_t seed = 0;
  while (seeds[seed] == 0) ++seed;
  const Tracker tracker(sequence, criterion);
  TrackResult track;
  for (auto _ : state) {
    track = seed_mask ? tracker.track_from_mask(seeds, kSteps / 2)
                      : tracker.track(seed_volume.coord_of(seed), kSteps / 2);
    benchmark::DoNotOptimize(track.masks.size());
  }
  std::size_t voxels = 0;
  for (const auto& [step, mask] : track.masks) voxels += mask_count(mask);
  state.counters["voxels"] = static_cast<double>(voxels);
  state.counters["mvox_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(voxels) * 1e-6,
      benchmark::Counter::kIsRate);
}

/// The band query's shape: a range keeping about 80% of every step.
void BM_TrackBand(benchmark::State& state) {
  run_track_bench(state, 0.2, 1.0, false);
}
BENCHMARK(BM_TrackBand)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The ring query's shape: a narrow range keeping about 2% of every step,
/// seeded with the whole range at step 32, as the ring queries of perfbench
/// keep a thin shell.
void BM_TrackRing(benchmark::State& state) {
  run_track_bench(state, 0.49, 0.51, true);
}
BENCHMARK(BM_TrackRing)->Unit(benchmark::kMillisecond)->UseRealTime();

/// One band-like 64^3 step labeled by its runs into reused scratch, the
/// call the feature history makes per step.
void BM_LabelComponents(benchmark::State& state) {
  const TrackResult track = band_like_track(1);
  const Mask& mask = track.masks.at(0);
  RunLabeling runs;
  for (auto _ : state) {
    const std::vector<ComponentInfo> components =
        label_runs(mask, nullptr, runs);
    benchmark::DoNotOptimize(components.data());
    benchmark::DoNotOptimize(runs.label.data());
    benchmark::ClobberMemory();
  }
  state.counters["mvox_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(mask.size()) * 1e-6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LabelComponents)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The feature history of `track`: every step labeled and every
/// consecutive pair's overlaps counted.
void run_history_bench(benchmark::State& state, const TrackResult& track) {
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

/// The feature history of 64 band-like 64^3 steps.
void BM_FeatureHistory(benchmark::State& state) {
  run_history_bench(state, band_like_track(64));
}
BENCHMARK(BM_FeatureHistory)->Unit(benchmark::kMillisecond)->UseRealTime();

/// The feature history of 64 thin shells: band_like_field's steps set
/// between its 49th and 51st percentiles, whose runs are about one voxel
/// long, the run labeling's worst case.
void BM_FeatureHistoryShell(benchmark::State& state) {
  run_history_bench(state, band_like_track(64, 0.49, 0.51));
}
BENCHMARK(BM_FeatureHistoryShell)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
