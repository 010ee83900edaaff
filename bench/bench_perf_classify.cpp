// Section 7 performance reproduction: data-space classification cost.
//
// Paper: "it takes 10 seconds to classify a 256x256x256 data set" with the
// trained network, vs 6 fps rendering — i.e. whole-volume classification is
// ~two orders of magnitude more expensive than a rendered frame and is done
// once, not per frame. We measure per-voxel classification cost across
// volume sizes (linear scaling) and shell sizes (vector-width scaling), and
// time single-slice classification (the interface's interactive feedback
// path, which must be far cheaper than the full volume).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/dataspace.hpp"
#include "flowsim/datasets.hpp"

namespace {

using namespace ifet;

std::unique_ptr<DataSpaceClassifier> make_trained_classifier(
    const VolumeF& volume, int shell_samples) {
  DataSpaceConfig cfg;
  cfg.spec.shell_samples = shell_samples;
  auto clf = std::make_unique<DataSpaceClassifier>(1, 0.0, 1.0, cfg);
  std::vector<PaintedVoxel> painted;
  const Dims d = volume.dims();
  for (int s = 0; s < 200; ++s) {
    Index3 p{(s * 7) % d.x, (s * 13) % d.y, (s * 29) % d.z};
    painted.push_back({p, 0, s % 2 == 0 ? 1.0 : 0.0});
  }
  clf->add_samples(volume, 0, painted);
  clf->train(50);
  return clf;
}

/// Whole-volume classification across grid sizes (expect linear scaling in
/// voxel count; the paper's 10 s for 256^3 is this operation).
void BM_ClassifyVolume(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ReionizationConfig cfg;
  cfg.dims = Dims{n, n, n};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, 14);
  for (auto _ : state) {
    VolumeF certainty = clf->classify(volume, 0);
    benchmark::DoNotOptimize(certainty.data().data());
  }
  state.counters["voxels_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(volume.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClassifyVolume)->Arg(16)->Arg(32)->Arg(48)->Arg(64)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Scalar baseline: one Mlp forward per voxel (the pre-flat-engine path,
/// kept as classify_scalar). The ratio against BM_ClassifyVolume is the
/// speedup of the batched FlatMlp engine.
void BM_ClassifyVolumeScalar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  ReionizationConfig cfg;
  cfg.dims = Dims{n, n, n};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, 14);
  for (auto _ : state) {
    VolumeF certainty = clf->classify_scalar(volume, 0);
    benchmark::DoNotOptimize(certainty.data().data());
  }
  state.counters["voxels_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations()) *
          static_cast<double>(volume.size()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ClassifyVolumeScalar)->Arg(16)->Arg(32)->Arg(64)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

/// Shell-size ablation of the classification cost (Sec 6: fewer properties
/// -> smaller network -> faster extraction).
void BM_ClassifyShellWidth(benchmark::State& state) {
  const int shell = static_cast<int>(state.range(0));
  ReionizationConfig cfg;
  cfg.dims = Dims{32, 32, 32};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, shell);
  for (auto _ : state) {
    VolumeF certainty = clf->classify(volume, 0);
    benchmark::DoNotOptimize(certainty.data().data());
  }
}
BENCHMARK(BM_ClassifyShellWidth)->Arg(6)->Arg(14)->Arg(26)
    ->Unit(benchmark::kMillisecond);

/// Single-slice feedback (Sec 6's interactive path).
void BM_ClassifySlice(benchmark::State& state) {
  ReionizationConfig cfg;
  cfg.dims = Dims{64, 64, 64};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, 14);
  for (auto _ : state) {
    auto slice = clf->classify_slice(volume, 0, 2, 32);
    benchmark::DoNotOptimize(slice.data());
  }
}
BENCHMARK(BM_ClassifySlice)->Unit(benchmark::kMillisecond);

/// Training epoch cost on a paint-scale training set (runs in the idle
/// loop; must be interactive).
void BM_TrainEpoch(benchmark::State& state) {
  ReionizationConfig cfg;
  cfg.dims = Dims{32, 32, 32};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, 14);
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf->train(1));
  }
}
BENCHMARK(BM_TrainEpoch)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
