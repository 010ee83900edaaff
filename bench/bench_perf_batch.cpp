// Section 8 reproduction: batch extraction over independent time steps.
//
// Paper: "the processing of each time step is completely independent of
// other time steps [so] it is feasible and desirable to employ a large PC
// cluster to conduct the final feature extraction ... concurrently." This
// bench runs the shared-memory batch driver over a step range and reports
// step throughput; on a many-core host wall time is a fraction of the
// per-step sum (on this single-core CI box the numbers coincide — the
// decomposition and accounting are what is exercised).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "core/batch.hpp"
#include "flowsim/datasets.hpp"
#include "nn/mlp.hpp"
#include "util/rng.hpp"
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

}  // namespace

BENCHMARK_MAIN();
