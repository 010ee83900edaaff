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

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <span>
#include <string_view>
#include <thread>
#include <vector>

#include "core/dataspace.hpp"
#include "flowsim/datasets.hpp"
#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "util/alloc_guard.hpp"
#include "util/determinism.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

// Counting operator new/delete for this binary so the steady-state
// sections below can assert zero allocations (docs/STATIC_ANALYSIS.md).
IFET_ALLOC_GUARD_INSTALL();

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

/// Direct scalar-vs-flat comparison on the 64^3 reionization case. Verifies
/// the batched classify() is bit-comparable with the classify_scalar()
/// reference (nonzero exit on mismatch) and writes a machine-readable
/// summary with both throughputs, the speedup, and the engine parameters.
int write_classify_report(const char* path) {
  ReionizationConfig cfg;
  cfg.dims = Dims{64, 64, 64};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, 14);

  // Bit-comparability first; this also warms the FlatMlp cache so the
  // timed passes below measure steady-state throughput.
  VolumeF scalar_out = clf->classify_scalar(volume, 0);
  VolumeF flat_out = clf->classify(volume, 0);
  const bool identical =
      scalar_out.size() == flat_out.size() &&
      std::memcmp(scalar_out.data().data(), flat_out.data().data(),
                  scalar_out.size() * sizeof(float)) == 0;
  if (!identical) {
    std::cerr << "bench_perf_classify: batched classify() is NOT bitwise "
                 "identical to classify_scalar() on the 64^3 case\n";
    return 1;
  }

  const double voxels = static_cast<double>(volume.size());
  Stopwatch timer;
  VolumeF warm = clf->classify_scalar(volume, 0);
  benchmark::DoNotOptimize(warm.data().data());
  const double scalar_s = timer.seconds();

  constexpr int kFlatReps = 5;
  timer.reset();
  for (int r = 0; r < kFlatReps; ++r) {
    VolumeF out = clf->classify(volume, 0);
    benchmark::DoNotOptimize(out.data().data());
  }
  const double flat_s = timer.seconds() / kFlatReps;

  const double scalar_rate = voxels / scalar_s;
  const double flat_rate = voxels / flat_s;
  const double speedup = scalar_s / flat_s;

  std::ofstream json(path);
  json << "{\n"
       << "  \"case\": \"reionization_64\",\n"
       << "  \"voxels\": " << volume.size() << ",\n"
       << "  \"voxels_per_s_scalar\": " << scalar_rate << ",\n"
       << "  \"voxels_per_s_flat\": " << flat_rate << ",\n"
       << "  \"speedup\": " << speedup << ",\n"
       << "  \"batch_size\": " << DataSpaceClassifier::kClassifyBatchSize
       << ",\n"
       << "  \"threads\": " << ThreadPool::global().size() << ",\n"
       << "  \"bitwise_identical\": true\n"
       << "}\n";
  std::cout << "classify report: scalar " << scalar_rate << " voxels/s, flat "
            << flat_rate << " voxels/s, speedup " << speedup << "x -> " << path
            << "\n";
  return 0;
}

/// Steady-state allocation contract on the IFET_HOT inference kernel: a
/// warm FlatMlp::forward_batch with a caller-owned Scratch must touch the
/// heap zero times (the lint-side guarantee, proven at runtime by the
/// shared AllocGuard), while staying bitwise identical to Mlp::forward.
int check_steady_state_allocations() {
  Rng rng(0x90df);
  Mlp net({19, 16, 1}, rng);
  FlatMlp flat(net);
  FlatMlp::Scratch scratch;
  const int n = 6 * FlatMlp::kTileRows + 7;  // several tiles + ragged tail
  std::vector<double> in(static_cast<std::size_t>(n) * 19);
  for (double& x : in) x = rng.uniform(-1.5, 1.5);
  std::vector<double> out(static_cast<std::size_t>(n));
  flat.forward_batch(in.data(), n, out.data(), scratch);  // warm the scratch

  for (int r = 0; r < n; ++r) {
    const auto ref = net.forward(std::span<const double>(
        in.data() + static_cast<std::size_t>(r) * 19, 19));
    if (out[static_cast<std::size_t>(r)] != ref[0]) {
      std::cerr << "bench_perf_classify: forward_batch row " << r
                << " is NOT bitwise identical to Mlp::forward\n";
      return 1;
    }
  }

  ifet::DenyAllocScope guard;
  for (int pass = 0; pass < 8; ++pass) {
    flat.forward_batch(in.data(), n, out.data(), scratch);
  }
  benchmark::DoNotOptimize(out.data());
  if (guard.allocations() != 0) {
    std::cerr << "bench_perf_classify: warm forward_batch performed "
              << guard.allocations() << " heap allocations (expected 0)\n";
    return 1;
  }
  std::cout << "alloc check: warm FlatMlp::forward_batch made 0 heap "
               "allocations over 8 passes, bitwise equal to Mlp::forward\n";
  return 0;
}

/// Perturbed-replay check on the IFET_DETERMINISTIC classification
/// kernels (util/determinism.hpp): the whole-volume classify and a
/// chunked FlatMlp::forward_batch must produce bitwise-identical outputs
/// across pool widths {1, 4, hardware}, cold and warm caches, and
/// shuffled chunk submission order. This is the dynamic counterpart of
/// ifet_lint's det-* pass: the lint proves no code reachable from the
/// annotation observes an ordering source, this proves the schedule
/// cannot tell the difference either.
int run_replay_check() {
  ReionizationConfig cfg;
  cfg.dims = Dims{32, 32, 32};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  ReionizationSource source(cfg);
  VolumeF volume = source.generate(310);
  auto clf = make_trained_classifier(volume, 14);

  Rng rng(0x90df);
  Mlp net({19, 16, 1}, rng);
  FlatMlp flat(net);
  const int rows = 6 * FlatMlp::kTileRows + 7;
  std::vector<double> in(static_cast<std::size_t>(rows) * 19);
  for (double& x : in) x = rng.uniform(-1.5, 1.5);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  ReplayCheck check("flat_mlp_classify", {1, 4, hw});
  ReplayReport report = check.run([&](const ReplayTrial& trial) {
    ThreadPool::ScopedGlobalWidth width(trial.threads);
    DigestSink sink;

    // Whole-volume classify: the pool partitions voxel rows differently
    // at every width; the certainty field must not notice.
    VolumeF certainty = clf->classify(volume, 0);
    sink.span(certainty.data().data(), certainty.size());

    // Chunked forward_batch into one output buffer, chunks visited in a
    // deterministic shuffle when the trial asks for it: the batched
    // engine's per-row results must not depend on submission order.
    constexpr int kChunk = 48;
    const std::size_t chunks =
        (static_cast<std::size_t>(rows) + kChunk - 1) / kChunk;
    std::vector<std::size_t> order(chunks);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (trial.shuffled) order = replay_permutation(chunks, 0x1FE7);
    std::vector<double> out(static_cast<std::size_t>(rows));
    FlatMlp::Scratch scratch;
    for (const std::size_t c : order) {
      const std::size_t lo = c * kChunk;
      const int cnt = static_cast<int>(
          std::min<std::size_t>(kChunk, static_cast<std::size_t>(rows) - lo));
      flat.forward_batch(in.data() + lo * 19, cnt, out.data() + lo, scratch);
    }
    sink.span(out.data(), out.size());
    return sink.value();
  });
  std::cout << report.summary();
  return report.ok ? 0 : 1;
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): after the google-benchmark run
// (skippable with --classify-report-only; --alloc-check-only and
// --replay-check-only also skip the report) the binary performs the
// scalar-vs-flat parity check, the zero-allocation steady-state check,
// the perturbed-replay determinism check, and writes BENCH_classify.json,
// so CI can gate on the speedup, the bit-comparability contract, the
// hot-path allocation contract, and the determinism contract at once.
int main(int argc, char** argv) {
  bool report_only = false;
  bool alloc_check_only = false;
  bool replay_check_only = false;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--classify-report-only") {
      report_only = true;
      continue;
    }
    if (std::string_view(argv[i]) == "--alloc-check-only") {
      alloc_check_only = true;
      continue;
    }
    if (std::string_view(argv[i]) == "--replay-check-only") {
      replay_check_only = true;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (replay_check_only) return run_replay_check();
  if (!report_only && !alloc_check_only) {
    int filtered = static_cast<int>(args.size());
    benchmark::Initialize(&filtered, args.data());
    if (benchmark::ReportUnrecognizedArguments(filtered, args.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  const int alloc_rc = check_steady_state_allocations();
  if (alloc_check_only || alloc_rc != 0) return alloc_rc;
  const int replay_rc = run_replay_check();
  if (replay_rc != 0) return replay_rc;
  return write_classify_report("BENCH_classify.json");
}
