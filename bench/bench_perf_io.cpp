// Sec 7 future-work reproduction: compressed streaming vs raw volume I/O.
//
// "a more interesting and helpful capability is fast data decompression ...
// since one potential bottleneck for large data sets is the need to
// transmit data between the disk and the video memory."
// We stream argon-bubble steps from disk both ways and measure bytes moved
// and end-to-end step latency; the quantized+RLE format moves a fraction
// of the bytes at a bounded reconstruction error.
#include <benchmark/benchmark.h>
#include <sys/resource.h>

#include <cstdio>
#include <memory>

#include "flowsim/datasets.hpp"
#include "io/compressed.hpp"
#include "io/volume_io.hpp"
#include "stream/volume_store.hpp"
#include "util/timer.hpp"

namespace {

using namespace ifet;

struct IoFixture {
  IoFixture() {
    ArgonBubbleConfig cfg;
    cfg.dims = Dims{64, 64, 64};
    cfg.num_steps = 8;
    ArgonBubbleSource source(cfg);
    raw_paths.reserve(8);
    for (int s = 0; s < 8; ++s) {
      VolumeF v = source.generate(s);
      std::string path = "/tmp/ifet_bench_raw_" + std::to_string(s) + ".vol";
      write_vol(v, path);
      raw_paths.push_back(path);
      raw_bytes += v.size() * sizeof(float);
    }
    compressed_path = "/tmp/ifet_bench_seq.cvol";
    write_compressed_sequence(source, compressed_path);
    reader = std::make_shared<CompressedFileSource>(compressed_path);
    compressed_bytes = reader->total_payload_bytes();
  }

  ~IoFixture() {
    for (const auto& p : raw_paths) std::remove(p.c_str());
    std::remove(compressed_path.c_str());
  }

  std::vector<std::string> raw_paths;
  std::string compressed_path;
  std::shared_ptr<CompressedFileSource> reader;
  std::size_t raw_bytes = 0;
  std::size_t compressed_bytes = 0;
};

IoFixture& fixture() {
  static IoFixture f;
  return f;
}

void BM_ReadRawStep(benchmark::State& state) {
  IoFixture& f = fixture();
  int s = 0;
  for (auto _ : state) {
    VolumeF v = read_vol(f.raw_paths[static_cast<std::size_t>(s)]);
    benchmark::DoNotOptimize(v.data().data());
    s = (s + 1) % 8;
  }
  state.counters["bytes_per_step"] =
      static_cast<double>(f.raw_bytes) / 8.0;
}
BENCHMARK(BM_ReadRawStep)->Unit(benchmark::kMillisecond);

void BM_ReadCompressedStep(benchmark::State& state) {
  IoFixture& f = fixture();
  int s = 0;
  for (auto _ : state) {
    VolumeF v = f.reader->generate(s);
    benchmark::DoNotOptimize(v.data().data());
    s = (s + 1) % 8;
  }
  state.counters["bytes_per_step"] =
      static_cast<double>(f.compressed_bytes) / 8.0;
  state.counters["compression_x"] =
      static_cast<double>(f.raw_bytes) /
      static_cast<double>(f.compressed_bytes);
}
BENCHMARK(BM_ReadCompressedStep)->Unit(benchmark::kMillisecond);

void BM_CompressStep(benchmark::State& state) {
  ArgonBubbleConfig cfg;
  cfg.dims = Dims{64, 64, 64};
  cfg.num_steps = 8;
  ArgonBubbleSource source(cfg);
  VolumeF v = source.generate(4);
  for (auto _ : state) {
    CompressedVolume c = compress_volume(v);
    benchmark::DoNotOptimize(c.payload.data());
  }
}
BENCHMARK(BM_CompressStep)->Unit(benchmark::kMillisecond);

// Sequential scan through the byte-budgeted VolumeStore: steps decode
// ahead of the consumer on the thread pool, so the per-step latency the
// caller sees is the cache-hit path most of the time.
void BM_StreamedStep(benchmark::State& state) {
  IoFixture& f = fixture();
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 3 * 64 * 64 * 64 * sizeof(float);  // 3 of 8 steps
  cfg.lookahead = 2;
  VolumeStore store(f.reader, cfg);
  int s = 0;
  for (auto _ : state) {
    auto v = store.fetch(s);
    benchmark::DoNotOptimize(v->data().data());
    s = (s + 1) % 8;
  }
  const StreamStats stats = store.stats();
  state.counters["evictions"] = static_cast<double>(stats.evictions);
  state.counters["prefetch_hit_rate"] = stats.prefetch_hit_rate();
}
BENCHMARK(BM_StreamedStep)->Unit(benchmark::kMillisecond);

long minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

// Loads through the store under a 2-step budget with synchronous
// lookahead: each fetch decodes the next step on this thread and evicts
// the step two behind, whose buffer the load after it decodes into. Run
// with MALLOC_MMAP_THRESHOLD_=131072 (perfbench's setting), under which a
// fresh step buffer is a fresh mapping that faults on first touch.
void BM_StoreLoadRecycled(benchmark::State& state) {
  IoFixture& f = fixture();
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 2 * 64 * 64 * 64 * sizeof(float);
  cfg.lookahead = 1;
  cfg.async_prefetch = false;
  VolumeStore store(f.reader, cfg);
  for (int s = 0; s < 8; ++s) (void)store.fetch(s);  // warm-up
  const std::size_t loads_before = store.load_count();
  const std::uint64_t recycled_before = store.stats().recycled_loads;
  const long faults_before = minor_faults();
  Stopwatch watch;
  int s = 0;
  for (auto _ : state) {
    auto v = store.fetch(s);
    benchmark::DoNotOptimize(v->data().data());
    s = (s + 1) % 8;
  }
  const double seconds = watch.seconds();
  const auto loads =
      static_cast<double>(store.load_count() - loads_before);
  state.counters["ms_per_load"] = loads > 0 ? seconds * 1e3 / loads : 0.0;
  state.counters["faults_per_load"] =
      loads > 0 ? static_cast<double>(minor_faults() - faults_before) / loads
                : 0.0;
  state.counters["recycled_frac"] =
      loads > 0 ? static_cast<double>(store.stats().recycled_loads -
                                      recycled_before) /
                      loads
                : 0.0;
}
BENCHMARK(BM_StoreLoadRecycled)->Unit(benchmark::kMillisecond);

void BM_DecompressStep(benchmark::State& state) {
  ArgonBubbleConfig cfg;
  cfg.dims = Dims{64, 64, 64};
  cfg.num_steps = 8;
  ArgonBubbleSource source(cfg);
  CompressedVolume c = compress_volume(source.generate(4));
  for (auto _ : state) {
    VolumeF v = decompress_volume(c);
    benchmark::DoNotOptimize(v.data().data());
  }
}
BENCHMARK(BM_DecompressStep)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
