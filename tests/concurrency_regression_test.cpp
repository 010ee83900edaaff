// Regression tests for the lock-held-while-calling-out defects fixed in
// the concurrency static-analysis PR (docs/STATIC_ANALYSIS.md).
//
// Each test pins a call-out contract: user code (a VolumeSource loader, a
// DerivedCache compute callback, an Mlp weight snapshot) must run with the
// owning class's mutex RELEASED. Before the fixes these were
// self-deadlocks waiting for the right re-entrant caller; with std::mutex
// a regression hangs the suite, and in checked builds (asan-ubsan / tsan
// presets) the OrderedMutex re-entry validator turns the hang into an
// immediate ifet::Error — so these tests fail loudly either way.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "stream/derived_cache.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/rng.hpp"

namespace ifet {
namespace {

constexpr Dims kDims{4, 4, 4};

VolumeF step_volume(int step) {
  VolumeF v(kDims);
  v.fill(static_cast<float>(step) / 100.0f);
  return v;
}

// StreamedSequence::step() used to pin the window (and, in synchronous-
// prefetch mode, run the full decode of every window step) while holding
// the window mutex. A loader that touches the sequence — here via
// hint_window, the pattern of a source that logs progress through the
// owning pipeline — then re-enters the held mutex and deadlocks. The fix
// moved pinning after the unlock; this test drives exactly that loader.
TEST(ConcurrencyRegressionTest, SyncPrefetchLoaderMayReenterSequence) {
  StreamedSequence* seq_handle = nullptr;
  std::atomic<bool> reentered{false};
  auto source = std::make_shared<CallbackSource>(
      kDims, 6, std::pair<double, double>{0.0, 1.0}, [&](int step) {
        if (seq_handle != nullptr &&
            !reentered.exchange(true)) {  // re-enter exactly once
          seq_handle->hint_window(step, step);
        }
        return step_volume(step);
      });
  StreamConfig config;
  config.async_prefetch = false;  // decodes run on the calling thread
  config.lookahead = 1;
  config.pin_radius = 1;
  StreamedSequence seq(source, config);
  seq_handle = &seq;

  const VolumeF& v = seq.step(2);
  EXPECT_TRUE(reentered.load());
  EXPECT_FLOAT_EQ(v.at(0, 0, 0), 0.02f);
  // The re-entrant hint_window survived; windowed access still works.
  seq.hint_window(1, 3);
  EXPECT_FLOAT_EQ(seq.step(3).at(0, 0, 0), 0.03f);
}

// DerivedCache::get_or_compute used to run `compute` under the memo-map
// mutex. Synthesis of one derived product routinely consults another (an
// IATF transfer function reads the step's cumulative histogram through
// the same cache), which re-enters the mutex. The fix computes outside
// the lock; both products must land in the cache.
TEST(ConcurrencyRegressionTest, DerivedCacheComputeMayReenterCache) {
  StreamCounters counters;
  DerivedCache cache(counters);
  const VolumeF volume = step_volume(42);
  const std::uint64_t params = 7;

  auto hist = cache.histogram(0, params, [&] {
    auto cum = cache.cumulative_histogram(0, params, [&] {
      return CumulativeHistogram(Histogram::of(volume, 16, 0.0, 1.0));
    });
    EXPECT_NE(cum, nullptr);
    return Histogram::of(volume, 16, 0.0, 1.0);
  });

  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(cache.size(), 2u);  // histogram + cumulative histogram
  EXPECT_EQ(counters.snapshot().derived_misses, 2u);
}

// FlatMlpCache::get used to copy the network's weights while holding the
// cache mutex, stalling every concurrent classify thread behind a rebuild
// and nesting caller-owned state inside the cache's lock. The snapshot
// now runs unlocked with a double-checked publish: racing getters may all
// copy, but exactly one rebuild is published and everyone returns it.
TEST(ConcurrencyRegressionTest, FlatMlpCacheConcurrentGetPublishesOnce) {
  Rng rng(99);
  Mlp network({4, 8, 2}, rng);
  FlatMlpCache cache;

  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const FlatMlp>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&, t] { results[static_cast<std::size_t>(t)] = cache.get(network); });
  }
  for (auto& th : threads) th.join();

  ASSERT_NE(results[0], nullptr);
  for (const auto& r : results) EXPECT_EQ(r, results[0]);
  EXPECT_EQ(cache.rebuilds(), 1u);
  EXPECT_EQ(cache.get(network), results[0]);  // warm hit, no rebuild
  EXPECT_EQ(cache.rebuilds(), 1u);
}

// generation_count() used to read the guarded load counter without the
// lock — a data race against concurrent fetches (the tsan preset sees the
// unsynchronized read; here we pin the synchronized count's correctness
// under contention). Concurrent demand loads are not serialized, so two
// racing readers may both decode a step: the count covers every step at
// least once, and once every step is resident no read loads again.
TEST(ConcurrencyRegressionTest, GenerationCountSynchronized) {
  constexpr int kSteps = 12;
  auto source = std::make_shared<CallbackSource>(
      kDims, kSteps, std::pair<double, double>{0.0, 1.0},
      [](int step) { return step_volume(step); });
  StreamConfig config;
  config.async_prefetch = false;
  StreamedSequence seq(source, config);

  std::vector<std::thread> threads;
  std::atomic<std::size_t> observed{0};
  std::atomic<int> wrong_values{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int s = 0; s < kSteps; ++s) {
        if (seq.step(s).at(0, 0, 0) != step_volume(s).at(0, 0, 0)) {
          wrong_values.fetch_add(1);
        }
        observed.fetch_add(seq.generation_count() > 0 ? 1 : 0);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(observed.load(), 4u * kSteps);
  EXPECT_EQ(wrong_values.load(), 0);
  // The unlimited budget keeps every step resident: each was loaded at
  // least once, and a second full scan loads nothing.
  const std::size_t loads = seq.generation_count();
  EXPECT_GE(loads, static_cast<std::size_t>(kSteps));
  for (int s = 0; s < kSteps; ++s) (void)seq.step(s);
  EXPECT_EQ(seq.generation_count(), loads);
}

}  // namespace
}  // namespace ifet
