// CacheManager stress tests, written for ThreadSanitizer (the tsan
// preset).
//
// The schedules are chosen to maximize contention on the cache mutex and
// the LRU list: many client threads doing mixed lookup/insert/pin traffic
// over a key space several times larger than the byte budget, plus a
// VolumeStore hammered through concurrent fetches so the prefetcher's
// worker threads race the demand path. Under TSan any unsynchronized
// access fails the test; in plain builds these are fast invariant checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "io/compressed.hpp"
#include "stream/cache_manager.hpp"
#include "stream/volume_store.hpp"
#include "util/rng.hpp"
#include "volume/sequence.hpp"

namespace ifet {
namespace {

constexpr Dims kDims{4, 4, 4};
constexpr std::size_t kStepBytes = 64 * sizeof(float);

VolumeF step_volume(int step) {
  VolumeF v(kDims);
  v.fill(static_cast<float>(step));
  return v;
}

TEST(CacheManagerStress, MixedTrafficFromManyThreads) {
  StreamCounters counters;
  CacheManager cache(counters, 4 * kStepBytes);
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 3000;
  constexpr int kKeySpace = 16;
  std::atomic<int> bad_values{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&cache, &bad_values, t] {
      // Each client slides its own window of counted pins, as a
      // StreamedSequence does; -1 = no window yet.
      int window = -1;
      auto move_window = [&cache, &window](int lo) {
        for (int s = lo; s < lo + 3; ++s) cache.pin(s);
        if (window >= 0) {
          for (int s = window; s < window + 3; ++s) cache.unpin(s);
        }
        window = lo;
      };
      // Deterministic per-thread op mix; no shared RNG.
      std::uint64_t state = 0x9e3779b9u * static_cast<std::uint64_t>(t + 1);
      for (int op = 0; op < kOpsPerThread; ++op) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        const int step = static_cast<int>((state >> 33) % kKeySpace);
        switch ((state >> 13) % 4) {
          case 0:
            cache.insert(step, step_volume(step));
            break;
          case 1: {
            auto v = cache.lookup(step);
            // A hit must always carry the step's own content even while
            // other threads evict and re-insert around us.
            if (v != nullptr &&
                v->at(0, 0, 0) != static_cast<float>(step)) {
              bad_values.fetch_add(1);
            }
            break;
          }
          case 2:
            cache.pin(step);
            cache.unpin(step);
            break;
          default:
            move_window(step);
            break;
        }
      }
      // Release the window; the unpins evict back under the budget.
      if (window >= 0) {
        for (int s = window; s < window + 3; ++s) cache.unpin(s);
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(bad_values.load(), 0);

  // Invariants after the storm: accounting matches the entry set.
  EXPECT_EQ(cache.resident_bytes(), cache.resident_steps() * kStepBytes);
  EXPECT_LE(cache.resident_bytes(), 4 * kStepBytes);
}

TEST(CacheManagerStress, PinnedEntriesSurviveConcurrentEvictionPressure) {
  StreamCounters counters;
  CacheManager cache(counters, 2 * kStepBytes);
  cache.insert(100, step_volume(100));
  cache.pin(100);
  constexpr int kThreads = 6;
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&cache, t] {
      for (int op = 0; op < 2000; ++op) {
        const int step = (t * 2000 + op) % 32;
        cache.insert(step, step_volume(step));
        cache.lookup(step);
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_TRUE(cache.resident(100));
  auto v = cache.lookup(100);
  ASSERT_NE(v, nullptr);
  EXPECT_FLOAT_EQ(v->at(0, 0, 0), 100.0f);
}

TEST(CacheManagerStress, ConcurrentFetchesThroughVolumeStore) {
  // Demand fetches from many threads race the async prefetcher's inserts;
  // every fetch must return the right step's content regardless of who
  // loaded it.
  auto source = std::make_shared<CallbackSource>(
      kDims, 24, std::pair<double, double>{0.0, 24.0},
      [](int step) { return step_volume(step); });
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 4 * kStepBytes;
  cfg.lookahead = 2;
  cfg.async_prefetch = true;
  VolumeStore store(source, cfg);

  constexpr int kThreads = 6;
  std::atomic<int> bad_values{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&store, &bad_values, t] {
      for (int pass = 0; pass < 40; ++pass) {
        for (int s = 0; s < 24; ++s) {
          const int step = (t % 2 == 0) ? s : 23 - s;  // mixed directions
          auto v = store.fetch(step);
          if (v == nullptr ||
              v->at(0, 0, 0) != static_cast<float>(step)) {
            bad_values.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(bad_values.load(), 0);
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST(CacheManagerStress, ReadersDropPayloadsWhileLoadsDecodeIntoSpares) {
  // Readers fetch steps of a .cvol through a 2-step budget and hand what
  // they fetched to a dropper thread, which releases it later: the last
  // reference of an evicted step, and with it the step's buffer, goes
  // back to the spare list from a thread that never loads, while the
  // prefetch workers and the readers take spares and decode into them.
  const std::string path = "/tmp/ifet_stress_spares.cvol";
  const Dims dims{12, 12, 12};
  constexpr int kSteps = 10;
  CallbackSource steps(dims, kSteps, {0.0, 1.0}, [dims](int step) {
    VolumeF v(dims);
    Rng rng(3000 + static_cast<std::uint64_t>(step));
    for (float& x : v.data()) x = static_cast<float>(rng.uniform());
    return v;
  });
  write_compressed_sequence(steps, path);
  auto source = std::make_shared<CompressedFileSource>(path);
  std::vector<VolumeF> want;
  for (int s = 0; s < kSteps; ++s) want.push_back(source->generate(s));

  VolumeStoreConfig cfg;
  cfg.budget_bytes = 2 * dims.count() * sizeof(float);
  cfg.lookahead = 2;
  cfg.async_prefetch = true;
  VolumeStore store(source, cfg);

  std::mutex mutex;
  std::condition_variable ready;
  std::deque<std::shared_ptr<const VolumeF>> dropped;
  bool done = false;
  // Holds the last few payloads, so each is dropped well after its fetch.
  constexpr std::size_t kHeld = 3;
  std::thread dropper([&] {
    std::unique_lock<std::mutex> lock(mutex);
    while (!done || !dropped.empty()) {
      ready.wait(lock, [&] { return done || dropped.size() > kHeld; });
      while (dropped.size() > (done ? 0 : kHeld)) {
        auto payload = std::move(dropped.front());
        dropped.pop_front();
        lock.unlock();
        payload.reset();  // possibly the last reference
        lock.lock();
      }
    }
  });

  constexpr int kReaders = 4;
  std::atomic<int> bad_values{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      for (int pass = 0; pass < 25; ++pass) {
        for (int s = 0; s < kSteps; ++s) {
          const int step = (t % 2 == 0) ? s : kSteps - 1 - s;
          auto v = store.fetch(step);
          const VolumeF& w = want[static_cast<std::size_t>(step)];
          if (!std::equal(w.data().begin(), w.data().end(),
                          v->data().begin())) {
            bad_values.fetch_add(1);
          }
          std::lock_guard<std::mutex> lock(mutex);
          dropped.push_back(std::move(v));
          ready.notify_one();
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  {
    std::lock_guard<std::mutex> lock(mutex);
    done = true;
  }
  ready.notify_one();
  dropper.join();
  EXPECT_EQ(bad_values.load(), 0);
  EXPECT_GT(store.stats().evictions, 0u);
  EXPECT_GT(store.stats().recycled_loads, 0u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ifet
