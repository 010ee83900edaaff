// Fault-storm stress tests, written for ThreadSanitizer (the tsan
// preset).
//
// Concurrent demand fetches race the async prefetcher while the source
// injects transient faults, so retry bookkeeping, the prefetcher's
// captured-failure map, and the quarantine table are all hammered from
// several threads at once. Under TSan any unsynchronized counter bump or
// map mutation fails the test; in plain builds these are fast checks that
// the failure paths stay deterministic under contention.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "stream/fault_injection.hpp"
#include "stream/streamed_sequence.hpp"
#include "stream/volume_store.hpp"
#include "util/io_error.hpp"
#include "volume/sequence.hpp"

namespace ifet {
namespace {

constexpr Dims kDims{4, 4, 4};
constexpr std::size_t kStepBytes = 64 * sizeof(float);
constexpr int kSteps = 24;

std::shared_ptr<CallbackSource> step_source() {
  return std::make_shared<CallbackSource>(
      kDims, kSteps, std::pair<double, double>{0.0, kSteps}, [](int step) {
        VolumeF v(kDims);
        v.fill(static_cast<float>(step));
        return v;
      });
}

TEST(FaultStormStress, TransientFaultsUnderConcurrentFetches) {
  // Every step fails twice transiently; with max_retries=2 every fetch
  // from every thread must still produce the right step's content, and
  // nothing may quarantine.
  auto faulty = std::make_shared<FaultInjectingSource>(
      step_source(), std::vector<FaultSpec>{
                         {FaultSpec::kAllSteps, FaultKind::kTransient, 2}});
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 4 * kStepBytes;
  cfg.lookahead = 2;
  cfg.async_prefetch = true;
  cfg.max_retries = 2;
  VolumeStore store(faulty, cfg);

  constexpr int kThreads = 6;
  std::atomic<int> bad_values{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&store, &bad_values, t] {
      for (int pass = 0; pass < 20; ++pass) {
        for (int s = 0; s < kSteps; ++s) {
          const int step = (t % 2 == 0) ? s : kSteps - 1 - s;
          auto v = store.fetch(step);
          if (v == nullptr || v->at(0, 0, 0) != static_cast<float>(step)) {
            bad_values.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(bad_values.load(), 0);
  const StreamStats stats = store.stats();
  EXPECT_GT(stats.retries, 0u);
  EXPECT_EQ(stats.load_failures, 0u);
  EXPECT_EQ(stats.quarantined_steps, 0u);
}

TEST(FaultStormStress, QuarantineUnderSkipPolicyStaysConsistent) {
  // A permanently corrupt step in the middle of the scan: every thread's
  // kSkipStep client of one shared tier must see nullptr for it and
  // correct data everywhere else, no matter who trips the quarantine
  // first or how often the prefetcher touches it.
  constexpr int kBadStep = 11;
  auto faulty = std::make_shared<FaultInjectingSource>(
      step_source(),
      std::vector<FaultSpec>{{kBadStep, FaultKind::kCorrupt, 1}});
  StreamTierConfig cfg;
  cfg.budget_bytes = 4 * kStepBytes;
  cfg.lookahead = 2;
  cfg.async_prefetch = true;
  cfg.max_retries = 1;
  StreamTier tier(faulty, cfg);
  VolumeStore& store = tier.store();

  constexpr int kThreads = 6;
  std::atomic<int> bad_values{0};
  std::atomic<int> bad_skips{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&tier, &bad_values, &bad_skips, t] {
      const StreamedSequence sequence(tier, /*pin_radius=*/0,
                                      FailPolicy::kSkipStep);
      for (int pass = 0; pass < 20; ++pass) {
        for (int s = 0; s < kSteps; ++s) {
          const int step = (t % 2 == 0) ? s : kSteps - 1 - s;
          const VolumeF* v = sequence.try_step(step);
          if (step == kBadStep) {
            if (v != nullptr) bad_skips.fetch_add(1);
          } else if (v == nullptr ||
                     v->at(0, 0, 0) != static_cast<float>(step)) {
            bad_values.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(bad_values.load(), 0);
  EXPECT_EQ(bad_skips.load(), 0);
  EXPECT_TRUE(store.is_quarantined(kBadStep));
  const StreamStats stats = tier.stats();
  EXPECT_EQ(stats.quarantined_steps, 1u);
  EXPECT_GT(stats.skipped_fetches, 0u);
  EXPECT_EQ(store.quarantined_steps(), std::vector<int>{kBadStep});
}

TEST(FaultStormStress, ThrowingPrefetchesRaceDemandFetches) {
  // Threads alternate prefetch() and fetch() over steps whose first load
  // throws a plain Error on the worker: the captured-failure handoff in
  // the prefetcher races the demand path's reload. Every fetch must
  // eventually return correct data — a deadlock here hangs the test.
  std::vector<std::unique_ptr<std::atomic<int>>> load_counts;
  load_counts.reserve(kSteps);
  for (int s = 0; s < kSteps; ++s) {
    load_counts.push_back(std::make_unique<std::atomic<int>>(0));
  }
  auto source = std::make_shared<CallbackSource>(
      kDims, kSteps, std::pair<double, double>{0.0, kSteps},
      [&load_counts](int step) {
        if (load_counts[static_cast<std::size_t>(step)]->fetch_add(1) == 0) {
          throw TransientIoError("first load fails");
        }
        VolumeF v(kDims);
        v.fill(static_cast<float>(step));
        return v;
      });
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 6 * kStepBytes;
  cfg.lookahead = 1;
  cfg.async_prefetch = true;
  cfg.max_retries = 3;
  VolumeStore store(source, cfg);

  constexpr int kThreads = 6;
  std::atomic<int> bad_values{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&store, &bad_values, t] {
      for (int pass = 0; pass < 10; ++pass) {
        for (int s = 0; s < kSteps; ++s) {
          const int step = (s + t * 4) % kSteps;
          store.prefetch((step + 1) % kSteps);
          auto v = store.fetch(step);
          if (v == nullptr || v->at(0, 0, 0) != static_cast<float>(step)) {
            bad_values.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(bad_values.load(), 0);
  EXPECT_EQ(store.stats().quarantined_steps, 0u);
}

}  // namespace
}  // namespace ifet
