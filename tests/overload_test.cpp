// Overload-resilience layer (docs/ROBUSTNESS.md, "Overload and
// deadlines"): deadline tokens raise typed DeadlineExceeded instead of
// hanging strands and never quarantine or poison a step; the strand
// queue bound refuses work with typed kOverloaded results (reject-new
// and shed-oldest, mutations never dropped once accepted); the
// stuck-strand watchdog observes commands exceeding N x their budget
// without holding any lock over the samples.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "server/session_manager.hpp"
#include "stream/cache_manager.hpp"
#include "stream/fault_injection.hpp"
#include "stream/prefetcher.hpp"
#include "stream/volume_store.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"
#include "volume/sequence.hpp"

namespace ifet {
namespace {

constexpr Dims kDims{8, 8, 8};

std::shared_ptr<CallbackSource> ramp_source(int steps) {
  return std::make_shared<CallbackSource>(
      kDims, steps, std::pair<double, double>{0.0, 1.0}, [](int step) {
        VolumeF v(kDims);
        for (int k = 0; k < kDims.z; ++k) {
          for (int j = 0; j < kDims.y; ++j) {
            for (int i = 0; i < kDims.x; ++i) {
              v.at(i, j, k) = static_cast<float>(
                  (i + j + k + step) % 16) / 16.0f;
            }
          }
        }
        return v;
      });
}

/// The ramp source behind a uniformly slow device (`ms` per load).
std::shared_ptr<FaultInjectingSource> slow_source(int steps, int ms) {
  return std::make_shared<FaultInjectingSource>(
      ramp_source(steps),
      std::vector<FaultSpec>{
          parse_fault_spec("slow@all:" + std::to_string(ms))});
}

// --- Deadline token -------------------------------------------------------

TEST(Deadline, UnlimitedNeverExpires) {
  const Deadline d = Deadline::unlimited();
  EXPECT_FALSE(d.limited());
  EXPECT_FALSE(d.expired());
  EXPECT_TRUE(std::isinf(d.remaining_ms()));
  EXPECT_NO_THROW(d.check("test"));
}

TEST(Deadline, ExpiredBudgetRaisesTyped) {
  const Deadline d = Deadline::after_ms(0.0);
  EXPECT_TRUE(d.limited());
  EXPECT_TRUE(d.expired());
  EXPECT_EQ(d.remaining_ms(), 0.0);
  EXPECT_THROW(d.check("test wait"), DeadlineExceeded);
  // DeadlineExceeded is part of the IoError taxonomy (pre-catch ordering
  // in the load path relies on the inheritance).
  EXPECT_THROW(d.check("test wait"), IoError);
}

TEST(Deadline, FutureBudgetNotExpired) {
  const Deadline d = Deadline::after_ms(60000.0);
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_ms(), 0.0);
  EXPECT_LE(d.remaining_ms(), 60000.0);
  EXPECT_NO_THROW(d.check("test"));
}

TEST(Deadline, CancelTokenExpiresEveryCopy) {
  CancelSource source;
  const Deadline d = Deadline::unlimited().with_cancel(source.token());
  const Deadline copy = d;
  EXPECT_TRUE(d.limited());
  EXPECT_FALSE(d.expired());
  source.cancel();
  EXPECT_TRUE(d.expired());
  EXPECT_TRUE(copy.expired());
  EXPECT_EQ(copy.remaining_ms(), 0.0);
  EXPECT_THROW(copy.check("cancelled wait"), DeadlineExceeded);
}

TEST(Deadline, ScopeNestsAndRestores) {
  EXPECT_FALSE(DeadlineScope::current().limited());
  {
    DeadlineScope outer(Deadline::after_ms(60000.0));
    EXPECT_TRUE(DeadlineScope::current().limited());
    EXPECT_FALSE(DeadlineScope::current().expired());
    {
      DeadlineScope inner(Deadline::after_ms(0.0));
      EXPECT_TRUE(DeadlineScope::current().expired());
    }
    EXPECT_FALSE(DeadlineScope::current().expired());
  }
  EXPECT_FALSE(DeadlineScope::current().limited());
}

// --- Prefetcher / store waits under deadline ------------------------------

// Regression: a timed-out wait on an in-flight load must raise the typed
// DeadlineExceeded, leave the load running (workers carry no deadline),
// and record NO failure — the bytes land in cache for the retry.
TEST(Overload, PrefetcherWaitDeadlineDoesNotPoison) {
  ThreadPool pool(2);
  StreamCounters counters;
  CacheManager cache(counters);
  const auto source = ramp_source(4);
  Prefetcher prefetcher(pool, cache, counters, [&source](int step) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    return source->generate(step);
  });
  prefetcher.schedule(0);
  ASSERT_TRUE(prefetcher.in_flight(0));
  EXPECT_THROW(prefetcher.wait(0, Deadline::after_ms(1.0)),
               DeadlineExceeded);
  // The load was NOT cancelled or failed by the waiter's timeout.
  EXPECT_TRUE(prefetcher.wait(0));
  EXPECT_FALSE(prefetcher.in_flight(0));
  EXPECT_EQ(prefetcher.take_failure(0), nullptr);
  EXPECT_NE(cache.lookup(0), nullptr);
}

TEST(Overload, StoreFetchDeadlineTypedAndNoQuarantine) {
  VolumeStoreConfig config;
  config.async_prefetch = false;
  config.lookahead = 0;
  VolumeStore store(slow_source(4, 30), config);
  {
    DeadlineScope scope(Deadline::after_ms(0.0));
    EXPECT_THROW(store.fetch(0), DeadlineExceeded);
  }
  // A deadline is the CALLER giving up, not the data failing: nothing is
  // quarantined, nothing counts as a load failure, and a fetch with a
  // fresh budget succeeds.
  EXPECT_EQ(store.stats().quarantined_steps, 0u);
  EXPECT_EQ(store.stats().load_failures, 0u);
  EXPECT_NE(store.fetch(0), nullptr);
}

TEST(Overload, RetryBackoffRespectsDeadline) {
  VolumeStoreConfig config;
  config.async_prefetch = false;
  config.lookahead = 0;
  config.max_retries = 5;
  config.retry_backoff_ms = 500.0;  // Full backoff would sleep seconds.
  VolumeStore store(
      std::make_shared<FaultInjectingSource>(
          ramp_source(4),
          std::vector<FaultSpec>{parse_fault_spec("transient@0:2")}),
      config);
  const auto t0 = std::chrono::steady_clock::now();
  {
    DeadlineScope scope(Deadline::after_ms(20.0));
    EXPECT_THROW(store.fetch(0), DeadlineExceeded);
  }
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0)
          .count();
  // The backoff sleep was capped by the remaining budget — nowhere near
  // the configured 500 ms per retry.
  EXPECT_LT(elapsed_ms, 400.0);
  // Not quarantined by the timeout; the transient schedule heals and an
  // unlimited fetch succeeds.
  EXPECT_EQ(store.stats().quarantined_steps, 0u);
  EXPECT_NE(store.fetch(0), nullptr);
}

// --- Backpressure decision (pure) -----------------------------------------

TEST(Overload, DecideBackpressureIsAPureTable) {
  // Unbounded queue accepts everything.
  EXPECT_EQ(decide_backpressure(BackpressurePolicy::kRejectNew, 100, 0, true),
            ShedAction::kAccept);
  // Below the bound accepts regardless of policy.
  EXPECT_EQ(decide_backpressure(BackpressurePolicy::kRejectNew, 3, 4, true),
            ShedAction::kAccept);
  EXPECT_EQ(decide_backpressure(BackpressurePolicy::kShedOldest, 3, 4, false),
            ShedAction::kAccept);
  // At the bound: reject-new refuses; shed-oldest shed only when a
  // sheddable victim is queued, else it degrades to reject.
  EXPECT_EQ(decide_backpressure(BackpressurePolicy::kRejectNew, 4, 4, true),
            ShedAction::kRejectNew);
  EXPECT_EQ(decide_backpressure(BackpressurePolicy::kShedOldest, 4, 4, true),
            ShedAction::kShedOldest);
  EXPECT_EQ(decide_backpressure(BackpressurePolicy::kShedOldest, 4, 4, false),
            ShedAction::kRejectNew);
}

TEST(Overload, SheddableClassification) {
  // Read-only queries are sheddable; mutations and hints are not.
  EXPECT_TRUE(command_is_sheddable(CommandKind::kQueryTf));
  EXPECT_TRUE(command_is_sheddable(CommandKind::kHistogram));
  EXPECT_TRUE(command_is_sheddable(CommandKind::kRender));
  EXPECT_TRUE(command_is_sheddable(CommandKind::kClassify));
  EXPECT_FALSE(command_is_sheddable(CommandKind::kPaint));
  EXPECT_FALSE(command_is_sheddable(CommandKind::kTrainTf));
  EXPECT_FALSE(command_is_sheddable(CommandKind::kTrainClassifier));
  EXPECT_FALSE(command_is_sheddable(CommandKind::kTrack));
  EXPECT_FALSE(command_is_sheddable(CommandKind::kHintWindow));
  EXPECT_FALSE(command_is_sheddable(CommandKind::kSetKeyFrame));
}

// --- Bounded strand queues ------------------------------------------------

/// Submit a slow command and wait until the strand picked it up (queue
/// depth back to 0 while it runs), so follow-up submits deterministically
/// land in the queue behind it.
void wait_until_running(SessionManager& manager, int id) {
  for (int i = 0; i < 2000; ++i) {
    if (manager.session_queue(id).depth == 0) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << "strand never picked up the blocking command";
}

TEST(Overload, RejectNewRefusesTyped) {
  SessionManagerConfig config;
  config.command_threads = 1;
  config.max_queue_depth = 2;
  config.backpressure = BackpressurePolicy::kRejectNew;
  SessionManager manager(slow_source(8, 100), config);
  const int id = manager.create_session();

  std::mutex mutex;
  std::vector<std::pair<int, ServerResult>> done;
  auto record = [&mutex, &done](int tag) {
    return [&mutex, &done, tag](const ServerResult& r) {
      std::lock_guard<std::mutex> lock(mutex);
      done.emplace_back(tag, r);
    };
  };

  Command blocker;
  blocker.kind = CommandKind::kHistogram;
  blocker.step = 0;
  manager.submit(id, blocker, record(0));
  wait_until_running(manager, id);

  Command query;
  query.kind = CommandKind::kQueryTf;
  query.step = 1;
  manager.submit(id, query, record(1));
  query.step = 2;
  manager.submit(id, query, record(2));
  // The queue is at its bound of 2: this submit is refused SYNCHRONOUSLY
  // on the calling thread with a typed kOverloaded + retry-after hint.
  query.step = 3;
  manager.submit(id, query, record(3));
  {
    std::lock_guard<std::mutex> lock(mutex);
    ASSERT_FALSE(done.empty());
    EXPECT_EQ(done.back().first, 3);
    EXPECT_EQ(done.back().second.status, ServerStatus::kOverloaded);
    EXPECT_FALSE(done.back().second.ok);
    EXPECT_GT(done.back().second.retry_after_ms, 0.0);
  }
  manager.drain(id);

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(done.size(), 4u);
  for (const auto& [tag, r] : done) {
    if (tag == 3) continue;
    EXPECT_EQ(r.status, ServerStatus::kOk) << "command " << tag;
  }
  EXPECT_EQ(manager.session_stats(id).commands_rejected, 1u);
  EXPECT_EQ(manager.tier().stats().commands_rejected, 1u);
  EXPECT_EQ(manager.session_queue(id).peak_depth, 2u);
}

TEST(Overload, ShedOldestDropsOldestSheddable) {
  SessionManagerConfig config;
  config.command_threads = 1;
  config.max_queue_depth = 2;
  config.backpressure = BackpressurePolicy::kShedOldest;
  SessionManager manager(slow_source(8, 100), config);
  const int id = manager.create_session();

  std::mutex mutex;
  std::vector<std::pair<int, ServerResult>> done;
  auto record = [&mutex, &done](int tag) {
    return [&mutex, &done, tag](const ServerResult& r) {
      std::lock_guard<std::mutex> lock(mutex);
      done.emplace_back(tag, r);
    };
  };

  Command blocker;
  blocker.kind = CommandKind::kHistogram;
  blocker.step = 0;
  manager.submit(id, blocker, record(0));
  wait_until_running(manager, id);

  Command query;
  query.kind = CommandKind::kQueryTf;
  query.step = 1;
  manager.submit(id, query, record(1));  // Oldest sheddable — the victim.
  query.step = 2;
  manager.submit(id, query, record(2));
  query.step = 3;
  manager.submit(id, query, record(3));  // Full queue: sheds tag 1.
  manager.drain(id);

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(done.size(), 4u);
  for (const auto& [tag, r] : done) {
    if (tag == 1) {
      EXPECT_EQ(r.status, ServerStatus::kOverloaded);
      EXPECT_GT(r.retry_after_ms, 0.0);
    } else {
      EXPECT_EQ(r.status, ServerStatus::kOk) << "command " << tag;
    }
  }
  EXPECT_EQ(manager.session_stats(id).commands_shed, 1u);
  EXPECT_EQ(manager.tier().stats().commands_shed, 1u);
}

TEST(Overload, ShedOldestNeverDropsMutations) {
  SessionManagerConfig config;
  config.command_threads = 1;
  config.max_queue_depth = 2;
  config.backpressure = BackpressurePolicy::kShedOldest;
  SessionManager manager(slow_source(8, 100), config);
  const int id = manager.create_session();

  std::mutex mutex;
  std::vector<std::pair<int, ServerResult>> done;
  auto record = [&mutex, &done](int tag) {
    return [&mutex, &done, tag](const ServerResult& r) {
      std::lock_guard<std::mutex> lock(mutex);
      done.emplace_back(tag, r);
    };
  };

  Command blocker;
  blocker.kind = CommandKind::kHistogram;
  blocker.step = 0;
  manager.submit(id, blocker, record(0));
  wait_until_running(manager, id);

  // Fill the queue with NON-sheddable commands: shed-oldest has no legal
  // victim and must degrade to reject-new for the incoming command.
  Command hint;
  hint.kind = CommandKind::kHintWindow;
  hint.window_lo = 0;
  hint.window_hi = 1;
  manager.submit(id, hint, record(1));
  manager.submit(id, hint, record(2));
  manager.submit(id, hint, record(3));
  manager.drain(id);

  std::lock_guard<std::mutex> lock(mutex);
  EXPECT_EQ(done.size(), 4u);
  for (const auto& [tag, r] : done) {
    if (tag == 3) {
      EXPECT_EQ(r.status, ServerStatus::kOverloaded);
    } else {
      EXPECT_EQ(r.status, ServerStatus::kOk) << "command " << tag;
    }
  }
  EXPECT_EQ(manager.session_stats(id).commands_shed, 0u);
  EXPECT_EQ(manager.session_stats(id).commands_rejected, 1u);
}

// --- Typed deadline results through the server ----------------------------

TEST(Overload, CommandDeadlineTypedResultAndRecovery) {
  SessionManagerConfig config;
  config.command_threads = 1;
  SessionManager manager(slow_source(4, 30), config);
  const int id = manager.create_session();

  Command query;
  query.kind = CommandKind::kHistogram;
  query.step = 0;
  query.deadline_ms = 0.01;  // Impossible: expires while queued.
  std::mutex mutex;
  ServerResult result;
  manager.submit(id, query, [&mutex, &result](const ServerResult& r) {
    std::lock_guard<std::mutex> lock(mutex);
    result = r;
  });
  manager.drain(id);
  {
    std::lock_guard<std::mutex> lock(mutex);
    EXPECT_EQ(result.status, ServerStatus::kDeadlineExceeded);
    EXPECT_FALSE(result.ok);
  }
  EXPECT_EQ(manager.session_stats(id).deadline_exceeded, 1u);
  EXPECT_EQ(manager.tier().stats().deadline_exceeded, 1u);

  // The timeout poisoned nothing: the same command with no budget runs.
  query.deadline_ms = 0.0;
  const ServerResult retry = manager.execute(id, query);
  EXPECT_EQ(retry.status, ServerStatus::kOk);
}

TEST(Overload, DefaultDeadlineAppliesAndExplicitOverrides) {
  SessionManagerConfig config;
  config.command_threads = 1;
  config.default_deadline_ms = 0.01;  // Impossible default budget.
  SessionManager manager(slow_source(4, 20), config);
  const int id = manager.create_session();

  Command query;
  query.kind = CommandKind::kHistogram;
  query.step = 0;
  const ServerResult defaulted = manager.execute(id, query);
  EXPECT_EQ(defaulted.status, ServerStatus::kDeadlineExceeded);

  query.deadline_ms = 60000.0;  // Explicit budget overrides the default.
  const ServerResult generous = manager.execute(id, query);
  EXPECT_EQ(generous.status, ServerStatus::kOk);
}

// --- Stuck-strand watchdog ------------------------------------------------

TEST(Overload, WatchdogObservesOverdueCommand) {
  SessionManagerConfig config;
  config.command_threads = 1;
  // Manual scans only — deterministic.
  config.watchdog_interval_ms = 0.0;
  config.watchdog_factor = 2.0;
  // Step 0's load holds until the test releases it, so however loaded the
  // machine, the command is still inside it when the scan comes.
  auto release = std::make_shared<std::atomic<bool>>(false);
  auto ramp = ramp_source(4);
  SessionManager manager(
      std::make_shared<CallbackSource>(
          kDims, 4, std::pair<double, double>{0.0, 1.0},
          [ramp, release](int step) {
            while (step == 0 && !release->load()) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            return ramp->generate(step);
          }),
      config);
  const int id = manager.create_session();

  Command query;
  query.kind = CommandKind::kHistogram;
  query.step = 0;
  // Budget 100 ms: ample for the queue wait and the start-of-command
  // check, then overdue (2 x 100 ms) while it sits inside the held load.
  query.deadline_ms = 100.0;
  std::atomic<bool> done{false};
  manager.submit(id, query, [&done](const ServerResult&) { done = true; });
  // Scan until the watchdog sees the command overdue, or the command ends
  // (it only can by failing before its load).
  WatchdogReport scan;
  std::uint64_t scans = 0;
  do {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    scan = manager.watchdog_scan_now();
    ++scans;
  } while (scan.stuck_observations == 0 && !done.load() && scans < 10000);
  release->store(true);
  EXPECT_GE(scan.stuck_observations, 1u);
  EXPECT_EQ(scan.last_session, id);
  EXPECT_EQ(scan.last_kind, static_cast<int>(CommandKind::kHistogram));
  EXPECT_GT(scan.last_overdue_ms, 0.0);
  manager.drain(id);

  // Unlimited-budget commands are never reported stuck.
  query.deadline_ms = 0.0;
  manager.submit(id, query);
  const WatchdogReport idle = manager.watchdog_scan_now();
  EXPECT_EQ(idle.stuck_observations, scan.stuck_observations);
  manager.drain(id);
  EXPECT_EQ(manager.watchdog_report().scans, scans + 1);
}

TEST(Overload, WatchdogBackgroundThreadScans) {
  SessionManagerConfig config;
  config.watchdog_interval_ms = 2.0;
  SessionManager manager(ramp_source(4), config);
  for (int i = 0; i < 500; ++i) {
    if (manager.watchdog_report().scans > 0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(manager.watchdog_report().scans, 0u);
}

}  // namespace
}  // namespace ifet
