// Overload-resilience layer (docs/ROBUSTNESS.md, "Overload and
// deadlines"): deadline tokens raise typed DeadlineExceeded instead of
// hanging strands and never quarantine or poison a step; the strand
// queue bound refuses work with typed kOverloaded results (reject-new
// and shed-oldest, mutations never dropped once accepted); the pressure
// monitor clamps quotas center-out and restores them hysteretically on a
// signal that cannot argue itself back below the exit threshold; the
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
#include "stream/admission.hpp"
#include "stream/cache_manager.hpp"
#include "stream/derived_cache.hpp"
#include "stream/fault_injection.hpp"
#include "stream/prefetcher.hpp"
#include "stream/pressure.hpp"
#include "stream/stream_tier.hpp"
#include "stream/streamed_sequence.hpp"
#include "stream/volume_store.hpp"
#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"
#include "volume/sequence.hpp"

namespace ifet {
namespace {

constexpr Dims kDims{8, 8, 8};
constexpr std::size_t kStepBytes =
    static_cast<std::size_t>(8 * 8 * 8) * sizeof(float);

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

// --- Admission quota clamp / restore hysteresis ---------------------------

TEST(Overload, QuotaClampReplaysCenterOutAndRestoresExactly) {
  AdmissionController adm(kStepBytes, 4 * kStepBytes, 16);
  const int c = adm.register_client();
  WindowDelta delta = adm.set_window(c, 0, 9, 5);
  // Center-out from 5 with quota 4: 5, then 4 (tie goes to the earlier
  // step), 6, then 3.
  EXPECT_EQ(delta.pin, (std::vector<int>{3, 4, 5, 6}));
  EXPECT_TRUE(delta.unpin.empty());
  EXPECT_EQ(delta.denied.size(), 6u);
  const std::uint64_t denied_before = adm.client_stats(c).denied_pins;

  // Clamp to 50%: quota 2 — the admitted set shrinks to the center-out
  // prefix, and the revocations count as pressure_unpins, NOT denied_pins
  // (a clamp is a revocation, not a hint-time refusal).
  auto deltas = adm.set_quota_scale(50);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].first, c);
  EXPECT_EQ(deltas[0].second.unpin, (std::vector<int>{3, 6}));
  EXPECT_TRUE(deltas[0].second.pin.empty());
  EXPECT_EQ(adm.quota_steps(), 2u);
  EXPECT_EQ(adm.quota_steps_base(), 4u);
  EXPECT_EQ(adm.client_stats(c).pinned_steps, 2u);
  EXPECT_EQ(adm.client_stats(c).pressure_unpins, 2u);
  EXPECT_EQ(adm.client_stats(c).denied_pins, denied_before);

  // The demand signal ignores the live clamp — clamping can never argue
  // itself back below the exit threshold (the oscillation guard).
  EXPECT_EQ(adm.demanded_pin_steps(), 4u);

  // Idempotent: repeating the scale produces no deltas.
  EXPECT_TRUE(adm.set_quota_scale(50).empty());

  // Restore: exactly the revoked steps come back (center-out replay), and
  // a fresh identical hint then has nothing to change.
  deltas = adm.set_quota_scale(100);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].second.pin, (std::vector<int>{3, 6}));
  EXPECT_TRUE(deltas[0].second.unpin.empty());
  EXPECT_EQ(adm.client_stats(c).pinned_steps, 4u);
  delta = adm.set_window(c, 0, 9, 5);
  EXPECT_TRUE(delta.pin.empty());
  EXPECT_TRUE(delta.unpin.empty());
}

TEST(Overload, QuotaClampFairAcrossClientChurn) {
  AdmissionController adm(kStepBytes, 2 * kStepBytes, 16);
  const int a = adm.register_client();
  const int b = adm.register_client();
  adm.set_window(a, 0, 3, 1);
  adm.set_window(b, 4, 7, 5);

  auto deltas = adm.set_quota_scale(50);  // Quota 2 -> 1 for everyone.
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_EQ(adm.client_stats(a).pressure_unpins, 1u);
  EXPECT_EQ(adm.client_stats(b).pressure_unpins, 1u);

  // A client that leaves while clamped must not perturb the restore of
  // the one that stays.
  adm.release_client(b);
  deltas = adm.set_quota_scale(100);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].first, a);
  EXPECT_EQ(deltas[0].second.pin.size(), 1u);
  EXPECT_EQ(adm.client_stats(a).pinned_steps, 2u);
  // New clients after the restore see the full quota immediately.
  const int c = adm.register_client();
  EXPECT_EQ(adm.set_window(c, 8, 11, 9).pin.size(), 2u);
}

// --- Pressure monitor hysteresis ------------------------------------------

struct PressureRig {
  StreamCounters counters;
  CacheManager cache{counters, 4 * kStepBytes};
  AdmissionController adm{kStepBytes, 2 * kStepBytes, 16};
  DerivedCache derived{counters};
  static constexpr std::uint64_t kKeepParams = 111;

  void apply(const WindowDelta& delta) {
    for (const int s : delta.unpin) cache.unpin(s);
    for (const int s : delta.pin) cache.pin(s);
  }
  void apply_all(const std::vector<std::pair<int, WindowDelta>>& deltas) {
    for (const auto& [client, delta] : deltas) apply(delta);
  }
};

TEST(Overload, PressureEngagesShedsClampsAndReleases) {
  PressureRig rig;
  // Derived products under the tier hash (kept) and a client hash (shed).
  rig.derived.histogram(0, PressureRig::kKeepParams,
                        [] { return Histogram(4, 0.0, 1.0); });
  rig.derived.histogram(0, 222, [] { return Histogram(4, 0.0, 1.0); });
  rig.derived.transfer_function(1, 222, [] {
    return TransferFunction1D(0.0, 1.0);
  });
  ASSERT_EQ(rig.derived.size(), 3u);

  PressureConfig config;
  config.enabled = true;
  PressureMonitor monitor(rig.cache, rig.adm, rig.derived, rig.counters,
                          PressureRig::kKeepParams, 4 * kStepBytes,
                          kStepBytes, config);
  EXPECT_EQ(monitor.sample(), 0);
  monitor.poll();
  EXPECT_FALSE(monitor.engaged());

  // One client demands 2 of 4 budget steps (ratio 0.5): steady.
  const int a = rig.adm.register_client();
  rig.apply(rig.adm.set_window(a, 0, 3, 1));
  EXPECT_EQ(monitor.sample(), 0);

  // A second client doubles the demand (ratio 1.0 >= 0.85): engage.
  const int b = rig.adm.register_client();
  rig.apply(rig.adm.set_window(b, 4, 7, 5));
  EXPECT_EQ(monitor.sample(), 1);
  monitor.poll();
  EXPECT_TRUE(monitor.engaged());
  PressureReport report = monitor.report();
  EXPECT_EQ(report.enters, 1u);
  EXPECT_EQ(report.derived_shed, 2u);   // The 222 entries; 111 spared.
  EXPECT_EQ(rig.derived.size(), 1u);
  EXPECT_EQ(report.pins_clamped, 2u);   // One pin revoked per client.
  EXPECT_EQ(rig.adm.quota_scale_percent(), 50);
  EXPECT_EQ(rig.adm.quota_steps(), 1u);
  EXPECT_EQ(rig.counters.snapshot().pressure_transitions, 1u);

  // Demand at FULL quota is still 4 (the clamp does not relieve its own
  // signal), so the monitor stays engaged — no oscillation.
  EXPECT_EQ(monitor.sample(), 0);

  // Client B leaves: demand 2 of 4 (ratio 0.5 <= 0.65): release, restore.
  for (const int s : rig.adm.release_client(b)) rig.cache.unpin(s);
  EXPECT_EQ(monitor.sample(), -1);
  monitor.poll();
  EXPECT_FALSE(monitor.engaged());
  report = monitor.report();
  EXPECT_EQ(report.exits, 1u);
  EXPECT_EQ(report.pins_restored, 1u);  // Client A's revoked pin returns.
  EXPECT_EQ(rig.adm.quota_scale_percent(), 100);
  EXPECT_EQ(rig.adm.quota_steps(), 2u);
  EXPECT_EQ(rig.counters.snapshot().pressure_transitions, 2u);
}

TEST(Overload, PressureHysteresisBandHolds) {
  PressureRig rig;
  PressureConfig config;
  config.enabled = true;
  PressureMonitor monitor(rig.cache, rig.adm, rig.derived, rig.counters,
                          PressureRig::kKeepParams, 4 * kStepBytes,
                          kStepBytes, config);

  // Demand 3 of 4 steps (0.75): inside the band — engages nothing.
  const int a = rig.adm.register_client();
  rig.apply(rig.adm.set_window(a, 0, 3, 1));
  const int b = rig.adm.register_client();
  rig.apply(rig.adm.set_window(b, 4, 4, 4));
  EXPECT_EQ(monitor.sample(), 0);
  monitor.poll();
  EXPECT_FALSE(monitor.engaged());

  // Engage at 1.0, then drop back to 0.75: inside the band — stays
  // engaged (release needs <= 0.65).
  const int c = rig.adm.register_client();
  rig.apply(rig.adm.set_window(c, 5, 5, 5));
  monitor.poll();
  ASSERT_TRUE(monitor.engaged());
  for (const int s : rig.adm.release_client(c)) rig.cache.unpin(s);
  EXPECT_EQ(monitor.sample(), 0);
  monitor.poll();
  EXPECT_TRUE(monitor.engaged());
  EXPECT_EQ(monitor.report().exits, 0u);
}

// A window move computes its pin delta under the admission lock and
// applies it to the cache after. A pressure clamp landing in between could
// unpin a step the move had admitted but not pinned yet, and a restore
// racing a move away could do the reverse; either throws "step is not
// pinned" from CacheManager::unpin. One client flips between a wide and a
// one-step window, which carries the demand across both hysteresis
// thresholds, while a second thread polls the monitor.
TEST(Pressure, RescalesNeverRaceWindowMoves) {
  StreamTierConfig config;
  config.budget_bytes = 4 * kStepBytes;
  config.pin_quota_bytes = 3 * kStepBytes;
  config.lookahead = 0;
  config.async_prefetch = false;
  config.pressure.enabled = true;
  StreamTier tier(ramp_source(16), config);
  StreamedSequence mover(tier);
  StreamedSequence anchor(tier);
  anchor.hint_window(15, 15);

  std::atomic<bool> done{false};
  std::atomic<int> poll_errors{0};
  std::thread poller([&tier, &done, &poll_errors] {
    while (!done.load(std::memory_order_relaxed)) {
      try {
        tier.poll_pressure();
      } catch (const Error&) {
        poll_errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  // Until the monitor has flipped often enough to have raced many moves.
  int move_errors = 0;
  for (int i = 0; i < 100000 && tier.pressure().report().exits < 1000; ++i) {
    const int lo = 3 * (i % 4);
    try {
      mover.hint_window(lo, lo + 2);      // demand 3 + 1 of 4 steps: engage
      mover.hint_window(lo + 1, lo + 1);  // demand 1 + 1: release
    } catch (const Error&) {
      ++move_errors;
    }
  }
  done.store(true, std::memory_order_relaxed);
  poller.join();
  EXPECT_EQ(poll_errors.load(), 0);
  EXPECT_EQ(move_errors, 0);
  const PressureReport report = tier.pressure().report();
  EXPECT_GT(report.enters, 0u);
  EXPECT_GT(report.exits, 0u);
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
