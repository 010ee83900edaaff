// TSan storm for the multi-tenant server (docs/SERVER.md): many client
// sessions hammering one shared streaming tier — concurrent strand
// drains, submits from several threads, session churn, and lock-free
// stats readers — while a tight budget keeps eviction, admission, and
// prefetch all live — and an open-loop flood over a slow device that the
// overload layer must shed, time out and refuse with types, never with
// wrong data. Plain builds run it as a quick correctness check; the tsan
// preset runs it as the race detector it was written to be.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "server/session_manager.hpp"
#include "stream/fault_injection.hpp"
#include "test_helpers.hpp"
#include "volume/sequence.hpp"

namespace ifet {
namespace {

constexpr Dims kDims{8, 8, 8};
constexpr std::size_t kStepBytes =
    static_cast<std::size_t>(8 * 8 * 8) * sizeof(float);

std::shared_ptr<CallbackSource> blob_source(int steps) {
  return testing::drifting_blob_source(kDims, steps);
}

TEST(StressServer, ConcurrentSessionStorm) {
  const int steps = 6;
  SessionManagerConfig config;
  config.tier.budget_bytes = 3 * kStepBytes;  // tight: eviction stays live
  config.tier.pin_quota_bytes = 2 * kStepBytes;
  config.tier.async_prefetch = true;
  config.command_threads = 4;
  SessionManager manager(blob_source(steps), config);

  constexpr int kSessions = 8;
  std::vector<int> ids;
  for (int s = 0; s < kSessions; ++s) {
    ids.push_back(manager.create_session());
  }

  // Seed every session with a key frame so TF queries are legal.
  Command key;
  key.kind = CommandKind::kSetKeyFrame;
  key.step = 0;
  for (int id : ids) ASSERT_TRUE(manager.execute(id, key).ok);

  std::atomic<std::uint64_t> failures{0};
  auto check = [&failures](const ServerResult& r) {
    if (!r.ok) failures.fetch_add(1, std::memory_order_relaxed);
  };

  // Phase 1: several submitter threads spraying order-independent
  // commands (reads + window churn) across ALL sessions, interleaved with
  // lock-free stats readers and a training command per session from its
  // own dedicated thread.
  constexpr int kSubmitters = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kSubmitters; ++t) {
    threads.emplace_back([&manager, &ids, &check, t, steps] {
      for (int i = 0; i < 48; ++i) {
        const int id = ids[static_cast<std::size_t>((t + i) % kSessions)];
        Command c;
        switch (i % 3) {
          case 0:
            c.kind = CommandKind::kHistogram;
            c.step = (t + i) % steps;
            break;
          case 1:
            c.kind = CommandKind::kQueryTf;
            c.step = (t * 7 + i) % steps;
            break;
          default:
            c.kind = CommandKind::kHintWindow;
            c.window_lo = i % steps;
            c.window_hi = i % steps;
            break;
        }
        manager.submit(id, c, check);
      }
    });
  }
  threads.emplace_back([&manager, &ids] {
    for (int i = 0; i < 200; ++i) {
      (void)manager.tier().stats();
      for (int id : ids) (void)manager.session_stats(id);
    }
  });
  // Session churn: extra sessions created, worked, and closed while the
  // storm runs — registration, hash refcounts, and pin release all race
  // against the steady-state tenants.
  threads.emplace_back([&manager, &check] {
    for (int i = 0; i < 6; ++i) {
      const int id = manager.create_session();
      Command c;
      c.kind = CommandKind::kHistogram;
      c.step = i % 3;
      manager.submit(id, c, check);
      manager.close_session(id);
    }
  });
  for (auto& t : threads) t.join();
  manager.drain_all();
  EXPECT_EQ(failures.load(), 0u);

  // Phase 2: identical deterministic scripts on two quiet sessions must
  // agree bitwise even after the storm (their MLPs never trained, and
  // derived products are state-keyed).
  Command query;
  query.kind = CommandKind::kQueryTf;
  for (int s = 0; s < steps; ++s) {
    query.step = s;
    const ServerResult ra = manager.execute(ids[0], query);
    const ServerResult rb = manager.execute(ids[1], query);
    ASSERT_TRUE(ra.ok && rb.ok);
    EXPECT_EQ(ra.digest, rb.digest);
  }

  // Dedup across the storm: the shared cache served repeated requests.
  const StreamStats tier_stats = manager.tier().stats();
  EXPECT_GT(tier_stats.derived_hits, 0u);
}

// ---------------------------------------------------------------------------
// Overload flood (docs/ROBUSTNESS.md, "Overload and deadlines"): the
// canonical script on four clients over a uniformly slow device, with
// bounded kShedOldest strand queues and the watchdog live, while one
// open-loop thread per session floods it with read-only commands, a
// quarter of them carrying an impossible deadline. Script
// clients resubmit on kOverloaded (a shed command never ran, so the retry
// keeps exactly-once); the flood never resubmits, which keeps it finite.

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile q in [0, 1].
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

struct FloodClient {
  int id = -1;
  std::vector<ServerResult> results;   ///< Script results, after retries.
  std::vector<Clock::time_point> start;
  std::vector<double> latency_ms;      ///< First submit -> final completion.
  std::vector<ServerStatus> flood_status;
  std::vector<double> flood_latency_ms;
};

struct FloodRun {
  SessionManager& manager;
  const std::vector<Command>& script;
  std::atomic<std::uint64_t> script_submits{0};
  std::atomic<std::uint64_t> script_callbacks{0};
  std::atomic<std::uint64_t> flood_submits{0};
  std::atomic<std::uint64_t> flood_callbacks{0};
  std::atomic<bool> retry_hint_seen{false};

  void note_refusal(const ServerResult& r) {
    if (r.status == ServerStatus::kOverloaded && r.retry_after_ms > 0.0) {
      retry_hint_seen.store(true, std::memory_order_relaxed);
    }
  }

  /// Submits script command `index`; a kOverloaded result resubmits the
  /// same index, any other result records it and chains the next.
  void submit_script(FloodClient& client, std::size_t index) {
    if (index == script.size()) return;
    if (client.start[index] == Clock::time_point{}) {
      client.start[index] = Clock::now();
    }
    script_submits.fetch_add(1, std::memory_order_relaxed);
    manager.submit(client.id, script[index],
                   [this, &client, index](const ServerResult& r) {
                     script_callbacks.fetch_add(1, std::memory_order_relaxed);
                     if (r.status == ServerStatus::kOverloaded) {
                       note_refusal(r);
                       submit_script(client, index);
                       return;
                     }
                     client.results[index] = r;
                     client.latency_ms[index] = ms_since(client.start[index]);
                     submit_script(client, index + 1);
                   });
  }

  /// Floods one session with histogram, TF and render reads; every 4th
  /// carries a 10 us deadline.
  void flood(FloodClient& client, int steps) {
    for (std::size_t i = 0; i < client.flood_status.size(); ++i) {
      Command cmd;
      if (i % 8 == 7) {
        cmd.kind = CommandKind::kRender;
        cmd.image_size = 16;
      } else if (i % 2 == 0) {
        cmd.kind = CommandKind::kHistogram;
      } else {
        cmd.kind = CommandKind::kQueryTf;
      }
      cmd.step = static_cast<int>(i) % steps;
      const bool tranche = i % 4 == 3;
      if (tranche) cmd.deadline_ms = 0.01;
      const Clock::time_point t0 = Clock::now();
      flood_submits.fetch_add(1, std::memory_order_relaxed);
      manager.submit(client.id, cmd,
                     [this, &client, i, t0](const ServerResult& r) {
                       flood_callbacks.fetch_add(1, std::memory_order_relaxed);
                       client.flood_status[i] = r.status;
                       client.flood_latency_ms[i] = ms_since(t0);
                       note_refusal(r);
                     });
      if (tranche) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
};

TEST(StressServer, OverloadFloodShedsWorkNeverData) {
  const Dims dims{16, 16, 16};
  const int steps = 8;
  const std::size_t step_bytes =
      static_cast<std::size_t>(dims.count()) * sizeof(float);
  const std::vector<Command> script = testing::canonical_script(dims, steps);
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kQueueBound = 4;

  SessionManagerConfig config;
  config.tier.budget_bytes = 4 * step_bytes;
  config.tier.pin_quota_bytes = 2 * step_bytes;
  config.tier.async_prefetch = true;
  config.max_queue_depth = kQueueBound;
  config.backpressure = BackpressurePolicy::kShedOldest;
  config.watchdog_interval_ms = 5.0;

  std::vector<FloodClient> clients(kClients);
  std::vector<SessionQueueStats> queues;
  StreamStats storm_stats;
  WatchdogReport watchdog;
  std::uint64_t script_submits = 0, script_callbacks = 0;
  std::uint64_t flood_submits = 0, flood_callbacks = 0;
  bool retry_hint_seen = false;
  {
    SessionManager manager(
        std::make_shared<FaultInjectingSource>(
            testing::drifting_blob_source(dims, steps),
            std::vector<FaultSpec>{parse_fault_spec("slow@all:3")}),
        config);
    FloodRun run{manager, script};
    for (FloodClient& client : clients) {
      client.id = manager.create_session();
      client.results.resize(script.size());
      client.start.resize(script.size());
      client.latency_ms.resize(script.size(), 0.0);
      client.flood_status.resize(2 * script.size(), ServerStatus::kError);
      client.flood_latency_ms.resize(2 * script.size(), 0.0);
    }
    for (FloodClient& client : clients) run.submit_script(client, 0);
    std::vector<std::thread> floods;
    for (FloodClient& client : clients) {
      floods.emplace_back([&run, &client, steps] { run.flood(client, steps); });
    }
    for (std::thread& t : floods) t.join();
    // Every refusal callback of the joined floods has run, and a chained
    // script submit lands before its strand goes idle, so this waits for
    // every script to finish.
    manager.drain_all();

    script_submits = run.script_submits.load();
    script_callbacks = run.script_callbacks.load();
    flood_submits = run.flood_submits.load();
    flood_callbacks = run.flood_callbacks.load();
    retry_hint_seen = run.retry_hint_seen.load();
    storm_stats = manager.tier().stats();
    watchdog = manager.watchdog_report();
    for (const FloodClient& client : clients) {
      queues.push_back(manager.session_queue(client.id));
    }
  }

  // Exactly one completion per submitted command.
  EXPECT_EQ(script_callbacks, script_submits);
  EXPECT_EQ(flood_callbacks, flood_submits);

  // Every script command succeeds despite the flood, bitwise identical to
  // the unloaded serial reference: overload sheds work, never data.
  std::vector<std::vector<ServerResult>> results;
  for (const FloodClient& client : clients) results.push_back(client.results);
  testing::expect_match_isolated(dims, steps, script, results);

  // Typed refusals only: a flooded server never turns overload into kError.
  std::vector<double> script_latency, flood_latency;
  for (const FloodClient& client : clients) {
    for (const ServerStatus status : client.flood_status) {
      EXPECT_NE(status, ServerStatus::kError);
    }
    script_latency.insert(script_latency.end(), client.latency_ms.begin(),
                          client.latency_ms.end());
    flood_latency.insert(flood_latency.end(),
                         client.flood_latency_ms.begin(),
                         client.flood_latency_ms.end());
  }

  // Bounded queues, and visible shedding, deadlines and watchdog.
  for (const SessionQueueStats& q : queues) {
    EXPECT_LE(q.peak_depth, kQueueBound);
  }
  EXPECT_GT(storm_stats.commands_shed, 0u);
  EXPECT_GT(storm_stats.deadline_exceeded, 0u);
  EXPECT_TRUE(retry_hint_seen) << "no kOverloaded refusal carried a hint";
  EXPECT_GT(watchdog.scans, 0u);

  // No command waited unboundedly behind the flood.
  EXPECT_LT(percentile(script_latency, 0.99), 10000.0);
  EXPECT_LT(percentile(flood_latency, 0.99), 10000.0);
}

}  // namespace
}  // namespace ifet
