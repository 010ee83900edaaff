// Multi-tenant server tier (docs/SERVER.md): concurrent sessions over a
// shared streaming tier must be bitwise-indistinguishable from isolated
// single-user runs, derived products must dedup across clients without
// ever leaking across training states, admission must clamp pins (never
// data), and per-client fail policies must compose independently.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "io/checksum.hpp"
#include "server/session_manager.hpp"
#include "stream/fault_injection.hpp"
#include "stream/stream_tier.hpp"
#include "stream/streamed_sequence.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"

namespace ifet {
namespace {

constexpr Dims kDims{8, 8, 8};
constexpr std::size_t kStepBytes =
    static_cast<std::size_t>(8 * 8 * 8) * sizeof(float);

/// The shared drifting blob at this suite's size.
std::shared_ptr<CallbackSource> blob_source(int steps) {
  return testing::drifting_blob_source(kDims, steps);
}

std::uint32_t volume_crc(const VolumeF& v) {
  auto data = v.data();
  return crc32(data.data(), data.size() * sizeof(float));
}

// ---------------------------------------------------------------------------
// The headline contract: N concurrent clients on one tight-budget tier
// produce results bitwise identical to each client running alone on an
// unlimited-budget tier. Admission shapes residency, never data.

TEST(SessionManager, TwoClientsBitwiseMatchIsolated) {
  const int steps = 6;
  const std::vector<Command> script = testing::canonical_script(kDims, steps);

  SessionManagerConfig shared_config;
  shared_config.tier.budget_bytes = 3 * kStepBytes;  // tight: 3 of 6 steps
  shared_config.tier.pin_quota_bytes = 2 * kStepBytes;
  shared_config.tier.async_prefetch = true;
  shared_config.command_threads = 4;

  std::vector<std::vector<ServerResult>> shared(
      2, std::vector<ServerResult>(script.size()));
  {
    SessionManager manager(blob_source(steps), shared_config);
    const int a = manager.create_session();
    const int b = manager.create_session();
    for (std::size_t i = 0; i < script.size(); ++i) {
      manager.submit(a, script[i], [&shared, i](const ServerResult& r) {
        shared[0][i] = r;
      });
      manager.submit(b, script[i], [&shared, i](const ServerResult& r) {
        shared[1][i] = r;
      });
    }
    manager.drain_all();
  }
  testing::expect_match_isolated(kDims, steps, script, shared);
}

// Closed-loop load: each client's completion callback submits its next
// command from the strand, so four clients contend for a tight tier
// (3-step budget, 1-step pin quota) the whole time.
TEST(SessionManager, FourClosedLoopClientsMatchIsolated) {
  const Dims dims{16, 16, 16};
  const int steps = 8;
  const std::size_t step_bytes =
      static_cast<std::size_t>(dims.count()) * sizeof(float);
  const std::vector<Command> script = testing::canonical_script(dims, steps);

  SessionManagerConfig config;
  config.tier.budget_bytes = 3 * step_bytes;
  config.tier.pin_quota_bytes = 1 * step_bytes;
  config.tier.async_prefetch = true;

  constexpr std::size_t kClients = 4;
  std::vector<std::vector<ServerResult>> results(
      kClients, std::vector<ServerResult>(script.size()));
  StreamStats tier_stats;
  std::size_t derived_entries = 0;
  std::vector<AdmissionStats> admission;
  std::size_t pin_quota_bytes = 0;
  {
    SessionManager manager(testing::drifting_blob_source(dims, steps),
                           config);
    std::vector<int> ids;
    for (std::size_t c = 0; c < kClients; ++c) {
      ids.push_back(manager.create_session());
    }
    std::function<void(std::size_t, std::size_t)> submit_from =
        [&](std::size_t c, std::size_t i) {
          if (i == script.size()) return;
          manager.submit(ids[c], script[i],
                         [&submit_from, &results, c, i](const ServerResult& r) {
                           results[c][i] = r;
                           submit_from(c, i + 1);
                         });
        };
    for (std::size_t c = 0; c < kClients; ++c) submit_from(c, 0);
    // A chained submit lands before its strand goes idle, so this waits
    // for every script to finish.
    manager.drain_all();

    tier_stats = manager.tier().stats();
    derived_entries = manager.tier().derived().size();
    pin_quota_bytes = manager.tier().admission().pin_quota_bytes();
    for (const int id : ids) admission.push_back(manager.session_admission(id));
  }

  testing::expect_match_isolated(dims, steps, script, results);
  // Derived products dedup across clients, so the shared cache holds
  // fewer entries than it served requests.
  EXPECT_GT(tier_stats.derived_hits, 0u);
  EXPECT_LT(derived_entries,
            tier_stats.derived_hits + tier_stats.derived_misses);
  EXPECT_GT(tier_stats.evictions, 0u);
  std::uint64_t denied_pins = 0;
  for (const AdmissionStats& a : admission) {
    EXPECT_LE(a.pinned_bytes, pin_quota_bytes);
    denied_pins += a.denied_pins;
  }
  EXPECT_GT(denied_pins, 0u) << "the quota never denied a window pin";
}

// ---------------------------------------------------------------------------
// Cross-client dedup: identical sessions share derived products.

TEST(SessionManager, CrossClientDedupTfRequests) {
  const int steps = 4;
  SessionManager manager(blob_source(steps), {});
  const int a = manager.create_session();
  const int b = manager.create_session();

  Command key;
  key.kind = CommandKind::kSetKeyFrame;
  key.step = 0;
  Command query;
  query.kind = CommandKind::kQueryTf;

  // Same state (identical seeds, no training): one computes, one hits.
  ASSERT_TRUE(manager.execute(a, key).ok);
  ASSERT_TRUE(manager.execute(b, key).ok);
  const std::uint64_t a_misses_before = manager.session_stats(a).derived_misses;
  const std::uint64_t b_hits_before = manager.session_stats(b).derived_hits;
  for (int s = 0; s < steps; ++s) {
    query.step = s;
    const ServerResult ra = manager.execute(a, query);
    const ServerResult rb = manager.execute(b, query);
    ASSERT_TRUE(ra.ok && rb.ok);
    EXPECT_EQ(ra.digest, rb.digest);
  }
  // b's TF requests were all served from a's computed entries (b never
  // runs a compute lambda, so its delta is exactly the TF hits); a paid
  // at least one derived miss per step (the TF itself, plus whatever
  // cumulative histograms its compute lambdas pulled in).
  EXPECT_EQ(manager.session_stats(b).derived_hits,
            b_hits_before + static_cast<std::uint64_t>(steps));
  EXPECT_GE(manager.session_stats(a).derived_misses,
            a_misses_before + static_cast<std::uint64_t>(steps));

  // Histograms dedup across clients too (tier-global params hash).
  Command hist;
  hist.kind = CommandKind::kHistogram;
  hist.step = 1;
  ASSERT_TRUE(manager.execute(a, hist).ok);
  const std::uint64_t before = manager.session_stats(b).derived_hits;
  ASSERT_TRUE(manager.execute(b, hist).ok);
  EXPECT_EQ(manager.session_stats(b).derived_hits, before + 1);
}

// ---------------------------------------------------------------------------
// Satellite: DerivedCache invalidation is scoped to the retiring hash.

TEST(DerivedCache, InvalidateIsScopedToParamsHash) {
  StreamCounters counters;
  DerivedCache cache(counters);
  auto make_hist = [] { return Histogram(4, 0.0, 1.0); };
  auto h_a = cache.histogram(0, 111, make_hist);
  auto h_a1 = cache.histogram(1, 111, make_hist);
  auto h_b = cache.histogram(0, 222, make_hist);
  ASSERT_EQ(cache.size(), 3u);

  EXPECT_EQ(cache.invalidate(111), 2u);
  EXPECT_EQ(cache.size(), 1u);

  // Outstanding references stay valid after their entries were dropped.
  EXPECT_EQ(h_a->bins(), 4);
  EXPECT_EQ(h_a1->bins(), 4);

  // Hash 222 was never touched: still a hit.
  const StreamStats before = counters.snapshot();
  auto again = cache.histogram(0, 222, make_hist);
  EXPECT_EQ(counters.snapshot().derived_hits, before.derived_hits + 1);
  EXPECT_EQ(again.get(), h_b.get());
}

TEST(SessionManager, RetrainingInvalidatesOnlyOwnEntries) {
  const int steps = 3;
  SessionManager manager(blob_source(steps), {});
  const int a = manager.create_session();
  const int b = manager.create_session();

  Command key;
  key.kind = CommandKind::kSetKeyFrame;
  key.step = 0;
  ASSERT_TRUE(manager.execute(a, key).ok);
  ASSERT_TRUE(manager.execute(b, key).ok);

  Command query;
  query.kind = CommandKind::kQueryTf;
  for (int s = 0; s < steps; ++s) {
    query.step = s;
    ASSERT_TRUE(manager.execute(a, query).ok);
  }

  // a retrains and moves to a new params hash. b still sits at the shared
  // initial hash, so the entries must NOT be invalidated: b keeps hitting.
  Command train;
  train.kind = CommandKind::kTrainTf;
  train.epochs = 3;
  ASSERT_TRUE(manager.execute(a, train).ok);

  const std::uint64_t before_hits = manager.session_stats(b).derived_hits;
  for (int s = 0; s < steps; ++s) {
    query.step = s;
    ASSERT_TRUE(manager.execute(b, query).ok);
  }
  EXPECT_EQ(manager.session_stats(b).derived_hits,
            before_hits + static_cast<std::uint64_t>(steps));

  // a re-derives its TFs under the new hash...
  for (int s = 0; s < steps; ++s) {
    query.step = s;
    ASSERT_TRUE(manager.execute(a, query).ok);
  }
  const std::size_t entries_both = manager.tier().derived().size();

  // ...and when b finally moves off the initial hash (different training,
  // so a different destination hash), the initial-state TF entries are
  // orphaned and retired — while a's entries survive untouched.
  train.epochs = 5;
  ASSERT_TRUE(manager.execute(b, train).ok);
  EXPECT_LT(manager.tier().derived().size(), entries_both);

  const std::uint64_t a_hits = manager.session_stats(a).derived_hits;
  for (int s = 0; s < steps; ++s) {
    query.step = s;
    ASSERT_TRUE(manager.execute(a, query).ok);
  }
  EXPECT_EQ(manager.session_stats(a).derived_hits,
            a_hits + static_cast<std::uint64_t>(steps));
}

// ---------------------------------------------------------------------------
// Satellite: per-client fail policies compose on one shared tier.

TEST(SessionManager, PerClientFailPolicyComposes) {
  const int steps = 5;
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(steps), std::vector<FaultSpec>{parse_fault_spec("corrupt@2")});

  SessionManagerConfig config;
  config.tier.max_retries = 0;
  config.tier.lookahead = 0;
  config.tier.async_prefetch = false;
  // Drop the time feature so the nearest-good substitution (step 1's
  // voxels classified AT step 2) is comparable to classifying step 1.
  config.painting.classifier.spec.use_time = false;
  SessionManager manager(faulty, config);

  const int skipper = manager.create_session(FailPolicy::kSkipStep);
  const int nearest = manager.create_session(FailPolicy::kNearestGood);
  const int thrower = manager.create_session(FailPolicy::kThrow);

  Command classify;
  classify.kind = CommandKind::kClassify;
  classify.step = 2;

  // The nearest-good client bridges the quarantined step with step 1.
  const ServerResult near_first = manager.execute(nearest, classify);
  ASSERT_TRUE(near_first.ok) << near_first.error;
  Command classify1 = classify;
  classify1.step = 1;
  const ServerResult near_ref = manager.execute(nearest, classify1);
  ASSERT_TRUE(near_ref.ok);
  EXPECT_EQ(near_first.digest, near_ref.digest);
  EXPECT_GE(manager.session_stats(nearest).nearest_good_substitutions, 1u);

  // The skip client fails its request (classification needs exact voxels)...
  const ServerResult skipped = manager.execute(skipper, classify);
  EXPECT_FALSE(skipped.ok);
  EXPECT_GE(manager.session_stats(skipper).skipped_fetches, 1u);

  // ...as does the throwing client, with the quarantine surfaced.
  const ServerResult thrown = manager.execute(thrower, classify);
  EXPECT_FALSE(thrown.ok);
  EXPECT_NE(thrown.error.find("quarantined"), std::string::npos);

  // And neither altered the nearest-good client's view.
  const ServerResult near_again = manager.execute(nearest, classify);
  ASSERT_TRUE(near_again.ok);
  EXPECT_EQ(near_again.digest, near_first.digest);
  EXPECT_EQ(manager.session_stats(skipper).nearest_good_substitutions, 0u);
}

// ---------------------------------------------------------------------------
// Admission control: quotas clamp pins, never data.

TEST(StreamTier, AdmissionQuotaClampsPinsNotData) {
  const int steps = 8;
  StreamTierConfig config;
  config.budget_bytes = 3 * kStepBytes;
  config.pin_quota_bytes = 1 * kStepBytes;
  config.lookahead = 0;
  config.async_prefetch = false;
  StreamTier tier(blob_source(steps), config);

  StreamedSequence view(tier);
  view.hint_window(0, 5);

  const AdmissionStats admission = view.admission_stats();
  EXPECT_EQ(admission.pinned_steps, 1u);
  EXPECT_EQ(admission.pinned_bytes, kStepBytes);
  EXPECT_EQ(admission.denied_pins, 5u);

  // Every step still returns exact bytes despite the denied pins.
  auto source = blob_source(steps);
  for (int s = 0; s < 6; ++s) {
    EXPECT_EQ(volume_crc(view.step(s)), volume_crc(source->generate(s)));
  }

  // The one admitted pin (window center, step 2) survived the scan.
  EXPECT_TRUE(tier.store().cache().resident(2));
}

TEST(StreamTier, OverlappingClientPinsCompose) {
  const int steps = 8;
  StreamTierConfig config;
  config.budget_bytes = 4 * kStepBytes;
  config.lookahead = 0;
  config.async_prefetch = false;
  StreamTier tier(blob_source(steps), config);

  auto view_a = std::make_unique<StreamedSequence>(tier);
  auto view_b = std::make_unique<StreamedSequence>(tier);
  view_a->hint_window(2, 2);
  view_b->hint_window(2, 2);
  (void)view_a->step(2);

  // a releases its pin; b's counted pin keeps the step resident through a
  // third client's full scan (scanning through b itself would recenter
  // b's own window and release the very pin under test).
  view_a.reset();
  StreamedSequence scanner(tier);
  for (int s = 0; s < steps; ++s) (void)scanner.step(s);
  EXPECT_TRUE(tier.store().cache().resident(2));
}

// A hint window that misses the sequence is refused like an inverted one:
// the command fails and the session pins nothing.
TEST(SessionManager, OutOfRangeHintWindowIsRefused) {
  const int steps = 10;
  SessionManagerConfig config;
  config.tier.pin_quota_bytes = 3 * kStepBytes;
  SessionManager manager(blob_source(steps), config);
  const int id = manager.create_session();

  Command hint;
  hint.kind = CommandKind::kHintWindow;
  for (const auto& [lo, hi] : {std::pair{20, 25}, std::pair{-6, -2}}) {
    hint.window_lo = lo;
    hint.window_hi = hi;
    const ServerResult result = manager.execute(id, hint);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(manager.session_admission(id).pinned_steps, 0u);
  }
}

// ---------------------------------------------------------------------------
// StreamCounters is safe for concurrent multi-session use.

TEST(StreamCounters, ConcurrentCountersSumExactly) {
  StreamCounters stats;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&stats, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        (i % 2 == 0 ? stats.hits : stats.misses).add();
        (t % 2 == 0 ? stats.derived_hits : stats.derived_misses).add();
        if (i % 100 == 0) {
          // Readers interleave with writers; the snapshot must be a
          // plain value copy, never torn.
          (void)stats.snapshot();
        }
      }
    });
  }
  for (auto& t : threads) t.join();

  const StreamStats snap = stats.snapshot();
  EXPECT_EQ(snap.hits + snap.misses, kThreads * kPerThread);
  EXPECT_EQ(snap.hits, kThreads * kPerThread / 2);
  EXPECT_EQ(snap.derived_hits + snap.derived_misses, kThreads * kPerThread);
  EXPECT_NE(snap.summary().find("hit rate"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Strand semantics: per-session FIFO, submit-after-close rejected.

TEST(SessionManager, StrandPreservesPerSessionOrder) {
  const int steps = 4;
  SessionManager manager(blob_source(steps), {});
  const int id = manager.create_session();

  std::vector<int> order;
  Command hint;
  hint.kind = CommandKind::kHintWindow;
  for (int i = 0; i < 64; ++i) {
    hint.window_lo = i % steps;
    hint.window_hi = i % steps;
    // Callbacks of one session are serialized by the strand, so the
    // unsynchronized push_back is race-free by construction (TSan agrees).
    manager.submit(id, hint,
                   [&order, i](const ServerResult&) { order.push_back(i); });
  }
  manager.drain(id);
  ASSERT_EQ(order.size(), 64u);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);

  manager.close_session(id);
  EXPECT_EQ(manager.session_count(), 0u);
  EXPECT_THROW(manager.execute(id, hint), Error);
}

}  // namespace
}  // namespace ifet
