#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "core/dataspace.hpp"
#include "core/iatf.hpp"
#include "io/compressed.hpp"
#include "core/tracking.hpp"
#include "stream/cache_manager.hpp"
#include "stream/derived_cache.hpp"
#include "stream/fault_injection.hpp"
#include "stream/streamed_sequence.hpp"
#include "stream/volume_store.hpp"
#include "test_helpers.hpp"
#include "util/alloc_guard.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"

// Counting operator new/delete for this binary: the warm-hit contract
// below asserts the IFET_HOT cache lookup never allocates.
IFET_ALLOC_GUARD_INSTALL();

namespace ifet {
namespace {

constexpr Dims kDims{4, 4, 4};
constexpr std::size_t kStepBytes = 64 * sizeof(float);  // 4*4*4 floats

VolumeF step_volume(int step) {
  VolumeF v(kDims);
  v.fill(static_cast<float>(step) / 100.0f);
  return v;
}

std::shared_ptr<CallbackSource> counter_source(int steps) {
  return std::make_shared<CallbackSource>(
      kDims, steps, std::pair<double, double>{0.0, 1.0},
      [](int step) { return step_volume(step); });
}

using testing::drifting_blob_source;

// ---------------------------------------------------------------------------
// CacheManager

TEST(CacheManager, LruEvictionOrder) {
  StreamCounters counters;
  CacheManager cache(counters, 3 * kStepBytes);
  cache.insert(0, step_volume(0));
  cache.insert(1, step_volume(1));
  cache.insert(2, step_volume(2));
  EXPECT_EQ(cache.lru_order(), (std::vector<int>{2, 1, 0}));

  // A hit moves the step to the front.
  EXPECT_NE(cache.lookup(0), nullptr);
  EXPECT_EQ(cache.lru_order(), (std::vector<int>{0, 2, 1}));

  // Over budget: the least recently used unpinned step (1) goes.
  cache.insert(3, step_volume(3));
  EXPECT_EQ(cache.lru_order(), (std::vector<int>{3, 0, 2}));
  EXPECT_FALSE(cache.resident(1));
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheManager, ByteAccounting) {
  StreamCounters counters;
  CacheManager cache(counters, 3 * kStepBytes);
  for (int s = 0; s < 8; ++s) cache.insert(s, step_volume(s));
  EXPECT_EQ(cache.resident_steps(), 3u);
  EXPECT_EQ(cache.resident_bytes(), 3 * kStepBytes);
  EXPECT_LE(cache.stats().peak_bytes_resident, 3 * kStepBytes);
  EXPECT_EQ(cache.stats().evictions, 5u);
}

TEST(CacheManager, UnlimitedBudgetNeverEvicts) {
  StreamCounters counters;
  CacheManager cache(counters, 0);
  for (int s = 0; s < 32; ++s) cache.insert(s, step_volume(s));
  EXPECT_EQ(cache.resident_steps(), 32u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(CacheManager, PinnedEntrySurvivesEviction) {
  StreamCounters counters;
  CacheManager cache(counters, 2 * kStepBytes);
  cache.insert(0, step_volume(0));
  cache.pin(0);
  cache.insert(1, step_volume(1));
  cache.insert(2, step_volume(2));  // would evict 0 (LRU) were it unpinned
  EXPECT_TRUE(cache.resident(0));
  EXPECT_FALSE(cache.resident(1));

  cache.unpin(0);
  cache.insert(3, step_volume(3));  // now 0 is evictable again
  EXPECT_FALSE(cache.resident(0));
}

TEST(CacheManager, PinOnNonResidentStepAppliesAtInsert) {
  StreamCounters counters;
  CacheManager cache(counters, 2 * kStepBytes);
  cache.pin(5);
  for (int s = 0; s < 8; ++s) cache.insert(s, step_volume(s));
  EXPECT_TRUE(cache.resident(5));
}

TEST(CacheManager, WindowPinningProtectsTheWindow) {
  StreamCounters counters;
  CacheManager cache(counters, 3 * kStepBytes);
  for (int s = 1; s <= 3; ++s) cache.pin(s);
  for (int s = 0; s < 6; ++s) cache.insert(s, step_volume(s));
  EXPECT_TRUE(cache.resident(1));
  EXPECT_TRUE(cache.resident(2));
  EXPECT_TRUE(cache.resident(3));
  EXPECT_EQ(cache.stats().pinned_steps, 3u);

  // Moving the window releases the old steps to the LRU policy...
  for (int s = 4; s <= 5; ++s) cache.pin(s);
  for (int s = 1; s <= 3; ++s) cache.unpin(s);
  cache.insert(6, step_volume(6));
  cache.insert(7, step_volume(7));
  EXPECT_FALSE(cache.resident(1));

  // ... and protects the new window steps once they are (re)inserted.
  cache.insert(4, step_volume(4));
  cache.insert(5, step_volume(5));
  cache.insert(8, step_volume(8));
  EXPECT_TRUE(cache.resident(4));
  EXPECT_TRUE(cache.resident(5));
}

TEST(CacheManager, UnpinEvictsOverBudget) {
  StreamCounters counters;
  CacheManager cache(counters, 2 * kStepBytes);
  for (int s = 0; s < 3; ++s) {
    cache.pin(s);
    cache.insert(s, step_volume(s));
  }
  // Pinned entries overshoot the budget by design...
  EXPECT_EQ(cache.resident_bytes(), 3 * kStepBytes);
  // ...and releasing one gives the bytes back at once, not at the next
  // insert.
  cache.unpin(0);
  EXPECT_FALSE(cache.resident(0));
  EXPECT_EQ(cache.resident_bytes(), 2 * kStepBytes);
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(CacheManager, WarmHitsAllocateNothing) {
  // The LRU refresh on a hit is a list splice, not erase + push_front.
  StreamCounters counters;
  CacheManager cache(counters, 3 * kStepBytes);
  for (int s = 0; s < 3; ++s) cache.insert(s, step_volume(s), false);
  (void)cache.lookup(0);  // one hit before the guarded window opens
  std::size_t hits = 0;
  const DenyAllocScope guard;
  for (int pass = 0; pass < 64; ++pass) {
    for (int s = 0; s < 3; ++s) {
      if (cache.lookup(s) != nullptr) ++hits;
    }
  }
  const std::uint64_t allocations = guard.allocations();
  EXPECT_EQ(hits, 64u * 3u);
  EXPECT_EQ(allocations, 0u);
}

TEST(CacheManager, EvictionKeepsReaderReferencesAlive) {
  StreamCounters counters;
  CacheManager cache(counters, 1 * kStepBytes);
  auto held = cache.insert(0, step_volume(0));
  cache.insert(1, step_volume(1));  // evicts 0
  EXPECT_FALSE(cache.resident(0));
  ASSERT_NE(held, nullptr);
  EXPECT_FLOAT_EQ(held->at(0, 0, 0), 0.0f);  // still readable
}

// ---------------------------------------------------------------------------
// VolumeStore

TEST(VolumeStore, EvictedStepReloadsWithIdenticalContent) {
  auto source = counter_source(8);
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 2 * kStepBytes;
  cfg.lookahead = 0;
  cfg.async_prefetch = false;
  VolumeStore store(source, cfg);

  auto first = store.fetch(0);
  store.fetch(1);
  store.fetch(2);  // evicts 0
  auto reloaded = store.fetch(0);
  ASSERT_NE(reloaded, nullptr);
  for (std::size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i], (*reloaded)[i]);
  }
  EXPECT_GT(store.stats().evictions, 0u);
}

TEST(VolumeStore, SequentialScanPrefetchHitRate) {
  auto source = counter_source(8);
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 3 * kStepBytes;
  cfg.lookahead = 2;
  cfg.async_prefetch = false;  // deterministic synchronous lookahead
  VolumeStore store(source, cfg);

  for (int s = 0; s < 8; ++s) {
    EXPECT_FLOAT_EQ(store.fetch(s)->at(0, 0, 0),
                    static_cast<float>(s) / 100.0f);
  }
  const StreamStats stats = store.stats();
  // Only step 0 is a demand load; lookahead 2 covers every later step.
  EXPECT_EQ(stats.demand_loads, 1u);
  EXPECT_EQ(stats.prefetch_hits, 7u);
  EXPECT_DOUBLE_EQ(stats.prefetch_hit_rate(), 7.0 / 8.0);
  EXPECT_GT(stats.evictions, 0u);
}

TEST(VolumeStore, AsyncPrefetchScanIsCorrectAndCovered) {
  auto source = counter_source(12);
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 3 * kStepBytes;
  cfg.lookahead = 2;
  cfg.async_prefetch = true;
  VolumeStore store(source, cfg);

  for (int s = 0; s < 12; ++s) {
    EXPECT_FLOAT_EQ(store.fetch(s)->at(0, 0, 0),
                    static_cast<float>(s) / 100.0f);
  }
  // fetch() waits on in-flight prefetches, so coverage is deterministic
  // even with the decodes running on the pool.
  const StreamStats stats = store.stats();
  EXPECT_EQ(stats.demand_loads, 1u);
  EXPECT_GE(stats.prefetch_hit_rate(), 0.5);
}

TEST(StreamedSequence, HintWindowKeepsStepsResident) {
  auto source = counter_source(8);
  StreamConfig cfg;
  cfg.budget_bytes = 3 * kStepBytes;
  cfg.lookahead = 0;
  cfg.async_prefetch = false;
  StreamedSequence seq(source, cfg);
  VolumeStore& store = seq.store();

  seq.hint_window(2, 4);  // prefetches the window synchronously
  for (int s : {2, 3, 4}) EXPECT_TRUE(store.cache().resident(s));
  store.fetch(6);
  store.fetch(7);
  for (int s : {2, 3, 4}) EXPECT_TRUE(store.cache().resident(s));
}

TEST(VolumeStore, BrickIndexServedFromContainerWithoutDecode) {
  const std::string path = "/tmp/ifet_stream_bricks.cvol";
  auto generator = counter_source(5);
  write_compressed_sequence(*generator, path);

  VolumeStoreConfig cfg;
  cfg.lookahead = 0;
  cfg.async_prefetch = false;
  VolumeStore store(std::make_shared<CompressedFileSource>(path), cfg);
  const auto bricks = store.brick_index(3);
  ASSERT_NE(bricks, nullptr);
  EXPECT_EQ(bricks->volume_dims(), kDims);
  // The v2 container serves the index from its brick section: no payload
  // was decoded, and the memo absorbs repeat lookups.
  EXPECT_EQ(store.load_count(), 0u);
  EXPECT_EQ(store.brick_metadata_reads(), 1u);
  EXPECT_EQ(store.brick_builds(), 0u);
  EXPECT_EQ(store.brick_index(3).get(), bricks.get());
  EXPECT_EQ(store.brick_metadata_reads(), 1u);
  std::remove(path.c_str());
}

bool same_voxels(const VolumeF& a, const VolumeF& b) {
  return a.dims() == b.dims() && a.size() == b.size() &&
         std::equal(a.data().begin(), a.data().end(), b.data().begin());
}

/// A 12-step 16^3 .cvol of distinct random steps at `path`.
std::shared_ptr<CompressedFileSource> random_cvol(const std::string& path) {
  const Dims dims{16, 16, 16};
  CallbackSource steps(dims, 12, {0.0, 1.0}, [dims](int step) {
    return testing::random_volume(dims, 900 + static_cast<unsigned>(step));
  });
  write_compressed_sequence(steps, path);
  return std::make_shared<CompressedFileSource>(path);
}

VolumeStoreConfig two_step_scan() {
  VolumeStoreConfig cfg;
  cfg.budget_bytes = 2 * 16 * 16 * 16 * sizeof(float);
  cfg.lookahead = 1;
  cfg.async_prefetch = false;
  return cfg;
}

TEST(VolumeStore, HeldStepSurvivesEvictionWhileLoadsRecycle) {
  const std::string path = "/tmp/ifet_stream_held.cvol";
  auto source = random_cvol(path);
  VolumeStore store(source, two_step_scan());
  const std::shared_ptr<const VolumeF> held = store.fetch(0);
  for (int s = 1; s <= 10; ++s) (void)store.fetch(s);
  EXPECT_FALSE(store.cache().resident(0));
  // Recycling ran while step 0 was held, yet never took its buffer.
  EXPECT_GT(store.stats().recycled_loads, 0u);
  EXPECT_TRUE(same_voxels(*held, source->generate(0)));
  std::remove(path.c_str());
}

TEST(VolumeStore, TightBudgetScanDecodesIntoSpares) {
  const std::string path = "/tmp/ifet_stream_spares.cvol";
  auto source = random_cvol(path);
  VolumeStore store(source, two_step_scan());
  for (int s = 0; s < 12; ++s) {
    EXPECT_TRUE(same_voxels(*store.fetch(s), source->generate(s)))
        << "step " << s;
  }
  // Every load after the first few finds the buffer of an evicted step.
  const StreamStats stats = store.stats();
  EXPECT_EQ(store.load_count(), 12u);
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(stats.recycled_loads, 0u);
  EXPECT_LE(stats.recycled_loads, store.load_count());
  std::remove(path.c_str());
}

TEST(VolumeStore, BrickIndexFallbackBuildsFromDecodedStep) {
  // A procedural source has no container metadata; the store must build
  // the index from the fetched step — once.
  auto source = counter_source(4);
  VolumeStoreConfig cfg;
  cfg.lookahead = 0;
  cfg.async_prefetch = false;
  VolumeStore store(source, cfg);
  const auto bricks = store.brick_index(1);
  ASSERT_NE(bricks, nullptr);
  EXPECT_EQ(store.brick_metadata_reads(), 0u);
  EXPECT_EQ(store.brick_builds(), 1u);
  EXPECT_EQ(store.load_count(), 1u);
  EXPECT_EQ(store.brick_index(1).get(), bricks.get());
  EXPECT_EQ(store.brick_builds(), 1u);

  // StreamedSequence exposes the same index to the renderer.
  StreamedSequence seq(source, {});
  const auto via_seq = seq.brick_index(1);
  ASSERT_NE(via_seq, nullptr);
  EXPECT_EQ(via_seq->volume_dims(), kDims);
}

// ---------------------------------------------------------------------------
// DerivedCache

TEST(DerivedCache, MemoizesPerStepAndParams) {
  StreamCounters counters;
  DerivedCache cache(counters);
  int computes = 0;
  auto compute = [&] {
    ++computes;
    return Histogram::of(step_volume(1), 16, 0.0, 1.0);
  };
  auto a = cache.histogram(1, 42, compute);
  auto b = cache.histogram(1, 42, compute);
  EXPECT_EQ(computes, 1);
  EXPECT_EQ(a.get(), b.get());

  cache.histogram(2, 42, compute);   // different step
  cache.histogram(1, 43, compute);   // different params hash
  EXPECT_EQ(computes, 3);
  EXPECT_EQ(counters.snapshot().derived_hits, 1u);
  EXPECT_EQ(counters.snapshot().derived_misses, 3u);
}

TEST(DerivedCache, TransferFunctionsShareAcrossCriteria) {
  auto source = drifting_blob_source(Dims{8, 8, 8}, 4);
  StreamedSequence sequence(source);
  Iatf iatf(sequence);
  TransferFunction1D key(0.0, 1.0);
  key.add_band(0.5, 1.0, 0.9, 0.05);
  iatf.add_key_frame(0, key);
  iatf.train(5);

  StreamCounters counters;
  DerivedCache derived(counters);
  AdaptiveTfCriterion a(iatf, 0.25, &derived);
  AdaptiveTfCriterion b(iatf, 0.25, &derived);
  a.accept(1, 0.7);
  b.accept(1, 0.7);  // second criterion reuses the memoized TF
  EXPECT_EQ(counters.snapshot().derived_hits, 1u);
}

TEST(Iatf, ParamsHashChangesWithTraining) {
  auto source = drifting_blob_source(Dims{8, 8, 8}, 4);
  StreamedSequence sequence(source);
  Iatf iatf(sequence);
  TransferFunction1D key(0.0, 1.0);
  key.add_band(0.5, 1.0, 0.9, 0.05);
  iatf.add_key_frame(0, key);
  const std::uint64_t before = iatf.params_hash();
  iatf.train(3);
  EXPECT_NE(iatf.params_hash(), before);
  iatf.add_key_frame(3, key);
  EXPECT_NE(iatf.params_hash(), before);
}

// ---------------------------------------------------------------------------
// StreamedSequence

TEST(StreamedSequence, MatchesSourceUnderTightBudget) {
  const int steps = 10;
  auto source = counter_source(steps);
  StreamConfig cfg;
  cfg.budget_bytes = 3 * kStepBytes;
  cfg.async_prefetch = false;
  StreamedSequence seq(source, cfg);

  for (int s = 0; s < steps; ++s) {
    EXPECT_FLOAT_EQ(seq.step(s).at(1, 2, 3), static_cast<float>(s) / 100.0f);
  }
  EXPECT_GT(seq.stats().evictions, 0u);
  EXPECT_LE(seq.stats().peak_bytes_resident, cfg.budget_bytes);
}

TEST(StreamedSequence, WindowReferencesStayValid) {
  auto source = counter_source(10);
  StreamConfig cfg;
  cfg.budget_bytes = 2 * kStepBytes;  // tighter than the pinned window
  cfg.pin_radius = 1;
  cfg.async_prefetch = false;
  StreamedSequence seq(source, cfg);

  seq.hint_window(3, 5);
  const VolumeF& a = seq.step(3);
  const VolumeF& b = seq.step(4);
  const VolumeF& c = seq.step(5);
  // All three window references remain readable together.
  EXPECT_FLOAT_EQ(a.at(0, 0, 0), 0.03f);
  EXPECT_FLOAT_EQ(b.at(0, 0, 0), 0.04f);
  EXPECT_FLOAT_EQ(c.at(0, 0, 0), 0.05f);
}

TEST(StreamedSequence, HistogramsMemoizedAcrossEviction) {
  auto source = counter_source(8);
  StreamConfig cfg;
  cfg.budget_bytes = 2 * kStepBytes;
  cfg.async_prefetch = false;
  StreamedSequence seq(source, cfg);

  const CumulativeHistogram& ch = seq.cumulative_histogram(0);
  const double f = ch.fraction_at(0.5);
  for (int s = 0; s < 8; ++s) seq.step(s);  // evicts step 0's voxels
  const std::size_t loads = seq.generation_count();
  // Asking again must hit the derived cache, not reload the volume.
  EXPECT_DOUBLE_EQ(seq.cumulative_histogram(0).fraction_at(0.5), f);
  EXPECT_EQ(seq.generation_count(), loads);
  EXPECT_GT(seq.stats().derived_hits, 0u);
}

TEST(StreamedSequence, RejectsInvertedWindowHint) {
  // Both constructors: a private tier and a client of a shared one.
  auto source = counter_source(4);
  StreamTier tier(source);
  StreamedSequence single(source);
  StreamedSequence client(tier);
  for (const StreamedSequence* seq : {&single, &client}) {
    EXPECT_THROW(seq->hint_window(3, 1), Error);
    // Windows that miss the sequence clamp to an inverted one.
    EXPECT_THROW(seq->hint_window(4, 6), Error);
    EXPECT_THROW(seq->hint_window(-3, -1), Error);
    EXPECT_EQ(seq->admission_stats().pinned_steps, 0u);
  }
  EXPECT_EQ(tier.stats().pinned_steps, 0u);
}

// Window pins are admitted nearest the center first, ties to the earlier
// step, until the quota is spent; the rest of the window is denied a pin.
TEST(AdmissionController, AdmitsCenterOutUntilTheQuota) {
  AdmissionController admission(kStepBytes, 4 * kStepBytes, 16);
  const int client = admission.register_client();
  const WindowDelta delta = admission.set_window(client, 0, 9, 5);
  EXPECT_EQ(delta.pin, (std::vector<int>{3, 4, 5, 6}));
  EXPECT_TRUE(delta.unpin.empty());
  EXPECT_EQ(delta.denied, (std::vector<int>{0, 1, 2, 7, 8, 9}));
  EXPECT_EQ(admission.client_stats(client).denied_pins, 6u);
}

// Two clients move their windows over shared steps at once, on a tier whose
// budget is below their joint windows. Each client applies its own pin
// deltas under its window mutex, and the cache counts pins, so the two
// clients' deltas may reach the cache in any order: no unpin finds its step
// unpinned, and once both clients are gone no step is pinned.
TEST(StreamedSequence, CrossClientWindowMovesKeepPinsBalanced) {
  const int steps = 8;
  StreamTierConfig config;
  config.budget_bytes = 4 * kStepBytes;
  config.pin_quota_bytes = 3 * kStepBytes;
  config.lookahead = 0;
  config.async_prefetch = false;
  StreamTier tier(counter_source(steps), config);
  std::atomic<int> errors{0};
  {
    const StreamedSequence a(tier);
    const StreamedSequence b(tier);
    auto flip = [&errors](const StreamedSequence& seq, int phase) {
      for (int i = 0; i < 2000; ++i) {
        const int lo = (i + phase) % (steps - 2);
        try {
          seq.hint_window(lo, lo + 2);      // 3 + 3 pins on a 4-step budget
          seq.hint_window(lo + 1, lo + 1);
        } catch (const Error&) {
          errors.fetch_add(1, std::memory_order_relaxed);
        }
      }
    };
    std::thread first([&] { flip(a, 0); });
    std::thread second([&] { flip(b, 1); });
    first.join();
    second.join();
  }
  EXPECT_EQ(errors.load(), 0);
  // Load every step: a pin left on a step that was not resident applies
  // at insert, so it would show here too.
  for (int s = 0; s < steps; ++s) (void)tier.store().fetch(s);
  EXPECT_EQ(tier.stats().pinned_steps, 0u);
}

// ---------------------------------------------------------------------------
// Counter snapshots: every counter field of a tier, of its clients and of
// their admission ledgers is pinned, so any change to what the stream tier
// counts, or where, changes a number here. Decode timings are wall clock:
// only "> 0 where any decode was timed" is pinned.

void expect_counters(const StreamStats& got, const StreamStats& want) {
  EXPECT_EQ(got.hits, want.hits);
  EXPECT_EQ(got.misses, want.misses);
  EXPECT_EQ(got.evictions, want.evictions);
  EXPECT_EQ(got.prefetch_issued, want.prefetch_issued);
  EXPECT_EQ(got.prefetch_hits, want.prefetch_hits);
  EXPECT_EQ(got.demand_loads, want.demand_loads);
  EXPECT_EQ(got.recycled_loads, want.recycled_loads);
  EXPECT_EQ(got.derived_hits, want.derived_hits);
  EXPECT_EQ(got.derived_misses, want.derived_misses);
  EXPECT_EQ(got.budget_bytes, want.budget_bytes);
  EXPECT_EQ(got.bytes_resident, want.bytes_resident);
  EXPECT_EQ(got.peak_bytes_resident, want.peak_bytes_resident);
  EXPECT_EQ(got.pinned_steps, want.pinned_steps);
  for (const auto& [g, w] :
       {std::pair{got.demand_decode_seconds, want.demand_decode_seconds},
        std::pair{got.prefetch_decode_seconds,
                  want.prefetch_decode_seconds}}) {
    if (w > 0.0) {
      EXPECT_GT(g, 0.0);
    } else {
      EXPECT_EQ(g, 0.0);
    }
  }
  EXPECT_EQ(got.retries, want.retries);
  EXPECT_EQ(got.load_failures, want.load_failures);
  EXPECT_EQ(got.prefetch_failures, want.prefetch_failures);
  EXPECT_EQ(got.checksum_failures, want.checksum_failures);
  EXPECT_EQ(got.quarantined_steps, want.quarantined_steps);
  EXPECT_EQ(got.skipped_fetches, want.skipped_fetches);
  EXPECT_EQ(got.nearest_good_substitutions, want.nearest_good_substitutions);
  EXPECT_EQ(got.commands_rejected, want.commands_rejected);
  EXPECT_EQ(got.commands_shed, want.commands_shed);
  EXPECT_EQ(got.deadline_exceeded, want.deadline_exceeded);
}

void expect_admission(const AdmissionStats& got, const AdmissionStats& want) {
  EXPECT_EQ(got.denied_pins, want.denied_pins);
  EXPECT_EQ(got.reloads, want.reloads);
  EXPECT_EQ(got.pinned_steps, want.pinned_steps);
  EXPECT_EQ(got.pinned_bytes, want.pinned_bytes);
}


TEST(StreamCounters, SnapshotsArePinned) {
  {
    SCOPED_TRACE("single-user sequence");
    StreamConfig cfg;
    cfg.budget_bytes = 3 * kStepBytes;
    cfg.lookahead = 2;
    cfg.async_prefetch = false;
    StreamedSequence seq(counter_source(8), cfg);
    for (int s = 0; s < 8; ++s) (void)seq.step(s);
    (void)seq.step(3);  // evicted since: a reload
    seq.hint_window(5, 7);
    for (int s = 0; s < 4; ++s) (void)seq.histogram(s);
    for (int s = 2; s < 6; ++s) (void)seq.cumulative_histogram(s);

    // A procedural source ignores the spare buffers it is offered, so no
    // load counts as recycled.
    expect_counters(seq.stats(),
                    {.hits = 6, .misses = 11, .evictions = 35,
                     .prefetch_hits = 5, .demand_loads = 11,
                     .recycled_loads = 0, .derived_misses = 8,
                     .budget_bytes = 768,
                     .bytes_resident = 768, .peak_bytes_resident = 768,
                     .pinned_steps = 3, .demand_decode_seconds = 1.0});
    expect_counters(seq.client_stats().snapshot(),
                    {.hits = 5, .misses = 4, .derived_misses = 8});
    expect_admission(seq.admission_stats(),
                     {.pinned_steps = 3, .pinned_bytes = 768});
  }
  {
    SCOPED_TRACE("two server sessions");
    const Dims dims{8, 8, 8};
    const int steps = 6;
    SessionManagerConfig config;
    config.tier.budget_bytes = 3 * dims.count() * sizeof(float);
    config.tier.async_prefetch = false;
    SessionManager manager(drifting_blob_source(dims, steps), config);
    const int a = manager.create_session();
    const int b = manager.create_session();
    for (const Command& command : testing::canonical_script(dims, steps)) {
      ASSERT_TRUE(manager.execute(a, command).ok);
      ASSERT_TRUE(manager.execute(b, command).ok);
    }

    // The script's kTrack sweeps its steps in order and leaves the
    // tracker's five-step window pinned (one behind, three ahead).
    expect_counters(manager.tier().stats(),
                    {.hits = 26, .misses = 3, .evictions = 18,
                     .prefetch_hits = 9, .demand_loads = 3,
                     .recycled_loads = 0, .derived_hits = 34,
                     .derived_misses = 12,
                     .budget_bytes = 6144, .bytes_resident = 10240,
                     .peak_bytes_resident = 12288, .pinned_steps = 5,
                     .demand_decode_seconds = 1.0});
    expect_counters(
        manager.session_stats(a),
        {.hits = 11, .misses = 0, .derived_hits = 8, .derived_misses = 12});
    expect_counters(manager.session_stats(b),
                    {.hits = 11, .misses = 0, .derived_hits = 14});
    expect_admission(manager.session_admission(a),
                     {.reloads = 0, .pinned_steps = 5, .pinned_bytes = 10240});
    expect_admission(manager.session_admission(b),
                     {.reloads = 0, .pinned_steps = 5, .pinned_bytes = 10240});
  }
}

// The fault counters under each FailPolicy. The tier's skipped_fetches and
// nearest_good_substitutions count the policy outcomes of its clients, not
// every quarantined fetch: the nearest-good probes and the histogram's
// substitution below are not outcomes.
TEST(StreamCounters, FaultCountersCountPolicyOutcomes) {
  const Dims dims{8, 8, 8};
  const int steps = 8;
  struct Case {
    FailPolicy policy;
    int thrown;
    StreamStats tier;
    StreamStats client;
  };
  // Step 5 is quarantined by the lookahead of step 3; every other step
  // retries its one transient fault.
  const Case cases[] = {
      {FailPolicy::kThrow, 1,
       {.hits = 5, .misses = 3, .evictions = 10, .prefetch_hits = 5,
        .demand_loads = 3, .derived_misses = 1, .budget_bytes = 6144,
        .bytes_resident = 6144, .peak_bytes_resident = 6144,
        .pinned_steps = 2, .demand_decode_seconds = 1.0, .retries = 9,
        .load_failures = 1, .quarantined_steps = 1},
       {.hits = 5, .misses = 3, .derived_misses = 1}},
      {FailPolicy::kSkipStep, 0,
       {.hits = 5, .misses = 3, .evictions = 10, .prefetch_hits = 5,
        .demand_loads = 3, .derived_misses = 1, .budget_bytes = 6144,
        .bytes_resident = 6144, .peak_bytes_resident = 6144,
        .pinned_steps = 2, .demand_decode_seconds = 1.0, .retries = 9,
        .load_failures = 1, .quarantined_steps = 1, .skipped_fetches = 1},
       {.hits = 5, .misses = 3, .derived_misses = 1, .skipped_fetches = 1}},
      {FailPolicy::kNearestGood, 0,
       {.hits = 6, .misses = 3, .evictions = 9, .prefetch_hits = 5,
        .demand_loads = 3, .derived_misses = 1, .budget_bytes = 6144,
        .bytes_resident = 6144, .peak_bytes_resident = 6144,
        .pinned_steps = 1, .demand_decode_seconds = 1.0, .retries = 9,
        .load_failures = 1, .quarantined_steps = 1,
        .nearest_good_substitutions = 1},
       {.hits = 5, .misses = 3, .derived_misses = 1,
        .nearest_good_substitutions = 1}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(fail_policy_name(c.policy));
    StreamConfig cfg;
    cfg.budget_bytes = 3 * dims.count() * sizeof(float);
    cfg.lookahead = 2;
    cfg.async_prefetch = false;
    cfg.fail_policy = c.policy;
    StreamedSequence seq(
        std::make_shared<FaultInjectingSource>(
            drifting_blob_source(dims, steps),
            parse_fault_schedule("transient@all:1,corrupt@5")),
        cfg);
    int thrown = 0;
    for (int s = 0; s < steps; ++s) {
      try {
        (void)seq.try_step(s);
      } catch (const CorruptDataError&) {
        ++thrown;
      }
    }
    // Derived products substitute under every policy; not an outcome.
    (void)seq.histogram(5);

    EXPECT_EQ(thrown, c.thrown);
    const StreamStats tier = seq.stats();
    const StreamStats client = seq.client_stats().snapshot();
    expect_counters(tier, c.tier);
    expect_counters(client, c.client);
    EXPECT_EQ(tier.skipped_fetches, client.skipped_fetches);
    EXPECT_EQ(tier.nearest_good_substitutions,
              client.nearest_good_substitutions);
  }
}

/// The acceptance bar: IATF, classification, and tracking produce
/// bit-identical results with budget = unlimited and budget = 3 steps.
class StreamedEquivalence : public ::testing::Test {
 protected:
  static constexpr int kSteps = 6;
  Dims dims_{8, 8, 8};

  void SetUp() override {
    source_ = drifting_blob_source(dims_, kSteps);
    resident_ = std::make_unique<StreamedSequence>(source_);
    StreamConfig cfg;
    cfg.budget_bytes = 3 * dims_.count() * sizeof(float);
    cfg.async_prefetch = false;
    streamed_ = std::make_unique<StreamedSequence>(source_, cfg);
  }

  std::shared_ptr<CallbackSource> source_;
  std::unique_ptr<StreamedSequence> resident_;
  std::unique_ptr<StreamedSequence> streamed_;
};

TEST_F(StreamedEquivalence, IatfTransferFunctionsIdentical) {
  auto train = [&](const VolumeSequence& seq) {
    Iatf iatf(seq);
    TransferFunction1D key(0.0, 1.0);
    key.add_band(0.5, 1.0, 0.9, 0.05);
    iatf.add_key_frame(0, key);
    iatf.add_key_frame(kSteps - 1, key);
    iatf.train(30);
    return iatf.evaluate(kSteps / 2);
  };
  TransferFunction1D a = train(*resident_);
  TransferFunction1D b = train(*streamed_);
  for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
    ASSERT_EQ(a.opacity_entry(e), b.opacity_entry(e)) << "entry " << e;
  }
}

TEST_F(StreamedEquivalence, ClassifierCertaintyIdentical) {
  auto classify = [&](const VolumeSequence& seq) {
    DataSpaceClassifier c(seq.num_steps(), 0.0, 1.0);
    std::vector<PaintedVoxel> painted;
    painted.push_back({Index3{2, 4, 4}, 0, 1.0});  // on the blob
    painted.push_back({Index3{7, 0, 0}, 0, 0.0});  // background
    c.add_samples(seq, 0, painted);
    c.train(20);
    return c.classify(seq, 1);
  };
  VolumeF a = classify(*resident_);
  VolumeF b = classify(*streamed_);
  ASSERT_TRUE(a.dims() == b.dims());
  for (std::size_t i = 0; i < a.size(); ++i) ASSERT_EQ(a[i], b[i]);
}

TEST_F(StreamedEquivalence, TrackingMasksIdentical) {
  FixedRangeCriterion criterion(0.5, 1.0);
  const Index3 seed{2, 4, 4};
  TrackResult a = Tracker(*resident_, criterion).track(seed, 0);
  TrackResult b = Tracker(*streamed_, criterion).track(seed, 0);
  ASSERT_FALSE(a.masks.empty());
  ASSERT_EQ(a.masks.size(), b.masks.size());
  for (const auto& [step, mask] : a.masks) {
    auto it = b.masks.find(step);
    ASSERT_NE(it, b.masks.end()) << "step " << step;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      ASSERT_EQ(mask[i], it->second[i]) << "step " << step << " voxel " << i;
    }
  }
}

}  // namespace
}  // namespace ifet
