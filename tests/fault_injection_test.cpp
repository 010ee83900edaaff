// Fault-tolerant streaming (docs/ROBUSTNESS.md): typed IoError taxonomy,
// retry/backoff, quarantine + FailPolicy, and the deterministic
// FaultInjectingSource harness.
//
// The acceptance property lives here: a run where every step fails once
// transiently produces results IDENTICAL to a no-fault run (with
// stats.retries > 0 proving the retries actually happened), and a run
// with one permanently corrupt step finishes cleanly under kSkipStep /
// kNearestGood while kThrow surfaces the CorruptDataError.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "core/iatf.hpp"
#include "core/track_events.hpp"
#include "core/tracking.hpp"
#include "render/raycaster.hpp"
#include "stream/fault_injection.hpp"
#include "stream/streamed_sequence.hpp"
#include "stream/volume_store.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"
#include "volume/sequence.hpp"

namespace ifet {
namespace {

constexpr Dims kDims{8, 8, 8};
constexpr int kSteps = 6;

/// The shared drifting blob at this suite's size: IATF and tracking find
/// something at every step.
std::shared_ptr<CallbackSource> blob_source() {
  return testing::drifting_blob_source(kDims, kSteps);
}

/// Bitwise comparison: a flipped voxel can be NaN, and NaN != NaN would
/// make value comparison blind to "identical corruption".
bool volumes_equal(const VolumeF& a, const VolumeF& b) {
  if (!(a.dims() == b.dims())) return false;
  return std::memcmp(a.data().data(), b.data().data(),
                     a.size() * sizeof(float)) == 0;
}

/// Deterministic store config: synchronous lookahead, everything on the
/// calling thread.
VolumeStoreConfig sync_store_config() {
  VolumeStoreConfig c;
  c.lookahead = 1;
  c.async_prefetch = false;
  return c;
}

/// The sequence form of sync_store_config(), under `policy`.
StreamConfig sync_sequence_config(FailPolicy policy) {
  StreamConfig c;
  c.lookahead = 1;
  c.async_prefetch = false;
  c.fail_policy = policy;
  return c;
}

// ---------------------------------------------------------------------------
// Typed error taxonomy

TEST(IoErrorTaxonomy, DerivesFromIfetError) {
  // Legacy catch (const Error&) sites keep working across the typed
  // migration — the whole point of deriving the taxonomy from Error.
  EXPECT_THROW(throw TransientIoError("x"), IoError);
  EXPECT_THROW(throw TransientIoError("x"), Error);
  EXPECT_THROW(throw CorruptDataError("x"), IoError);
  EXPECT_THROW(throw CorruptDataError("x"), Error);
  EXPECT_THROW(throw NotFoundError("x"), IoError);
  EXPECT_THROW(throw NotFoundError("x"), Error);
}

// ---------------------------------------------------------------------------
// Fault schedule parsing (the --inject-faults CLI syntax)

TEST(FaultSchedule, ParsesKindStepAndCount) {
  FaultSpec spec = parse_fault_spec("transient@all");
  EXPECT_EQ(spec.kind, FaultKind::kTransient);
  EXPECT_EQ(spec.step, FaultSpec::kAllSteps);
  EXPECT_EQ(spec.count, 1);

  spec = parse_fault_spec("corrupt@7");
  EXPECT_EQ(spec.kind, FaultKind::kCorrupt);
  EXPECT_EQ(spec.step, 7);

  spec = parse_fault_spec("transient@3:2");
  EXPECT_EQ(spec.kind, FaultKind::kTransient);
  EXPECT_EQ(spec.step, 3);
  EXPECT_EQ(spec.count, 2);

  const auto schedule = parse_fault_schedule("transient@all,corrupt@2");
  ASSERT_EQ(schedule.size(), 2u);
  EXPECT_EQ(schedule[1].kind, FaultKind::kCorrupt);
}

TEST(FaultSchedule, RejectsMalformedSpecs) {
  EXPECT_THROW(parse_fault_spec("transient"), Error);
  EXPECT_THROW(parse_fault_spec("meteor@3"), Error);
  EXPECT_THROW(parse_fault_spec("transient@x"), Error);
  EXPECT_THROW(parse_fault_spec("transient@3:0"), Error);
  EXPECT_THROW(parse_fault_spec("transient@-2"), Error);
  EXPECT_THROW(parse_fault_schedule(""), Error);
}

// ---------------------------------------------------------------------------
// FaultInjectingSource

TEST(FaultInjectingSource, TransientFaultHealsAfterCount) {
  FaultInjectingSource source(blob_source(),
                              {{2, FaultKind::kTransient, 2}});
  EXPECT_NO_THROW(source.generate(1));  // other steps unaffected
  EXPECT_THROW(source.generate(2), TransientIoError);
  EXPECT_THROW(source.generate(2), TransientIoError);
  EXPECT_NO_THROW(source.generate(2));  // healed
  EXPECT_EQ(source.faults_fired(), 2u);
}

TEST(FaultInjectingSource, AllStepsCountIsPerStep) {
  // transient@all:1 = every step fails exactly once — the schedule the
  // fault-equivalence property runs on.
  FaultInjectingSource source(blob_source(),
                              {{FaultSpec::kAllSteps,
                                FaultKind::kTransient, 1}});
  for (int s = 0; s < kSteps; ++s) {
    EXPECT_THROW(source.generate(s), TransientIoError) << "step " << s;
    EXPECT_NO_THROW(source.generate(s)) << "step " << s;
  }
  EXPECT_EQ(source.faults_fired(), static_cast<std::uint64_t>(kSteps));
}

TEST(FaultInjectingSource, CorruptAndNotFoundNeverHeal) {
  FaultInjectingSource source(blob_source(),
                              {{1, FaultKind::kCorrupt, 1},
                               {2, FaultKind::kNotFound, 1}});
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_THROW(source.generate(1), CorruptDataError);
    EXPECT_THROW(source.generate(2), NotFoundError);
  }
}

TEST(FaultInjectingSource, BitFlipIsSilentAndDeterministic) {
  auto inner = blob_source();
  FaultInjectingSource source(inner, {{3, FaultKind::kBitFlip, 1}},
                              /*seed=*/77);
  const VolumeF clean = inner->generate(3);
  const VolumeF flipped_a = source.generate(3);
  const VolumeF flipped_b = source.generate(3);
  EXPECT_FALSE(volumes_equal(clean, flipped_a));  // corrupted...
  EXPECT_TRUE(volumes_equal(flipped_a, flipped_b));  // ...reproducibly
  std::size_t differing = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (clean[i] != flipped_a[i]) ++differing;
  }
  EXPECT_EQ(differing, 1u);  // exactly one voxel
}

TEST(FaultInjectingSource, DelayStillProducesCorrectData) {
  auto inner = blob_source();
  FaultInjectingSource source(inner, {{1, FaultKind::kDelay, 1}});
  EXPECT_TRUE(volumes_equal(source.generate(1), inner->generate(1)));
}

// ---------------------------------------------------------------------------
// Retry / backoff (tentpole part 2)

TEST(VolumeStoreRetry, TransientFaultsAreInvisibleWithRetry) {
  // The fault-equivalence property: every step fails once transiently;
  // with max_retries >= 1 every fetched volume is bit-identical to the
  // no-fault run, and the stats prove retries happened.
  auto inner = blob_source();
  auto faulty = std::make_shared<FaultInjectingSource>(
      inner, std::vector<FaultSpec>{{FaultSpec::kAllSteps,
                                     FaultKind::kTransient, 1}});
  VolumeStoreConfig config = sync_store_config();
  config.max_retries = 1;
  VolumeStore clean(inner, config);
  VolumeStore faulted(faulty, config);
  for (int s = 0; s < kSteps; ++s) {
    auto a = clean.fetch(s);
    auto b = faulted.fetch(s);
    ASSERT_NE(b, nullptr);
    EXPECT_TRUE(volumes_equal(*a, *b)) << "step " << s;
  }
  EXPECT_EQ(clean.stats().retries, 0u);
  // Every step's transient fault shows up as a retry.
  EXPECT_GE(faulted.stats().retries, static_cast<std::uint64_t>(kSteps));
  EXPECT_EQ(faulted.stats().load_failures, 0u);
  EXPECT_EQ(faulted.stats().quarantined_steps, 0u);
}

TEST(VolumeStoreRetry, BackoffDoublesDeterministically) {
  // With backoff configured the retried load still succeeds; this pins
  // the policy accepting a nonzero backoff (timing itself is not
  // asserted — the delay is sub-millisecond by design here).
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{2, FaultKind::kTransient, 2}});
  VolumeStoreConfig config = sync_store_config();
  config.max_retries = 2;
  config.retry_backoff_ms = 0.01;
  VolumeStore store(faulty, config);
  EXPECT_NE(store.fetch(2), nullptr);
  EXPECT_EQ(store.stats().retries, 2u);
}

TEST(VolumeStoreRetry, NotFoundFailsImmediately) {
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{1, FaultKind::kNotFound, 1}});
  VolumeStoreConfig config = sync_store_config();
  config.max_retries = 5;
  VolumeStore store(faulty, config);
  EXPECT_THROW(store.fetch(1), NotFoundError);
  EXPECT_EQ(store.stats().retries, 0u);  // a missing file never retries
  EXPECT_TRUE(store.is_quarantined(1));
}

TEST(VolumeStoreRetry, ExhaustionQuarantinesTheStep) {
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{2, FaultKind::kTransient, 10}});
  VolumeStoreConfig config = sync_store_config();
  config.max_retries = 1;
  VolumeStore store(faulty, config);
  EXPECT_THROW(store.fetch(2), TransientIoError);
  EXPECT_TRUE(store.is_quarantined(2));
  EXPECT_EQ(store.stats().load_failures, 1u);
  EXPECT_EQ(store.stats().quarantined_steps, 1u);
  // A quarantined fetch under kThrow rethrows the ORIGINAL error without
  // hammering the source again.
  const std::uint64_t fired = faulty->faults_fired();
  EXPECT_THROW(store.fetch(2), TransientIoError);
  EXPECT_EQ(faulty->faults_fired(), fired);
}

// ---------------------------------------------------------------------------
// Quarantine + FailPolicy (tentpole part 3)

TEST(FailPolicyMatrix, ThrowSurfacesCorruptDataError) {
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{2, FaultKind::kCorrupt, 1}});
  VolumeStore store(faulty, sync_store_config());
  EXPECT_NE(store.fetch(0), nullptr);
  EXPECT_THROW(store.fetch(2), CorruptDataError);
}

TEST(FailPolicyMatrix, SkipStepReturnsNoData) {
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{2, FaultKind::kCorrupt, 1}});
  StreamedSequence sequence(faulty,
                            sync_sequence_config(FailPolicy::kSkipStep));
  EXPECT_EQ(sequence.try_step(2), nullptr);
  EXPECT_EQ(sequence.try_step(2), nullptr);  // stable on repeat
  EXPECT_NE(sequence.try_step(3), nullptr);  // neighbours unaffected
  const StreamStats stats = sequence.stats();
  EXPECT_GE(stats.skipped_fetches, 2u);
  EXPECT_EQ(stats.quarantined_steps, 1u);
  EXPECT_EQ(sequence.store().quarantined_steps(), std::vector<int>{2});
}

TEST(FailPolicyMatrix, NearestGoodSubstitutesNeighbour) {
  auto inner = blob_source();
  auto faulty = std::make_shared<FaultInjectingSource>(
      inner, std::vector<FaultSpec>{{2, FaultKind::kCorrupt, 1}});
  StreamedSequence sequence(faulty,
                            sync_sequence_config(FailPolicy::kNearestGood));
  const VolumeF* volume = sequence.try_step(2);
  ASSERT_NE(volume, nullptr);
  // Outward search prefers step - d, so step 1 answers for step 2.
  EXPECT_TRUE(volumes_equal(*volume, inner->generate(1)));
  EXPECT_GE(sequence.stats().nearest_good_substitutions, 1u);
}

TEST(FailPolicyMatrix, NearestGoodSkipsOverQuarantinedNeighbours) {
  auto inner = blob_source();
  auto faulty = std::make_shared<FaultInjectingSource>(
      inner, std::vector<FaultSpec>{{1, FaultKind::kCorrupt, 1},
                                    {2, FaultKind::kCorrupt, 1},
                                    {3, FaultKind::kCorrupt, 1}});
  StreamedSequence sequence(faulty,
                            sync_sequence_config(FailPolicy::kNearestGood));
  const VolumeF* volume = sequence.try_step(2);
  ASSERT_NE(volume, nullptr);
  // 1 and 3 are corrupt too; the search widens to step 0.
  EXPECT_TRUE(volumes_equal(*volume, inner->generate(0)));
  EXPECT_EQ(sequence.stats().quarantined_steps, 3u);
}

TEST(QuarantineReport, ListsExactlyTheFencedSteps) {
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{4, FaultKind::kCorrupt, 1},
                                            {2, FaultKind::kCorrupt, 1}});
  StreamConfig config = sync_sequence_config(FailPolicy::kSkipStep);
  config.lookahead = 0;  // touch exactly the steps the test fetches
  config.pin_radius = 0;
  StreamedSequence sequence(faulty, config);
  EXPECT_TRUE(sequence.store().quarantined_steps().empty());
  EXPECT_NE(sequence.try_step(0), nullptr);
  EXPECT_EQ(sequence.try_step(4), nullptr);
  EXPECT_EQ(sequence.try_step(2), nullptr);
  // Ascending, whatever the order the steps failed in; loaded and
  // untouched steps are not listed.
  EXPECT_EQ(sequence.store().quarantined_steps(), (std::vector<int>{2, 4}));
  EXPECT_EQ(sequence.stats().quarantined_steps, 2u);
  EXPECT_FALSE(sequence.store().is_quarantined(0));
  EXPECT_FALSE(sequence.store().is_quarantined(5));
}

// ---------------------------------------------------------------------------
// Graceful degradation in consumers

TEST(GracefulDegradation, TrackingBridgesAQuarantinedStep) {
  auto inner = blob_source();
  auto sequence_over = [&](std::shared_ptr<const VolumeSource> src) {
    StreamConfig config;
    config.lookahead = 1;
    config.async_prefetch = false;
    config.fail_policy = FailPolicy::kSkipStep;
    return std::make_unique<StreamedSequence>(std::move(src), config);
  };
  auto clean_seq = sequence_over(inner);
  auto faulty_seq = sequence_over(std::make_shared<FaultInjectingSource>(
      inner, std::vector<FaultSpec>{{2, FaultKind::kCorrupt, 1}}));

  FixedRangeCriterion criterion(0.5, 1.0);
  const Index3 seed{2, 4, 4};
  TrackResult clean = Tracker(*clean_seq, criterion).track(seed, 0);
  TrackResult gapped = Tracker(*faulty_seq, criterion).track(seed, 0);

  ASSERT_FALSE(clean.masks.empty());
  ASSERT_FALSE(gapped.masks.empty());
  // The quarantined step contributes no mask; every other step's mask is
  // identical to the clean run (re-seeded across the gap).
  EXPECT_EQ(gapped.masks.count(2), 0u);
  for (const auto& [step, mask] : clean.masks) {
    if (step == 2) continue;
    auto it = gapped.masks.find(step);
    ASSERT_NE(it, gapped.masks.end()) << "step " << step;
    EXPECT_EQ(mask_count(it->second), mask_count(mask)) << "step " << step;
  }
  // The gap shows up as death + birth events in the feature history
  // rather than crashing it.
  FeatureHistory history = build_feature_history(gapped);
  EXPECT_FALSE(history.nodes.empty());
}

TEST(GracefulDegradation, SeedOnQuarantinedStepIsAnError) {
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{0, FaultKind::kCorrupt, 1}});
  StreamConfig config;
  config.lookahead = 0;
  config.async_prefetch = false;
  config.fail_policy = FailPolicy::kSkipStep;
  StreamedSequence sequence(faulty, config);
  FixedRangeCriterion criterion(0.5, 1.0);
  EXPECT_THROW(Tracker(sequence, criterion).track(Index3{2, 4, 4}, 0), Error);
}

TEST(GracefulDegradation, StepThrowsButTryStepSkips) {
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{2, FaultKind::kCorrupt, 1}});
  StreamConfig config;
  config.lookahead = 0;
  config.async_prefetch = false;
  config.fail_policy = FailPolicy::kSkipStep;
  StreamedSequence sequence(faulty, config);
  EXPECT_EQ(sequence.try_step(2), nullptr);
  EXPECT_THROW(sequence.step(2), CorruptDataError);
  EXPECT_NE(sequence.try_step(1), nullptr);
}

TEST(GracefulDegradation, HistogramsSubstituteNearestGoodUnderSkip) {
  auto inner = blob_source();
  StreamConfig config;
  config.lookahead = 0;
  config.async_prefetch = false;
  config.fail_policy = FailPolicy::kSkipStep;
  StreamedSequence clean(inner, config);
  StreamedSequence faulty(
      std::make_shared<FaultInjectingSource>(
          inner, std::vector<FaultSpec>{{2, FaultKind::kCorrupt, 1}}),
      config);
  // Derived products degrade to the nearest loadable step (1) instead of
  // throwing, so IATF synthesis keeps producing opacity ramps over gaps.
  const Histogram substituted = faulty.histogram(2);
  const Histogram neighbour = clean.histogram(1);
  ASSERT_EQ(substituted.bins(), neighbour.bins());
  for (int b = 0; b < substituted.bins(); ++b) {
    EXPECT_EQ(substituted.count(b), neighbour.count(b)) << "bin " << b;
  }
  EXPECT_NO_THROW(faulty.cumulative_histogram(2));
}

TEST(GracefulDegradation, IatfTrainsAcrossAGap) {
  auto faulty = std::make_shared<FaultInjectingSource>(
      blob_source(), std::vector<FaultSpec>{{2, FaultKind::kCorrupt, 1}});
  StreamConfig config;
  config.lookahead = 0;
  config.async_prefetch = false;
  config.fail_policy = FailPolicy::kSkipStep;
  StreamedSequence sequence(faulty, config);
  Iatf iatf(sequence);
  TransferFunction1D key(0.0, 1.0);
  key.add_band(0.5, 1.0, 0.9, 0.05);
  iatf.add_key_frame(0, key);
  iatf.add_key_frame(kSteps - 1, key);
  iatf.train(10);
  EXPECT_NO_THROW(iatf.evaluate(2));  // the gap step itself
}

/// A 64x32x32 blob crossing the box 16 voxels per step, whose step-`bad`
/// payload fails its CRC while the step's brick record (it has its own CRC)
/// is intact: generate(bad) throws, brick_metadata(bad) serves the true
/// index of the step nobody can load.
class CorruptPayloadSource final : public VolumeSource {
 public:
  explicit CorruptPayloadSource(int bad) : bad_(bad) {}
  Dims dims() const override { return Dims{64, 32, 32}; }
  int num_steps() const override { return 4; }
  std::pair<double, double> value_range() const override { return {0.0, 1.0}; }
  VolumeF generate(int step) const override {
    if (step == bad_) throw CorruptDataError("payload CRC mismatch");
    return blob(step);
  }
  std::shared_ptr<const BrickIndex> brick_metadata(int step) const override {
    return std::make_shared<const BrickIndex>(BrickIndex::build(blob(step)));
  }

 private:
  VolumeF blob(int step) const {
    return testing::blob_volume(dims(), Vec3{8.0 + 16.0 * step, 16.0, 16.0},
                                4.0, 1.0f);
  }
  int bad_;
};

TEST(GracefulDegradation, NearestGoodRenderMatchesUnskippedFrame) {
  StreamConfig config;
  config.lookahead = 0;
  config.async_prefetch = false;
  config.fail_policy = FailPolicy::kNearestGood;
  StreamedSequence sequence(std::make_shared<CorruptPayloadSource>(2), config);

  TransferFunction1D tf(0.0, 1.0);
  tf.add_band(0.5, 1.0, 0.9, 0.05);  // zero below 0.45: bricks cull
  const ColorMap colors;
  const Camera camera(0.5, 0.35, 2.4);
  RenderSettings skipping;
  skipping.width = 96;
  skipping.height = 96;
  RenderSettings unskipped = skipping;
  unskipped.empty_space_skipping = false;

  // Step 2 renders step 1's voxels; skipping must march them through
  // step 1's brick index, not the quarantined step's.
  RenderStats stats;
  const ImageRgb8 skipped = Raycaster(skipping).render_step(
      sequence, 2, tf, colors, camera, nullptr, &stats);
  const ImageRgb8 reference =
      Raycaster(unskipped).render_step(sequence, 2, tf, colors, camera);
  EXPECT_LT(stats.bricks_active, stats.bricks_total);  // skipping fired
  ASSERT_EQ(skipped.pixels.size(), reference.pixels.size());
  std::size_t differing = 0;
  std::size_t lit = 0;
  for (std::size_t p = 0; p < reference.pixels.size(); p += 3) {
    if (!std::equal(&skipped.pixels[p], &skipped.pixels[p] + 3,
                    &reference.pixels[p])) {
      ++differing;
    }
    if (reference.pixels[p] || reference.pixels[p + 1] ||
        reference.pixels[p + 2]) {
      ++lit;
    }
  }
  EXPECT_EQ(differing, 0u);
  EXPECT_GT(lit, 0u);
  EXPECT_TRUE(sequence.store().is_quarantined(2));
}

// ---------------------------------------------------------------------------
// Async prefetch failure contract (satellite: no deadlock, no poisoning)

TEST(PrefetchFailure, ThrowingGenerateDoesNotDeadlockOrCachePartialData) {
  // First load of step 2 throws a PLAIN Error (not IoError: a user-source
  // bug, not an I/O fault — no retry, no quarantine); later loads
  // succeed. The async failure must be captured, the next fetch() must
  // neither deadlock nor see a cached partial volume, and the demand
  // reload must return correct data.
  auto fail_once = std::make_shared<std::atomic<int>>(0);
  const Dims d = kDims;
  auto inner = blob_source();
  auto source = std::make_shared<CallbackSource>(
      d, kSteps, std::pair<double, double>{0.0, 1.0},
      [fail_once, inner](int step) {
        if (step == 2 && fail_once->fetch_add(1) == 0) {
          throw Error("simulated user-source failure");
        }
        return inner->generate(step);
      });
  VolumeStoreConfig config;
  config.lookahead = 0;
  config.async_prefetch = true;
  VolumeStore store(source, config);

  store.prefetch(2);  // async load fails on the worker
  auto volume = store.fetch(2);  // waits, collects the failure, reloads
  ASSERT_NE(volume, nullptr);
  EXPECT_TRUE(volumes_equal(*volume, inner->generate(2)));
  EXPECT_FALSE(store.is_quarantined(2));
  EXPECT_GE(store.stats().prefetch_failures, 1u);
}

TEST(PrefetchFailure, WorkerRetriesTransientFaults) {
  auto inner = blob_source();
  auto faulty = std::make_shared<FaultInjectingSource>(
      inner, std::vector<FaultSpec>{{2, FaultKind::kTransient, 1}});
  VolumeStoreConfig config;
  config.lookahead = 0;
  config.async_prefetch = true;
  config.max_retries = 1;
  VolumeStore store(faulty, config);
  store.prefetch(2);
  auto volume = store.fetch(2);
  ASSERT_NE(volume, nullptr);
  EXPECT_TRUE(volumes_equal(*volume, inner->generate(2)));
  EXPECT_GE(store.stats().retries, 1u);
  EXPECT_EQ(store.stats().load_failures, 0u);
}

/// A fetch that waits on an in-flight prefetch of a bad step reports the
/// verdict of that prefetch: the prefetch's three reads (the first one
/// slow, so the fetch arrives while it is in flight) fence the step, and
/// the fetch rethrows the quarantined error instead of reading the step
/// three more times.
TEST(PrefetchFailure, FetchAfterExhaustedPrefetchReadsNoMore) {
  auto inner = blob_source();
  auto reads = std::make_shared<std::atomic<int>>(0);
  auto source = std::make_shared<CallbackSource>(
      inner->dims(), inner->num_steps(), inner->value_range(),
      [reads, inner](int step) -> VolumeF {
        if (step != 2) return inner->generate(step);
        if (reads->fetch_add(1) == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
        throw CorruptDataError("step 2 is corrupt");
      });
  VolumeStoreConfig config;
  config.lookahead = 0;
  config.async_prefetch = true;
  config.max_retries = 2;
  VolumeStore store(source, config);

  store.prefetch(2);
  EXPECT_THROW(store.fetch(2), CorruptDataError);
  EXPECT_EQ(reads->load(), 3);  // the first attempt + 2 retries, once
  EXPECT_EQ(store.stats().load_failures, 1u);
  EXPECT_EQ(store.quarantined_steps(), std::vector<int>{2});
}

// ---------------------------------------------------------------------------
// End-to-end equivalence through the full pipeline

TEST(FaultEquivalence, PipelineResultsIdenticalUnderTransientFaults) {
  auto inner = blob_source();
  auto sequence_over = [&](std::shared_ptr<const VolumeSource> src,
                           int max_retries) {
    StreamConfig config;
    config.budget_bytes = 3 * kDims.count() * sizeof(float);
    config.lookahead = 1;
    config.async_prefetch = false;
    config.max_retries = max_retries;
    return std::make_unique<StreamedSequence>(std::move(src), config);
  };
  auto clean = sequence_over(inner, 0);
  auto faulted = sequence_over(
      std::make_shared<FaultInjectingSource>(
          inner, std::vector<FaultSpec>{
                     {FaultSpec::kAllSteps, FaultKind::kTransient, 1}}),
      2);

  // IATF transfer functions bit-identical.
  auto train = [&](const VolumeSequence& seq) {
    Iatf iatf(seq);
    TransferFunction1D key(0.0, 1.0);
    key.add_band(0.5, 1.0, 0.9, 0.05);
    iatf.add_key_frame(0, key);
    iatf.add_key_frame(kSteps - 1, key);
    iatf.train(30);
    return iatf.evaluate(kSteps / 2);
  };
  TransferFunction1D a = train(*clean);
  TransferFunction1D b = train(*faulted);
  for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
    ASSERT_EQ(a.opacity_entry(e), b.opacity_entry(e)) << "entry " << e;
  }

  // Tracking masks bit-identical.
  FixedRangeCriterion criterion(0.5, 1.0);
  const Index3 seed{2, 4, 4};
  TrackResult ta = Tracker(*clean, criterion).track(seed, 0);
  TrackResult tb = Tracker(*faulted, criterion).track(seed, 0);
  ASSERT_FALSE(ta.masks.empty());
  ASSERT_EQ(ta.masks.size(), tb.masks.size());
  for (const auto& [step, mask] : ta.masks) {
    auto it = tb.masks.find(step);
    ASSERT_NE(it, tb.masks.end());
    for (std::size_t i = 0; i < mask.size(); ++i) {
      ASSERT_EQ(mask[i], it->second[i]) << "step " << step << " voxel " << i;
    }
  }

  EXPECT_GT(faulted->stats().retries, 0u);
  EXPECT_EQ(faulted->stats().load_failures, 0u);
  const std::string summary = faulted->stats().summary();
  EXPECT_NE(summary.find("faults:"), std::string::npos) << summary;
}

}  // namespace
}  // namespace ifet
