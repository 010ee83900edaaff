#include "stream/streamed_sequence.hpp"

#include <algorithm>

#include "io/compressed.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"

namespace ifet {

StreamedSequence::StreamedSequence(std::shared_ptr<const VolumeSource> source,
                                   const StreamConfig& config)
    : StreamedSequence(
          std::make_unique<StreamTier>(
              std::move(source),
              StreamTierConfig{.budget_bytes = config.budget_bytes,
                               .pin_quota_bytes = 0,  // unlimited
                               .lookahead = config.lookahead,
                               .async_prefetch = config.async_prefetch,
                               .max_retries = config.max_retries,
                               .retry_backoff_ms = config.retry_backoff_ms,
                               .histogram_bins = config.histogram_bins}),
          config.pin_radius, config.fail_policy) {}

StreamedSequence::StreamedSequence(std::unique_ptr<StreamTier> owned,
                                   int pin_radius, FailPolicy fail_policy)
    : StreamedSequence(*owned, pin_radius, fail_policy) {
  owned_tier_ = std::move(owned);
}

StreamedSequence::StreamedSequence(StreamTier& tier, int pin_radius,
                                   FailPolicy fail_policy)
    : tier_(tier), pin_radius_(pin_radius), fail_policy_(fail_policy) {
  IFET_REQUIRE(pin_radius_ >= 0, "StreamedSequence: pin_radius must be >= 0");
  client_ = tier_.admission().register_client();
}

StreamedSequence::~StreamedSequence() {
  // Give back everything this client pinned; the counted cache pins
  // compose, so a step another client also pinned stays pinned.
  for (int s : tier_.admission().release_client(client_)) {
    store().cache().unpin(s);
  }
}

std::unique_ptr<StreamedSequence> StreamedSequence::open_cvol(
    const std::string& path, const StreamConfig& config) {
  return std::make_unique<StreamedSequence>(
      std::make_shared<CompressedFileSource>(path), config);
}

std::shared_ptr<const VolumeF> StreamedSequence::fetch_loadable(
    int step) const {
  try {
    return store().fetch(step);
  } catch (const DeadlineExceeded&) {
    // The caller gave up; the step is healthy (util/io_error.hpp orders
    // this catch first). Never skipped, never substituted.
    throw;
  } catch (const IoError&) {
    return nullptr;  // quarantined: the caller decides what that means
  }
}

std::pair<int, std::shared_ptr<const VolumeF>>
StreamedSequence::nearest_loadable(int step) const {
  for (int d = 1; d < num_steps(); ++d) {
    for (const int candidate : {step - d, step + d}) {
      if (candidate < 0 || candidate >= num_steps()) continue;
      if (auto neighbour = fetch_loadable(candidate)) {
        return {candidate, std::move(neighbour)};
      }
    }
  }
  throw CorruptDataError("StreamedSequence: no loadable step near " +
                         std::to_string(step));
}

std::pair<int, std::shared_ptr<const VolumeF>>
StreamedSequence::resolve_quarantined(int step) const {
  switch (fail_policy_) {
    case FailPolicy::kThrow:
      throw CorruptDataError(
          "StreamedSequence: step " + std::to_string(step) +
          " is quarantined (this client's fail policy is kThrow)");
    case FailPolicy::kSkipStep:
      return {-1, nullptr};
    case FailPolicy::kNearestGood:
      break;
  }
  return nearest_loadable(step);
}

std::shared_ptr<const VolumeF> StreamedSequence::fetch_with_policy(
    int step) const {
  if (auto volume = fetch_loadable(step)) return volume;
  auto volume = resolve_quarantined(step).second;
  count(volume ? &StreamCounters::nearest_good_substitutions
               : &StreamCounters::skipped_fetches);
  return volume;
}

std::shared_ptr<const BrickIndex> StreamedSequence::brick_index(
    int step) const {
  if (!store().is_quarantined(step)) return store().brick_index(step);
  // The container still serves the quarantined step's own index, which
  // describes voxels this client is never given.
  const int answer = resolve_quarantined(step).first;
  return answer < 0 ? nullptr : store().brick_index(answer);
}

std::vector<int> StreamedSequence::move_window_locked(
    int lo, int hi, int center,
    std::vector<std::shared_ptr<const VolumeF>>& dropped) const {
  lo = std::max(lo, 0);
  hi = std::min(hi, num_steps() - 1);
  window_lo_ = lo;
  window_hi_ = hi;
  for (auto it = held_.begin(); it != held_.end();) {
    if (it->first < lo || it->first > hi) {
      dropped.push_back(std::move(it->second));
      it = held_.erase(it);
    } else {
      ++it;
    }
  }
  // Pins before unpins: an unpin evicts over budget, and the steps
  // entering the window must already be protected when it does.
  WindowDelta delta = tier_.admission().set_window(client_, lo, hi, center);
  CacheManager& cache = store().cache();
  for (int s : delta.pin) cache.pin(s);
  for (int s : delta.unpin) cache.unpin(s);
  return std::move(delta.pin);
}

const VolumeF& StreamedSequence::step(int step) const {
  const VolumeF* volume = try_step(step);
  if (volume == nullptr) {
    throw CorruptDataError(
        "StreamedSequence: step " + std::to_string(step) +
        " is quarantined and the fail policy skips it (consumers that can "
        "bridge gaps use try_step)");
  }
  return *volume;
}

const VolumeF* StreamedSequence::try_step(int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps(),
               "StreamedSequence: step out of range");
  // Attribution first: residency is probed without stat side effects so a
  // fetch never double-counts in the cache's own counters. The probe can
  // race an eviction — it feeds stats, not correctness.
  const bool resident = store().cache().resident(step);
  (resident ? client_counters_.hits : client_counters_.misses).add();
  tier_.admission().note_access(client_, step, resident);

  auto volume = fetch_with_policy(step);
  if (!volume) return nullptr;  // this client's policy is kSkipStep

  std::vector<std::shared_ptr<const VolumeF>> dropped;
  std::vector<int> warm;
  const VolumeF* ref = nullptr;
  {
    OrderedMutexLock lock(mutex_);
    if (step < window_lo_ || step > window_hi_) {
      warm = move_window_locked(step - pin_radius_, step + pin_radius_, step,
                                dropped);
    }
    auto& slot = held_[step];
    slot = std::move(volume);
    ref = slot.get();
  }
  // The step itself was just fetched; warm the rest of the new window.
  for (int s : warm) {
    if (s != step) store().prefetch(s);
  }
  return ref;
}

const CumulativeHistogram& StreamedSequence::cumulative_histogram(
    int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps(),
               "StreamedSequence: step out of range");
  auto [lo, hi] = value_range();
  auto cumhist = derived_cache().cumulative_histogram(
      step, tier_.hist_params(),
      [&]() -> CumulativeHistogram {
        auto volume = fetch_loadable(step);
        if (!volume) volume = nearest_loadable(step).second;
        return CumulativeHistogram(
            Histogram::of(*volume, histogram_bins(), lo, hi));
      },
      &client_counters_);
  OrderedMutexLock lock(mutex_);
  auto [it, inserted] = cumhists_.emplace(step, std::move(cumhist));
  (void)inserted;  // an earlier call memoized the same product
  return *it->second;
}

Histogram StreamedSequence::histogram(int step) const {
  IFET_REQUIRE(step >= 0 && step < num_steps(),
               "StreamedSequence: step out of range");
  auto [lo, hi] = value_range();
  auto hist = derived_cache().histogram(
      step, tier_.hist_params(),
      [&]() -> Histogram {
        auto volume = fetch_loadable(step);
        if (!volume) volume = nearest_loadable(step).second;
        return Histogram::of(*volume, histogram_bins(), lo, hi);
      },
      &client_counters_);
  return *hist;
}

void StreamedSequence::hint_window(int lo, int hi) const {
  // Clamped first, so a window that misses the sequence ([20, 25] of 10
  // steps clamps to [20, 9]) is refused like an inverted one.
  lo = std::max(lo, 0);
  hi = std::min(hi, num_steps() - 1);
  IFET_REQUIRE(lo <= hi,
               "StreamedSequence::hint_window: inverted window or window "
               "outside the sequence");
  std::vector<std::shared_ptr<const VolumeF>> dropped;
  std::vector<int> warm;
  {
    OrderedMutexLock lock(mutex_);
    warm = move_window_locked(lo, hi, lo + (hi - lo) / 2, dropped);
  }
  for (int s : warm) store().prefetch(s);
}

}  // namespace ifet
