// Paged, lazily-loading backend over the volume I/O layer.
//
// VolumeStore is the single choke point between the 4D pipelines and the
// disk: it owns a VolumeSource (a compressed .cvol sequence or any
// procedural source), a CacheManager enforcing the byte budget, a
// Prefetcher overlapping decode with compute, and the tier's one
// StreamCounters set every layer adds into. Consumers must not call io
// read functions directly (enforced by the ifet_lint `direct-volume-load`
// rule) — fetch() is the only way to a decoded step, so every byte that
// enters memory is accounted, evictable, and prefetchable.
//
// The store is mechanism only: it retries, quarantines and reports. What a
// quarantined step means to a consumer (throw, skip, substitute) is the
// consumer's FailPolicy, applied by StreamedSequence.
#pragma once

#include <exception>
#include <memory>
#include <unordered_map>
#include <vector>

#include "stream/cache_manager.hpp"
#include "stream/prefetcher.hpp"
#include "util/ordered_mutex.hpp"
#include "volume/sequence.hpp"

namespace ifet {

struct VolumeStoreConfig {
  /// Byte budget for decoded steps; 0 = unlimited (fully resident).
  std::size_t budget_bytes = 0;
  /// Steps scheduled ahead of each fetch in the scan direction; 0 disables
  /// prefetch.
  int lookahead = 2;
  /// Run lookahead asynchronously on the shared thread pool. When false,
  /// lookahead steps are loaded synchronously on the calling thread
  /// (deterministic; used by tests).
  bool async_prefetch = true;
  /// Extra load attempts after a retryable IoError (TransientIoError or
  /// CorruptDataError; NotFoundError never retries). 0 disables retry.
  int max_retries = 2;
  /// Base delay before the first retry; doubles per attempt (deterministic,
  /// jitterless — see docs/ROBUSTNESS.md). 0 retries immediately.
  double retry_backoff_ms = 0.0;
};

class VolumeStore {
 public:
  VolumeStore(std::shared_ptr<const VolumeSource> source,
              const VolumeStoreConfig& config = {});

  const VolumeSource& source() const { return *source_; }
  Dims dims() const { return source_->dims(); }
  int num_steps() const { return source_->num_steps(); }
  std::pair<double, double> value_range() const {
    return source_->value_range();
  }
  const VolumeStoreConfig& config() const { return config_; }

  /// Decoded volume for `step`: cache hit, wait on an in-flight prefetch,
  /// or demand-load — then schedule lookahead in the current scan
  /// direction. The returned data stays valid while the shared_ptr is
  /// held, independent of eviction.
  ///
  /// Loads that throw a retryable IoError are retried (config.max_retries,
  /// exponential backoff); a step that exhausts its retries is quarantined,
  /// and this and every later fetch of it throws the original typed error
  /// without touching the source again.
  std::shared_ptr<const VolumeF> fetch(int step);

  /// Schedule an async load of `step` without blocking (bounds-clamped
  /// no-op outside the sequence).
  void prefetch(int step);

  CacheManager& cache() { return cache_; }
  const CacheManager& cache() const { return cache_; }

  /// Brick min/max metadata for `step` (renderer empty-space skipping):
  /// served from the container's ingest-time brick section when the source
  /// carries one (a seek + read of a few KB — the payload is never
  /// decoded), else built once from the decoded step via fetch(). Memoized
  /// for the store's lifetime (indices are ~0.2% of a volume, so they are
  /// not budget-accounted or evictable). The fallback build of a
  /// quarantined step throws its load error, like fetch().
  std::shared_ptr<const BrickIndex> brick_index(int step)
      IFET_EXCLUDES(mutex_);

  /// How brick_index() answers were produced — container metadata reads
  /// (no payload decode) vs fallback builds from a decoded volume. Memo
  /// hits bump neither. For tests and the render stats report.
  std::uint64_t brick_metadata_reads() const IFET_EXCLUDES(mutex_);
  std::uint64_t brick_builds() const IFET_EXCLUDES(mutex_);

  /// Total source loads (demand + prefetch); what
  /// VolumeSequence::generation_count reports.
  std::size_t load_count() const IFET_EXCLUDES(mutex_);

  /// The tier's one counter set (cache, prefetch, load, fault, derived,
  /// pressure and overload counters alike).
  StreamCounters& counters() { return counters_; }

  /// Counter snapshot plus the residency gauges and quarantined_steps.
  StreamStats stats() const IFET_EXCLUDES(mutex_);

  /// The quarantined steps, ascending.
  std::vector<int> quarantined_steps() const IFET_EXCLUDES(mutex_);

  /// Whether `step` exhausted its retries and is fenced off.
  bool is_quarantined(int step) const IFET_EXCLUDES(mutex_);

 private:
  /// Decodes one step via the source (mutex_ is only taken AFTER the
  /// decode, to count the load — the source call is user code and runs
  /// lock-free).
  VolumeF timed_load(int step, bool prefetch_context) IFET_EXCLUDES(mutex_);

  /// timed_load wrapped in the retry/backoff policy. Each attempt that
  /// throws ChecksumMismatchError counts one checksum_failures.
  /// Exhaustion (or a NotFoundError) quarantines the step and rethrows
  /// the final error.
  VolumeF load_with_retry(int step, bool prefetch_context)
      IFET_EXCLUDES(mutex_);

  void note_failure(int step, std::exception_ptr error) IFET_EXCLUDES(mutex_);

  std::shared_ptr<const VolumeSource> source_;
  VolumeStoreConfig config_;
  /// Declared before every layer that adds into it.
  StreamCounters counters_;
  CacheManager cache_;

  mutable OrderedMutex mutex_{MutexRank::kVolumeStore};
  int last_fetched_step_ IFET_GUARDED_BY(mutex_) = -1;
  std::uint64_t total_loads_ IFET_GUARDED_BY(mutex_) = 0;
  /// Original load error per quarantined step (fetch rethrows it).
  std::unordered_map<int, std::exception_ptr> quarantine_
      IFET_GUARDED_BY(mutex_);
  std::unordered_map<int, std::shared_ptr<const BrickIndex>> bricks_
      IFET_GUARDED_BY(mutex_);
  std::uint64_t brick_metadata_reads_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t brick_builds_ IFET_GUARDED_BY(mutex_) = 0;

  /// Declared LAST on purpose: its destructor drains every in-flight
  /// async load, and those loads (load_with_retry on worker threads) take
  /// mutex_ and write the quarantine and the counters above — so the
  /// prefetcher must be destroyed before any state its tasks touch.
  Prefetcher prefetcher_;
};

}  // namespace ifet
