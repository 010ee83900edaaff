// Paged, lazily-loading backend over the volume I/O layer.
//
// VolumeStore is the single choke point between the 4D pipelines and the
// disk: it owns a VolumeSource (a compressed .cvol sequence, a set of .vol
// files, or any procedural source), a CacheManager enforcing the byte
// budget, and a Prefetcher overlapping decode with compute. Consumers must
// not call io read functions directly (enforced by the ifet_lint
// `direct-volume-load` rule) — fetch() is the only way to a decoded step,
// so every byte that enters memory is accounted, evictable, and
// prefetchable.
#pragma once

#include <exception>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "stream/cache_manager.hpp"
#include "stream/prefetcher.hpp"
#include "stream/step_health.hpp"
#include "util/ordered_mutex.hpp"
#include "volume/sequence.hpp"

namespace ifet {

/// VolumeSource over one self-describing .vol file per timestep (the
/// layout the public flow data sets ship in). The global value range is
/// scanned once at open time unless supplied.
class VolFileSetSource final : public VolumeSource {
 public:
  /// `paths[t]` is the file of step t. When `value_range` is not supplied
  /// every file is read once to establish the sequence-global range (one
  /// full pass — pass the range explicitly for terascale inputs).
  explicit VolFileSetSource(std::vector<std::string> paths);
  VolFileSetSource(std::vector<std::string> paths,
                   std::pair<double, double> value_range);

  Dims dims() const override { return dims_; }
  int num_steps() const override {
    return static_cast<int>(paths_.size());
  }
  std::pair<double, double> value_range() const override { return range_; }
  VolumeF generate(int step) const override;

 private:
  std::vector<std::string> paths_;
  Dims dims_{};
  std::pair<double, double> range_{0.0, 1.0};
};

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
  /// What fetch() does for a step whose load exhausted its retries.
  FailPolicy fail_policy = FailPolicy::kThrow;
};

class VolumeStore {
 public:
  VolumeStore(std::shared_ptr<const VolumeSource> source,
              const VolumeStoreConfig& config = {});

  /// Open a compressed sequence container (io/compressed).
  static std::unique_ptr<VolumeStore> open_cvol(
      const std::string& path, const VolumeStoreConfig& config = {});

  /// Open a set of per-step .vol files (io/volume_io).
  static std::unique_ptr<VolumeStore> open_vol_files(
      std::vector<std::string> paths, const VolumeStoreConfig& config = {});

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
  /// exponential backoff); a step that exhausts its retries is quarantined
  /// and config.fail_policy decides the outcome — rethrow the original
  /// error (kThrow), return nullptr (kSkipStep), or return the nearest
  /// loadable step's volume (kNearestGood).
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
  /// not budget-accounted or evictable). Under FailPolicy::kSkipStep a
  /// quarantined legacy step yields nullptr, like fetch().
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

  /// Combined snapshot: cache + prefetcher + robustness counters.
  StreamStats stats() const IFET_EXCLUDES(mutex_);

  /// Per-step verified/unverified/quarantined report.
  StepHealth step_health() const IFET_EXCLUDES(mutex_);

  /// Whether `step` exhausted its retries and is fenced off.
  bool is_quarantined(int step) const IFET_EXCLUDES(mutex_);

 private:
  /// Decodes one step via the source (mutex_ is only taken AFTER the
  /// decode, to bump the counters — the source call is user code and runs
  /// lock-free).
  VolumeF timed_load(int step, bool prefetch_context) IFET_EXCLUDES(mutex_);

  /// timed_load wrapped in the retry/backoff policy. Exhaustion (or a
  /// NotFoundError) quarantines the step and rethrows the final error.
  VolumeF load_with_retry(int step, bool prefetch_context)
      IFET_EXCLUDES(mutex_);

  /// The pre-policy fetch path: cache hit, await prefetch, demand load.
  std::shared_ptr<const VolumeF> fetch_resident(int step)
      IFET_EXCLUDES(mutex_);

  /// Apply config.fail_policy to a step whose load failed for good.
  std::shared_ptr<const VolumeF> resolve_unavailable(int step,
                                                     std::exception_ptr error)
      IFET_EXCLUDES(mutex_);

  void note_failure(int step, std::exception_ptr error) IFET_EXCLUDES(mutex_);

  std::shared_ptr<const VolumeSource> source_;
  VolumeStoreConfig config_;
  CacheManager cache_;

  mutable OrderedMutex mutex_{MutexRank::kVolumeStore};
  int last_fetched_step_ IFET_GUARDED_BY(mutex_) = -1;
  std::uint64_t demand_loads_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t total_loads_ IFET_GUARDED_BY(mutex_) = 0;
  double demand_decode_seconds_ IFET_GUARDED_BY(mutex_) = 0.0;
  /// Original load error per quarantined step (kThrow rethrows it).
  std::unordered_map<int, std::exception_ptr> quarantine_
      IFET_GUARDED_BY(mutex_);
  std::vector<StepState> step_states_ IFET_GUARDED_BY(mutex_);
  std::unordered_map<int, std::shared_ptr<const BrickIndex>> bricks_
      IFET_GUARDED_BY(mutex_);
  std::uint64_t brick_metadata_reads_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t brick_builds_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t retries_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t load_failures_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t checksum_verified_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t checksum_unverified_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t checksum_failures_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t skipped_fetches_ IFET_GUARDED_BY(mutex_) = 0;
  std::uint64_t nearest_good_substitutions_ IFET_GUARDED_BY(mutex_) = 0;

  /// Declared LAST on purpose: its destructor drains every in-flight
  /// async load, and those loads (load_with_retry on worker threads) take
  /// mutex_ and write step_states_/counters above — so the prefetcher
  /// must be destroyed before any state its tasks touch.
  Prefetcher prefetcher_;
};

}  // namespace ifet
