// Memory-budgeted, pinned-aware LRU cache over decoded timesteps.
//
// The residency policy of the out-of-core subsystem lives here and only
// here: VolumeStore decides *what* to load, CacheManager decides *what
// stays*. Entries are shared_ptr<const VolumeF> so an eviction never
// invalidates data a reader still holds — the bytes leave the budget
// accounting when evicted and are freed when the last reader drops its
// reference (the StreamedSequence window holds at most a few steps).
//
// Pins are counted: an entry with a nonzero pin count is never evicted,
// and pins from several clients on one step compose. The sliding window
// of 4D region growing is a set of such pins, moved by each
// StreamedSequence as admission deltas (stream/admission.hpp).
//
// Thread safety: every method is internally synchronized; the stress suite
// (tests/stress/stress_cache_manager_test.cpp) hammers it under TSan, the
// Clang thread-safety annotations prove the locking discipline at compile
// time (docs/STATIC_ANALYSIS.md), and the mutex is a leaf in the rank
// order — evicted payloads are destroyed after the lock is released, so
// no multi-megabyte deallocation (or anything else) ever runs under it.
//
// Recycling: the buffer of an entry whose last reference drops goes onto
// a bounded spare list (SpareVolumes) that the next load decodes into, so
// a steady scan stops mapping and faulting in a fresh step per load. The
// spares sit outside the byte budget: at most SpareVolumes::kCapacity
// steps beyond it, between an eviction and the next load.
#pragma once

#include <array>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "stream/stream_stats.hpp"
#include "util/ordered_mutex.hpp"
#include "volume/volume.hpp"

namespace ifet {

/// At most kCapacity buffers of decoded steps that nothing references any
/// more, kept for the next load to decode into. Every cache entry's
/// deleter puts its volume here when the last reference drops, whether
/// the cache's eviction or a reader's copy drops it, so a buffer is
/// reused only once no reader can still see it. The mutex is the
/// innermost leaf (MutexRank::kSpareVolumes): a last reference can drop
/// under any lock.
class SpareVolumes {
 public:
  static constexpr std::size_t kCapacity = 2;

  /// Keeps `volume`'s buffer when there is room, leaving `volume` empty;
  /// otherwise leaves it to the caller to free (outside the lock).
  void put(VolumeF& volume) IFET_EXCLUDES(mutex_);
  /// A kept buffer, or an empty volume when none is kept.
  VolumeF take() IFET_EXCLUDES(mutex_);

 private:
  OrderedMutex mutex_{MutexRank::kSpareVolumes};
  std::array<VolumeF, kCapacity> kept_ IFET_GUARDED_BY(mutex_);
  std::size_t count_ IFET_GUARDED_BY(mutex_) = 0;
};

class CacheManager {
 public:
  /// `budget_bytes` caps the decoded payload bytes held by *unpinned +
  /// pinned* entries together; 0 means unlimited (the fully-resident
  /// path). Pinned entries are never evicted, so a window wider than the
  /// budget temporarily overshoots it — by design, loudly visible in
  /// stats(). Hits, misses, prefetch hits and evictions are added into
  /// `counters` (the tier's set), which must outlive the cache.
  explicit CacheManager(StreamCounters& counters,
                        std::size_t budget_bytes = 0);

  /// Resident volume for `step`, or nullptr. A hit refreshes LRU order.
  /// Every lookup counts a hit or a miss; entries inserted by prefetch
  /// count a prefetch hit on their first lookup.
  std::shared_ptr<const VolumeF> lookup(int step) IFET_EXCLUDES(mutex_);

  /// Like lookup, but does not count a hit/miss — used by VolumeStore when
  /// re-checking after waiting on an in-flight prefetch, so one fetch never
  /// counts as both a miss and a hit. Still refreshes LRU order and
  /// consumes the prefetched flag (counting the prefetch hit).
  std::shared_ptr<const VolumeF> lookup_quiet(int step)
      IFET_EXCLUDES(mutex_);

  /// True when `step` is resident; no LRU/stat side effects (tests).
  bool resident(int step) const IFET_EXCLUDES(mutex_);

  /// Admit a decoded step (most-recently-used position) and evict LRU
  /// unpinned entries until the budget holds. Returns the (shared) stored
  /// volume — when `step` was concurrently inserted by another thread the
  /// existing entry wins and `volume` is discarded.
  std::shared_ptr<const VolumeF> insert(int step, VolumeF volume,
                                        bool from_prefetch = false)
      IFET_EXCLUDES(mutex_);

  /// A spare step buffer for the next load to decode into
  /// (VolumeSource::generate_into), or an empty volume when none is kept.
  VolumeF take_spare() { return spares_->take(); }

  /// Counted pin: `step` survives eviction until unpinned. Pinning a
  /// non-resident step is remembered (applies when it is inserted).
  void pin(int step) IFET_EXCLUDES(mutex_);
  /// Drop one pin; when that leaves the cache over budget (pinned entries
  /// overshoot it by design), evict down to the budget at once.
  void unpin(int step) IFET_EXCLUDES(mutex_);

  std::size_t resident_bytes() const IFET_EXCLUDES(mutex_);
  std::size_t resident_steps() const IFET_EXCLUDES(mutex_);

  /// Steps in most-recently-used -> least-recently-used order (tests).
  std::vector<int> lru_order() const IFET_EXCLUDES(mutex_);

  /// Snapshot of the counter set plus this cache's residency gauges
  /// (budget, resident and peak bytes, pinned steps).
  StreamStats stats() const IFET_EXCLUDES(mutex_);

 private:
  struct Entry {
    std::shared_ptr<const VolumeF> volume;
    std::size_t bytes = 0;
    int pin_count = 0;
    bool prefetched = false;  ///< Set by prefetch insert, cleared on first
                              ///< lookup (counts one prefetch hit).
    std::list<int>::iterator lru_it;
  };

  /// Payloads evicted while the lock was held; the vector is always a
  /// local in the caller's frame declared BEFORE its lock guard, so the
  /// shared_ptrs (and any final VolumeF deallocation) are released after
  /// the mutex — destroying megabytes under a hot lock stalls every
  /// concurrent fetch.
  using EvictedPayloads = std::vector<std::shared_ptr<const VolumeF>>;

  void evict_over_budget_locked(EvictedPayloads& evicted)
      IFET_REQUIRES(mutex_);

  StreamCounters& counters_;
  /// Shared with every entry's deleter, so a payload that outlives the
  /// cache still returns its buffer safely.
  std::shared_ptr<SpareVolumes> spares_ = std::make_shared<SpareVolumes>();
  /// Fixed at construction, so read without the lock.
  const std::size_t budget_bytes_;
  mutable OrderedMutex mutex_{MutexRank::kCacheManager};
  std::size_t resident_bytes_ IFET_GUARDED_BY(mutex_) = 0;
  std::size_t peak_bytes_ IFET_GUARDED_BY(mutex_) = 0;
  std::list<int> lru_ IFET_GUARDED_BY(mutex_);  // front = most recent
  std::unordered_map<int, Entry> entries_ IFET_GUARDED_BY(mutex_);
  /// Pins on non-resident steps (applied on insert).
  std::unordered_map<int, int> pending_pins_ IFET_GUARDED_BY(mutex_);
};

}  // namespace ifet
