// Memoization store for per-timestep derived products.
//
// Recomputing a histogram or a synthesized IATF transfer function after
// its source volume was evicted would force a reload of the whole step —
// the worst possible amplification of a cache miss. Derived products are
// tiny (a few KiB against MiBs of voxels), so the streaming subsystem
// keeps them all: histograms, cumulative histograms, and synthesized 1D
// transfer functions, each keyed by (timestep, params-hash). The params
// hash captures everything the product depends on besides the step — bin
// count and value range for histograms, network state for IATFs — so a
// retrained network or a re-binned histogram never collides with a stale
// entry.
//
// Values are held by shared_ptr: returned references stay valid for the
// cache's lifetime even while new products are added or retired params
// hashes are invalidated (maps are node based; erasure drops the cache's
// reference, never the product a caller still holds).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "stream/stream_stats.hpp"
#include "tf/transfer_function.hpp"
#include "util/hashing.hpp"  // hash_combine / hash_double (moved to util)
#include "util/ordered_mutex.hpp"
#include "volume/histogram.hpp"

namespace ifet {

class DerivedCache {
 public:
  /// Hits and misses are added into `counters` (the tier's set), which
  /// must outlive the cache.
  explicit DerivedCache(StreamCounters& counters) : counters_(counters) {}
  DerivedCache(const DerivedCache&) = delete;
  DerivedCache& operator=(const DerivedCache&) = delete;

  /// Histogram for (step, params) — `compute` runs once per distinct key.
  /// When `client` is supplied the hit/miss is also added into that
  /// client's counters (each StreamedSequence passes its own, so dedup
  /// across the clients of a shared tier stays observable per client;
  /// see docs/SERVER.md).
  std::shared_ptr<const Histogram> histogram(
      int step, std::uint64_t params_hash,
      const std::function<Histogram()>& compute,
      StreamCounters* client = nullptr) IFET_EXCLUDES(mutex_);

  /// Cumulative histogram for (step, params).
  std::shared_ptr<const CumulativeHistogram> cumulative_histogram(
      int step, std::uint64_t params_hash,
      const std::function<CumulativeHistogram()>& compute,
      StreamCounters* client = nullptr) IFET_EXCLUDES(mutex_);

  /// Synthesized transfer function for (step, params) — params must hash
  /// the network/training state (see Iatf::params_hash), so further
  /// training naturally invalidates by changing the key.
  std::shared_ptr<const TransferFunction1D> transfer_function(
      int step, std::uint64_t params_hash,
      const std::function<TransferFunction1D()>& compute,
      StreamCounters* client = nullptr) IFET_EXCLUDES(mutex_);

  /// Drop every memoized product recorded under `params_hash`, across all
  /// three product kinds, and return how many entries were erased.
  ///
  /// This is the multi-tenant retirement primitive: when a client's
  /// network moves on (retraining changes its params hash) the entries
  /// under the OLD hash are garbage *to that client* — but another client
  /// still at that state must keep them. Erasure is therefore strictly
  /// keyed by the hash: entries under any other params hash are never
  /// touched, and the caller (SessionManager) only invokes this once no
  /// live session references the hash (docs/SERVER.md). Outstanding
  /// shared_ptrs returned earlier stay valid — invalidation drops the
  /// cache's reference, not the product.
  std::size_t invalidate(std::uint64_t params_hash) IFET_EXCLUDES(mutex_);

  std::size_t size() const IFET_EXCLUDES(mutex_);

 private:
  struct Key {
    int step;
    std::uint64_t params;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return static_cast<std::size_t>(
          hash_combine(static_cast<std::uint64_t>(k.step) * 0x100000001b3ULL,
                       k.params));
    }
  };

  template <typename T>
  using MemoMap = std::unordered_map<Key, std::shared_ptr<const T>, KeyHash>;

  /// `compute` is a user callback: it MUST run with mutex_ released (it
  /// routinely re-enters this cache for another product — see the .cpp).
  /// The map is addressed by member pointer so the guarded member is only
  /// dereferenced inside the locked scopes (passing it by reference from
  /// the unlocked public methods would leak guarded state).
  template <typename T>
  std::shared_ptr<const T> get_or_compute(
      MemoMap<T> DerivedCache::* map, int step, std::uint64_t params_hash,
      const std::function<T()>& compute, StreamCounters* client)
      IFET_EXCLUDES(mutex_);

  template <typename T>
  std::size_t invalidate_in(MemoMap<T>& map, std::uint64_t params_hash)
      IFET_REQUIRES(mutex_);

  StreamCounters& counters_;
  mutable OrderedMutex mutex_{MutexRank::kDerivedCache};
  MemoMap<Histogram> hists_ IFET_GUARDED_BY(mutex_);
  MemoMap<CumulativeHistogram> cumhists_ IFET_GUARDED_BY(mutex_);
  MemoMap<TransferFunction1D> tfs_ IFET_GUARDED_BY(mutex_);
};

}  // namespace ifet
