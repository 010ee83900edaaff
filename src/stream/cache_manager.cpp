#include "stream/cache_manager.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ifet {

namespace {

/// An entry's deleter: the volume's buffer goes to the spare list when it
/// has room, and the volume is freed either way.
struct ReturnToSpares {
  std::shared_ptr<SpareVolumes> spares;
  void operator()(VolumeF* volume) const {
    spares->put(*volume);
    delete volume;
  }
};

}  // namespace

void SpareVolumes::put(VolumeF& volume) {
  OrderedMutexLock lock(mutex_);
  if (count_ < kCapacity) kept_[count_++] = std::move(volume);
}

VolumeF SpareVolumes::take() {
  OrderedMutexLock lock(mutex_);
  if (count_ == 0) return {};
  return std::move(kept_[--count_]);
}

CacheManager::CacheManager(StreamCounters& counters,
                           std::size_t budget_bytes)
    : counters_(counters), budget_bytes_(budget_bytes) {}

IFET_HOT std::shared_ptr<const VolumeF> CacheManager::lookup(int step) {
  OrderedMutexLock lock(mutex_);
  auto it = entries_.find(step);
  if (it == entries_.end()) {
    counters_.misses.add();
    return nullptr;
  }
  counters_.hits.add();
  if (it->second.prefetched) {
    it->second.prefetched = false;
    counters_.prefetch_hits.add();
  }
  // splice, not erase+push_front: refreshing the LRU position relinks the
  // existing node, so a cache hit never touches the allocator (and the
  // entry's stored iterator stays valid).
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.volume;
}

IFET_HOT std::shared_ptr<const VolumeF> CacheManager::lookup_quiet(int step) {
  OrderedMutexLock lock(mutex_);
  auto it = entries_.find(step);
  if (it == entries_.end()) return nullptr;
  if (it->second.prefetched) {
    it->second.prefetched = false;
    counters_.prefetch_hits.add();
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return it->second.volume;
}

bool CacheManager::resident(int step) const {
  OrderedMutexLock lock(mutex_);
  return entries_.count(step) != 0;
}

std::shared_ptr<const VolumeF> CacheManager::insert(int step, VolumeF volume,
                                                    bool from_prefetch) {
  IFET_REQUIRE(!volume.empty(), "CacheManager::insert: empty volume");
  EvictedPayloads evicted;  // declared before the lock: destroyed after it
  OrderedMutexLock lock(mutex_);
  auto it = entries_.find(step);
  if (it != entries_.end()) {
    // Lost a benign load race; keep the resident entry.
    return it->second.volume;
  }
  Entry entry;
  entry.bytes = volume.size() * sizeof(float);
  entry.volume = std::shared_ptr<const VolumeF>(
      new VolumeF(std::move(volume)), ReturnToSpares{spares_});
  entry.prefetched = from_prefetch;
  auto pending = pending_pins_.find(step);
  if (pending != pending_pins_.end()) {
    entry.pin_count = pending->second;
    pending_pins_.erase(pending);
  }
  lru_.push_front(step);
  entry.lru_it = lru_.begin();
  resident_bytes_ += entry.bytes;
  auto stored = entries_.emplace(step, std::move(entry)).first->second.volume;
  evict_over_budget_locked(evicted);
  peak_bytes_ = std::max(peak_bytes_, resident_bytes_);
  return stored;
}

void CacheManager::evict_over_budget_locked(EvictedPayloads& evicted) {
  if (budget_bytes_ == 0) return;
  auto it = lru_.end();
  while (resident_bytes_ > budget_bytes_ && it != lru_.begin()) {
    --it;
    const int victim = *it;
    auto e = entries_.find(victim);
    IFET_REQUIRE(e != entries_.end(), "CacheManager: LRU/entry desync");
    if (e->second.pin_count > 0) continue;  // pinned: try next-older
    resident_bytes_ -= e->second.bytes;
    counters_.evictions.add();
    // Hand the payload to the caller's frame: if this was the last
    // reference, the VolumeF deallocation must not run under the mutex.
    evicted.push_back(std::move(e->second.volume));
    it = lru_.erase(it);
    entries_.erase(e);
  }
}

void CacheManager::pin(int step) {
  OrderedMutexLock lock(mutex_);
  auto it = entries_.find(step);
  if (it != entries_.end()) {
    ++it->second.pin_count;
  } else {
    ++pending_pins_[step];
  }
}

void CacheManager::unpin(int step) {
  EvictedPayloads evicted;
  OrderedMutexLock lock(mutex_);
  auto it = entries_.find(step);
  if (it != entries_.end()) {
    IFET_REQUIRE(it->second.pin_count > 0,
                 "CacheManager::unpin: step is not pinned");
    --it->second.pin_count;
    // The released entry may leave the cache over budget; give the bytes
    // back now rather than at the next insert.
    evict_over_budget_locked(evicted);
    return;
  }
  auto pending = pending_pins_.find(step);
  IFET_REQUIRE(pending != pending_pins_.end(),
               "CacheManager::unpin: step is not pinned");
  if (--pending->second == 0) pending_pins_.erase(pending);
}

std::size_t CacheManager::resident_bytes() const {
  OrderedMutexLock lock(mutex_);
  return resident_bytes_;
}

std::size_t CacheManager::resident_steps() const {
  OrderedMutexLock lock(mutex_);
  return entries_.size();
}

std::vector<int> CacheManager::lru_order() const {
  OrderedMutexLock lock(mutex_);
  return {lru_.begin(), lru_.end()};
}

IFET_DETERMINISTIC StreamStats CacheManager::stats() const {
  StreamStats out = counters_.snapshot();
  OrderedMutexLock lock(mutex_);
  out.budget_bytes = budget_bytes_;
  out.bytes_resident = resident_bytes_;
  out.peak_bytes_resident = peak_bytes_;
  // Walk the LRU list, not the hash map: the pinned count is
  // order-independent, but stats() feeds StreamStats summaries the
  // determinism contract covers, and the list iterates in a defined
  // (recency) order at zero extra cost.
  std::size_t pinned = 0;
  for (const int step : lru_) {
    const auto e = entries_.find(step);
    if (e != entries_.end() && e->second.pin_count > 0) ++pinned;
  }
  out.pinned_steps = pinned;
  return out;
}

}  // namespace ifet
