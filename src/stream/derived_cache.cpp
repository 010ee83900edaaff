#include "stream/derived_cache.hpp"

#include "util/hot_path.hpp"

namespace ifet {

// The lock is NOT held while `compute` runs: synthesis of one derived
// product routinely consults another (an IATF transfer function reads the
// step's cumulative histogram through this same cache), so computing under
// the lock would self-deadlock — in checked builds the OrderedMutex
// re-entry validator turns that mistake into an immediate ifet::Error
// (tests/concurrency_regression_test.cpp pins the re-entrant case). Two
// threads racing the same cold key may both compute; the first insert wins
// and the duplicate is discarded — wasted work, never wrong results.
template <typename T>
std::shared_ptr<const T> DerivedCache::get_or_compute(
    MemoMap<T> DerivedCache::* map, int step, std::uint64_t params_hash,
    const std::function<T()>& compute, StreamCounters* client) {
  const Key key{step, params_hash};
  {
    OrderedMutexLock lock(mutex_);
    auto it = (this->*map).find(key);
    if (it != (this->*map).end()) {
      counters_.derived_hits.add();
      if (client != nullptr) client->derived_hits.add();
      return it->second;
    }
  }
  counters_.derived_misses.add();
  if (client != nullptr) client->derived_misses.add();
  auto value = std::make_shared<const T>(compute());
  OrderedMutexLock lock(mutex_);
  auto [it, inserted] = (this->*map).emplace(key, std::move(value));
  (void)inserted;
  return it->second;
}

template <typename T>
std::size_t DerivedCache::invalidate_in(MemoMap<T>& map,
                                        std::uint64_t params_hash) {
  std::size_t erased = 0;
  for (auto it = map.begin(); it != map.end();) {
    if (it->first.params == params_hash) {
      it = map.erase(it);
      ++erased;
    } else {
      ++it;
    }
  }
  return erased;
}

IFET_DETERMINISTIC std::shared_ptr<const Histogram> DerivedCache::histogram(
    int step, std::uint64_t params_hash,
    const std::function<Histogram()>& compute,
    StreamCounters* client) {
  return get_or_compute(&DerivedCache::hists_, step, params_hash, compute,
                        client);
}

IFET_DETERMINISTIC std::shared_ptr<const CumulativeHistogram>
DerivedCache::cumulative_histogram(
    int step, std::uint64_t params_hash,
    const std::function<CumulativeHistogram()>& compute,
    StreamCounters* client) {
  return get_or_compute(&DerivedCache::cumhists_, step, params_hash, compute,
                        client);
}

IFET_DETERMINISTIC std::shared_ptr<const TransferFunction1D>
DerivedCache::transfer_function(
    int step, std::uint64_t params_hash,
    const std::function<TransferFunction1D()>& compute,
    StreamCounters* client) {
  return get_or_compute(&DerivedCache::tfs_, step, params_hash, compute,
                        client);
}

std::size_t DerivedCache::invalidate(std::uint64_t params_hash) {
  OrderedMutexLock lock(mutex_);
  std::size_t erased = invalidate_in(hists_, params_hash);
  erased += invalidate_in(cumhists_, params_hash);
  erased += invalidate_in(tfs_, params_hash);
  return erased;
}

std::size_t DerivedCache::size() const {
  OrderedMutexLock lock(mutex_);
  return hists_.size() + cumhists_.size() + tfs_.size();
}

}  // namespace ifet
