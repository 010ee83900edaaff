#include "stream/prefetcher.hpp"

#include "util/error.hpp"
#include "util/timer.hpp"

namespace ifet {

Prefetcher::Prefetcher(ThreadPool& pool, CacheManager& cache,
                       StreamCounters& counters,
                       std::function<VolumeF(int)> load)
    : pool_(pool), cache_(cache), counters_(counters), load_(std::move(load)) {
  IFET_REQUIRE(static_cast<bool>(load_), "Prefetcher: empty load function");
}

Prefetcher::~Prefetcher() {
  OrderedMutexLock lock(mutex_);
  while (!in_flight_.empty()) done_cv_.wait(mutex_);
}

void Prefetcher::schedule(int step) {
  if (cache_.resident(step)) return;
  {
    OrderedMutexLock lock(mutex_);
    if (!in_flight_.insert(step).second) return;  // already in flight
  }
  auto task = [this, step] {
    // Worker-thread context: errors may not escape (ThreadPool::post tasks
    // must not throw). A failed load leaves no partial volume in the
    // cache; its error is parked in failed_ for take_failure().
    std::exception_ptr error;
    try {
      Stopwatch timer;
      VolumeF volume = load_(step);
      const double seconds = timer.seconds();
      cache_.insert(step, std::move(volume), /*from_prefetch=*/true);
      counters_.prefetch_decode_seconds.add(seconds);
    } catch (...) {  // ifet-lint: allow(catch-all) — parked for take_failure
      // Any escape — std or not — must still run the erase/notify cleanup
      // below, or every waiter queued on this step blocks forever (the
      // regression tests/stream_test.cpp pins). The exception is parked,
      // not swallowed: take_failure() rethrows it on a fetching thread.
      counters_.prefetch_failures.add();
      error = std::current_exception();
    }
    // notify_all must happen under the lock: ~Prefetcher may destroy the
    // condition variable the moment it observes in_flight_ empty, so the
    // erase and the notify have to be atomic with respect to that wait.
    OrderedMutexLock lock(mutex_);
    if (error) {
      failed_[step] = error;
    } else {
      failed_.erase(step);  // a stale failure must not shadow fresh data
    }
    in_flight_.erase(step);
    done_cv_.notify_all();
  };
  if (!pool_.try_post(task)) {
    // Pool is shutting down: prefetch silently degrades to demand loading.
    OrderedMutexLock lock(mutex_);
    in_flight_.erase(step);
    done_cv_.notify_all();
    return;
  }
  counters_.prefetch_issued.add();
}

bool Prefetcher::wait(int step) {
  return wait(step, Deadline::unlimited());
}

bool Prefetcher::wait(int step, const Deadline& deadline) {
  OrderedMutexLock lock(mutex_);
  if (in_flight_.count(step) == 0) return false;
  while (in_flight_.count(step) != 0) {
    // Throws the typed DeadlineExceeded once the budget is gone; the load
    // itself keeps running and lands in the cache for a later retry.
    deadline.check("Prefetcher::wait for in-flight load");
    deadline.wait_once(done_cv_, mutex_);
  }
  return true;
}

bool Prefetcher::in_flight(int step) const {
  OrderedMutexLock lock(mutex_);
  return in_flight_.count(step) != 0;
}

std::exception_ptr Prefetcher::take_failure(int step) {
  OrderedMutexLock lock(mutex_);
  auto it = failed_.find(step);
  if (it == failed_.end()) return nullptr;
  std::exception_ptr error = it->second;
  failed_.erase(it);
  return error;
}

}  // namespace ifet
