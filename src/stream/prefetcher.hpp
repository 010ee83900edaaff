// Asynchronous lookahead scheduler for the streaming subsystem.
//
// Overlaps timestep decode with the caller's compute: schedule(step) posts
// a load to the shared ThreadPool and returns immediately; the decoded
// volume lands in the CacheManager marked `from_prefetch` so its first
// consumer counts a prefetch hit. A synchronous fetch that finds its step
// in flight waits for that load instead of issuing a duplicate — the
// latency is partially hidden, and it still counts as a prefetch hit.
//
// Load errors are not thrown from worker threads (ThreadPool::post tasks
// must not throw): the failure is captured as an exception_ptr keyed by
// step, the step leaves the in-flight set (so nothing deadlocks and no
// partial volume is cached), and the next synchronous fetch collects it
// via take_failure() — the error surfaces on the caller's thread where
// the store's retry/quarantine machinery can act on it.
#pragma once

#include <condition_variable>
#include <exception>
#include <functional>
#include <unordered_map>
#include <unordered_set>

#include "parallel/thread_pool.hpp"
#include "stream/cache_manager.hpp"
#include "util/deadline.hpp"
#include "util/ordered_mutex.hpp"

namespace ifet {

class Prefetcher {
 public:
  /// `load` decodes one timestep (called on worker threads; must be
  /// thread-safe). Decoded steps are inserted into `cache`; issued loads,
  /// failures and decode time are added into `counters`. All three must
  /// outlive the Prefetcher.
  Prefetcher(ThreadPool& pool, CacheManager& cache, StreamCounters& counters,
             std::function<VolumeF(int)> load);

  /// Drains: blocks until every in-flight load has completed.
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Schedule an async load of `step`; no-op when the step is already
  /// resident or in flight, or when the pool is shutting down.
  void schedule(int step) IFET_EXCLUDES(mutex_);

  /// Block until `step` is no longer in flight. Returns true when the call
  /// actually waited on (or raced with) a scheduled load — the caller
  /// should re-check the cache before loading itself.
  bool wait(int step) IFET_EXCLUDES(mutex_);

  /// Deadline-bounded variant: gives up with a typed DeadlineExceeded when
  /// `deadline` runs out while the step is still in flight. The async load
  /// itself keeps running (workers carry no deadline) and lands in the
  /// cache as usual, so a later fetch with a fresh budget hits. This is
  /// what keeps a stuck or slow decode from blocking a server strand
  /// forever (docs/ROBUSTNESS.md, "Overload and deadlines").
  bool wait(int step, const Deadline& deadline) IFET_EXCLUDES(mutex_);

  bool in_flight(int step) const IFET_EXCLUDES(mutex_);

  /// Error captured by a failed async load of `step`, if any; clears the
  /// record so a later retry starts clean. Returns nullptr when the step
  /// never failed (or its failure was already taken).
  std::exception_ptr take_failure(int step) IFET_EXCLUDES(mutex_);

 private:
  ThreadPool& pool_;
  CacheManager& cache_;
  StreamCounters& counters_;
  /// User callback; always invoked with mutex_ released (it performs disk
  /// decode and may call back into the cache or the pool).
  std::function<VolumeF(int)> load_;

  mutable OrderedMutex mutex_{MutexRank::kPrefetcher};
  std::condition_variable_any done_cv_;
  std::unordered_set<int> in_flight_ IFET_GUARDED_BY(mutex_);
  std::unordered_map<int, std::exception_ptr> failed_ IFET_GUARDED_BY(mutex_);
};

}  // namespace ifet
