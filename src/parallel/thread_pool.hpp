// Shared-memory work distribution.
//
// The paper (Sec 8) notes that per-time-step feature extraction is
// embarrassingly parallel and proposes a PC cluster for batch processing;
// Sec 7 relies on the GPU for per-voxel work. We provide the shared-memory
// equivalent: a fixed thread pool with static and dynamically-chunked
// parallel loops. A loop whose cost is uneven across its range (the ray
// caster's image rows) takes dynamic chunks; loops of uniform cost (the
// classifier sweep's rows, per-z-slice generators, filters, gradients)
// split statically (docs/PERFORMANCE.md, "Scheduling").
//
// Design notes (per C++ Core Guidelines CP.*): tasks never share mutable
// state except through the caller-provided body; joins are explicit; the
// pool is RAII — destruction drains and joins all workers.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/error.hpp"
#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ifet {

/// Thrown by ThreadPool::post when the pool is shutting down: a task
/// enqueued during shutdown would otherwise be silently dropped, which is
/// exactly the failure mode that loses prefetch work without a trace.
/// Callers that legitimately race shutdown (e.g. the streaming
/// Prefetcher's best-effort lookahead) should use try_post instead.
class PoolShutdownError : public Error {
 public:
  explicit PoolShutdownError(const std::string& what) : Error(what) {}
};

class ThreadPool {
 public:
  /// Creates `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (minimum 1).
  explicit ThreadPool(std::size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Runs `body(begin..end)` split into contiguous ranges, one per worker
  /// (static schedule). Blocks until all ranges complete. Exceptions from
  /// the body are captured and the first one rethrown to the caller.
  void parallel_for_static(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& range_body);

  /// Dynamically-chunked loop: workers grab `chunk`-sized ranges from a
  /// shared counter. Use when per-index cost is irregular (e.g. region
  /// growing fronts, early ray termination).
  void parallel_for_dynamic(
      std::size_t begin, std::size_t end, std::size_t chunk,
      const std::function<void(std::size_t, std::size_t)>& range_body);

  /// Fire-and-forget: enqueue `fn` to run on a worker thread and return
  /// immediately. The destructor drains the queue before joining, so every
  /// posted task runs exactly once even if the pool is destroyed right
  /// after posting. `fn` must not throw — there is no caller to rethrow
  /// to (a throwing fn terminates the process).
  ///
  /// Posting to a pool that is shutting down fails LOUDLY with
  /// PoolShutdownError: accepting the task could never run it. Use
  /// try_post when racing shutdown is expected.
  void post(std::function<void()> fn) IFET_EXCLUDES(mutex_);

  /// Like post, but returns false instead of throwing when the pool is
  /// shutting down (the task is NOT enqueued and will never run).
  [[nodiscard]] bool try_post(std::function<void()> fn) IFET_EXCLUDES(mutex_);

  /// Begin shutdown explicitly: drains already-queued tasks, joins all
  /// workers, and makes further post() calls throw PoolShutdownError.
  /// Idempotent; the destructor calls it.
  void shutdown() IFET_EXCLUDES(mutex_);

  /// Process-wide default pool (lazily constructed, sized to hardware).
  static ThreadPool& global();

  class ScopedGlobalWidth;  // defined after the class: holds a ThreadPool

 private:
  struct Task {
    std::function<void()> fn;
  };

  void worker_loop() IFET_EXCLUDES(mutex_);
  void run_tasks(std::vector<std::function<void()>> tasks)
      IFET_EXCLUDES(mutex_);

  std::vector<std::thread> workers_;
  // MutexRank::kThreadPool, below only the spare-buffer leaf: tasks
  // always run with the queue lock dropped, so no other ifet mutex is
  // ever acquired while this one is held. condition_variable_any because
  // the annotated OrderedMutex is BasicLockable, not std::mutex.
  OrderedMutex mutex_{MutexRank::kThreadPool};
  std::condition_variable_any cv_;
  std::queue<Task> queue_ IFET_GUARDED_BY(mutex_);
  bool stopping_ IFET_GUARDED_BY(mutex_) = false;
};

/// Bench/replay-harness hook: while an instance is alive,
/// ThreadPool::global() returns a temporary pool with exactly
/// `num_threads` workers instead of the process-wide default. Scopes nest
/// (each restores its predecessor) but must not be constructed from
/// concurrent threads — this is a harness control, not a scheduling
/// primitive. The default global pool is never destroyed; the temporary
/// pool drains and joins at scope exit. Used by util/determinism.hpp's
/// ReplayCheck runners to replay a kernel at perturbed widths.
class ThreadPool::ScopedGlobalWidth {
 public:
  explicit ScopedGlobalWidth(std::size_t num_threads);
  ~ScopedGlobalWidth();

  ScopedGlobalWidth(const ScopedGlobalWidth&) = delete;
  ScopedGlobalWidth& operator=(const ScopedGlobalWidth&) = delete;

 private:
  ThreadPool pool_;
  ThreadPool* previous_;
};

/// Convenience: per-index parallel loop on the global pool, static schedule.
void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body);

}  // namespace ifet
