#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

#include "util/error.hpp"

namespace ifet {

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::shutdown() {
  {
    OrderedMutexLock lock(mutex_);
    if (stopping_) return;  // idempotent; workers already joined or joining
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    Task task;
    {
      OrderedMutexLock lock(mutex_);
      // Explicit wait loop (not the predicate overload): the condition
      // reads guarded state, and this form keeps those reads visibly
      // inside the guarded scope for the thread-safety analysis.
      while (!stopping_ && queue_.empty()) cv_.wait(mutex_);
      if (queue_.empty()) return;  // woken for shutdown with nothing queued
      task = std::move(queue_.front());
      queue_.pop();
    }
    task.fn();
  }
}

void ThreadPool::run_tasks(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  std::atomic<std::size_t> remaining(tasks.size());
  std::mutex done_mutex;
  std::condition_variable done_cv;
  std::exception_ptr first_error;
  std::mutex error_mutex;

  {
    OrderedMutexLock lock(mutex_);
    for (auto& t : tasks) {
      queue_.push(Task{[&, fn = std::move(t)] {
        try {
          fn();
        } catch (...) {  // ifet-lint: allow(catch-all) — captured for rethrow
          std::lock_guard<std::mutex> elock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        // Count down under done_mutex: once the caller sees remaining == 0
        // it returns and destroys done_cv, so the last notify must happen
        // before the caller can take the lock.
        std::lock_guard<std::mutex> dlock(done_mutex);
        if (remaining.fetch_sub(1) == 1) done_cv.notify_all();
      }});
    }
  }
  cv_.notify_all();

  // The calling thread also drains the queue so that nested parallel calls
  // from within a worker cannot deadlock on an exhausted pool.
  for (;;) {
    Task task;
    {
      OrderedMutexLock lock(mutex_);
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
      }
    }
    if (task.fn) {
      task.fn();
    } else {
      break;
    }
  }

  std::unique_lock<std::mutex> dlock(done_mutex);
  done_cv.wait(dlock, [&] { return remaining.load() == 0; });
  if (first_error) std::rethrow_exception(first_error);
}

void ThreadPool::post(std::function<void()> fn) {
  IFET_REQUIRE(static_cast<bool>(fn), "ThreadPool::post: empty task");
  if (!try_post(std::move(fn))) {
    throw PoolShutdownError(
        "ThreadPool::post: pool is shutting down; the task was rejected "
        "and will not run (use try_post to race shutdown tolerantly)");
  }
}

bool ThreadPool::try_post(std::function<void()> fn) {
  IFET_REQUIRE(static_cast<bool>(fn), "ThreadPool::try_post: empty task");
  {
    OrderedMutexLock lock(mutex_);
    if (stopping_) return false;
    queue_.push(Task{std::move(fn)});
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::parallel_for_static(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& range_body) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  const std::size_t parts = std::min(workers_.size() + 1, n);
  if (parts <= 1) {
    range_body(begin, end);
    return;
  }
  std::vector<std::function<void()>> tasks;
  tasks.reserve(parts);
  for (std::size_t p = 0; p < parts; ++p) {
    const std::size_t lo = begin + n * p / parts;
    const std::size_t hi = begin + n * (p + 1) / parts;
    tasks.push_back([lo, hi, &range_body] { range_body(lo, hi); });
  }
  run_tasks(std::move(tasks));
}

void ThreadPool::parallel_for_dynamic(
    std::size_t begin, std::size_t end, std::size_t chunk,
    const std::function<void(std::size_t, std::size_t)>& range_body) {
  IFET_REQUIRE(chunk > 0, "parallel_for_dynamic requires chunk > 0");
  if (end <= begin) return;
  auto next = std::make_shared<std::atomic<std::size_t>>(begin);
  const std::size_t workers = workers_.size() + 1;
  std::vector<std::function<void()>> tasks;
  tasks.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    tasks.push_back([next, begin, end, chunk, &range_body] {
      (void)begin;
      for (;;) {
        std::size_t lo = next->fetch_add(chunk);
        if (lo >= end) return;
        std::size_t hi = std::min(end, lo + chunk);
        range_body(lo, hi);
      }
    });
  }
  run_tasks(std::move(tasks));
}

namespace {
// ScopedGlobalWidth override: global() consults this before the default
// pool. Plain atomic pointer — scopes are created from one thread only.
std::atomic<ThreadPool*> g_global_override{nullptr};
}  // namespace

ThreadPool& ThreadPool::global() {
  if (ThreadPool* o = g_global_override.load(std::memory_order_acquire)) {
    return *o;
  }
  static ThreadPool pool;
  return pool;
}

ThreadPool::ScopedGlobalWidth::ScopedGlobalWidth(std::size_t num_threads)
    : pool_(num_threads),
      previous_(
          g_global_override.exchange(&pool_, std::memory_order_acq_rel)) {}

ThreadPool::ScopedGlobalWidth::~ScopedGlobalWidth() {
  g_global_override.store(previous_, std::memory_order_release);
  // ~ThreadPool drains and joins pool_ after the override is lifted, so a
  // task that itself calls global() mid-drain sees the restored pool.
}

void parallel_for(std::size_t begin, std::size_t end,
                  const std::function<void(std::size_t)>& body) {
  ThreadPool::global().parallel_for_static(
      begin, end, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) body(i);
      });
}

}  // namespace ifet
