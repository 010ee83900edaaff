#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

TEST(ThreadPool, RunsAllIndicesExactlyOnce) {
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(0, n, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, EmptyRangeIsNoop) {
  std::atomic<int> calls{0};
  parallel_for(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  parallel_for(7, 3, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, StaticRangesCoverWithoutOverlap) {
  ThreadPool pool(4);
  const std::size_t n = 1003;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for_static(0, n, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LE(lo, hi);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, DynamicChunksCoverWithoutOverlap) {
  ThreadPool pool(3);
  const std::size_t n = 777;
  std::vector<std::atomic<int>> hits(n);
  pool.parallel_for_dynamic(0, n, 10, [&](std::size_t lo, std::size_t hi) {
    EXPECT_LE(hi - lo, 10u);
    for (std::size_t i = lo; i < hi; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, DynamicRejectsZeroChunk) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_dynamic(0, 10, 0, [](std::size_t, std::size_t) {}),
      Error);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_static(0, 100,
                                        [&](std::size_t lo, std::size_t) {
                                          if (lo == 0) {
                                            throw Error("worker failure");
                                          }
                                        }),
               Error);
}

TEST(ThreadPool, NestedParallelismDoesNotDeadlock) {
  std::atomic<int> total{0};
  parallel_for(0, 4, [&](std::size_t) {
    parallel_for(0, 50, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, SizeMatchesRequest) {
  ThreadPool pool(5);
  EXPECT_EQ(pool.size(), 5u);
}

TEST(ThreadPool, ShutdownWhileBusyDrainsPostedTasks) {
  // Destroy the pool while posted tasks are still queued and mid-flight;
  // the destructor contract is that every accepted task runs exactly once
  // before the workers join.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.post([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1);
      });
    }
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, PostRejectsEmptyTask) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.post(std::function<void()>{}), Error);
}

TEST(ThreadPool, PostAfterShutdownThrowsLoudly) {
  // Tasks enqueued during/after shutdown must fail loudly, not vanish: a
  // silently dropped task is a lost prefetch or a hung waiter.
  ThreadPool pool(2);
  pool.shutdown();
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.post([&ran] { ran.fetch_add(1); }), PoolShutdownError);
  EXPECT_EQ(ran.load(), 0);
  // PoolShutdownError is an Error, so existing catch sites stay correct.
  EXPECT_THROW(pool.post([] {}), Error);
}

TEST(ThreadPool, TryPostReportsShutdownWithoutThrowing) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  EXPECT_TRUE(pool.try_post([&ran] { ran.fetch_add(1); }));
  pool.shutdown();
  EXPECT_FALSE(pool.try_post([&ran] { ran.fetch_add(1); }));
  EXPECT_EQ(ran.load(), 1);  // accepted task ran, rejected one did not
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // second call is a no-op, not a crash
  EXPECT_THROW(pool.post([] {}), PoolShutdownError);
}

TEST(ThreadPool, DynamicPropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_dynamic(0, 100, 5,
                                [&](std::size_t lo, std::size_t) {
                                  if (lo >= 50) throw Error("dynamic failure");
                                }),
      Error);
}

TEST(ThreadPool, ExceptionMessageSurvivesPropagation) {
  ThreadPool pool(2);
  try {
    pool.parallel_for_static(0, 10, [](std::size_t, std::size_t) {
      throw Error("specific failure detail");
    });
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("specific failure detail"),
              std::string::npos);
  }
}

TEST(ThreadPool, FirstOfManyExceptionsIsRethrown) {
  // Every range throws; exactly one Error must reach the caller and the
  // pool must swallow the rest without terminating.
  ThreadPool pool(4);
  std::atomic<int> throws{0};
  EXPECT_THROW(pool.parallel_for_static(0, 64,
                                        [&](std::size_t, std::size_t) {
                                          throws.fetch_add(1);
                                          throw Error("range failure");
                                        }),
               Error);
  EXPECT_GT(throws.load(), 0);
}

TEST(ThreadPool, PoolIsReusableAfterException) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for_static(
                   0, 8, [](std::size_t, std::size_t) { throw Error("boom"); }),
               Error);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for_static(0, hits.size(),
                           [&](std::size_t lo, std::size_t hi) {
                             for (std::size_t i = lo; i < hi; ++i) {
                               hits[i].fetch_add(1);
                             }
                           });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedExceptionPropagatesThroughOuterLoop) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for_static(0, 4,
                               [&](std::size_t, std::size_t) {
                                 pool.parallel_for_static(
                                     0, 4, [](std::size_t, std::size_t) {
                                       throw Error("inner failure");
                                     });
                               }),
      Error);
}

}  // namespace
}  // namespace ifet
