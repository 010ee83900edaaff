// Contract tests of the shared allocation guard (util/alloc_guard.hpp):
// counting through the installed operator new/delete, snapshot semantics
// of DenyAllocScope (nesting, zero-allocation regions), and cross-thread
// visibility — explicit std::threads and ThreadPool workers both land in
// the same process-wide counters.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "util/alloc_guard.hpp"

IFET_ALLOC_GUARD_INSTALL();

namespace ifet {
namespace {

TEST(AllocGuard, CountsAllocationsInScope) {
  DenyAllocScope scope;
  EXPECT_EQ(scope.allocations(), 0u);
  auto p = std::make_unique<int>(7);
  EXPECT_GE(scope.allocations(), 1u);
  const auto after_one = scope.allocations();
  auto q = std::make_unique<int>(9);
  EXPECT_GT(scope.allocations(), after_one);
}

TEST(AllocGuard, ZeroWhenNothingAllocates) {
  // A pre-sized buffer written in place must not move the counter.
  std::vector<double> buf(1024);
  DenyAllocScope scope;
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<double>(i) * 0.5;
  }
  EXPECT_EQ(scope.allocations(), 0u);
}

TEST(AllocGuard, DeallocationDoesNotCountAsAllocation) {
  auto p = std::make_unique<std::vector<int>>(64);
  DenyAllocScope scope;
  p.reset();
  EXPECT_EQ(scope.allocations(), 0u);
}

TEST(AllocGuard, NestedScopesSeeTheirOwnWindows) {
  DenyAllocScope outer;
  auto a = std::make_unique<int>(1);
  const auto outer_before_inner = outer.allocations();
  {
    DenyAllocScope inner;
    EXPECT_EQ(inner.allocations(), 0u);
    auto b = std::make_unique<int>(2);
    // The inner window is a subset of the outer one.
    EXPECT_GE(inner.allocations(), 1u);
    EXPECT_GE(outer.allocations(), outer_before_inner + inner.allocations());
  }
  EXPECT_GE(outer.allocations(), 2u);
}

TEST(AllocGuard, CountsAllocationsFromOtherThreads) {
  DenyAllocScope scope;
  std::thread worker([] {
    auto p = std::make_unique<std::vector<double>>(256);
    (void)p;
  });
  worker.join();
  // The std::thread itself allocates too; the point is the window saw
  // work done off the constructing thread.
  EXPECT_GE(scope.allocations(), 1u);
}

TEST(AllocGuard, CountsAllocationsFromThreadPoolWorkers) {
  // Warm the pool outside the window so its own lazy setup isn't counted.
  parallel_for(0, std::size_t{8}, [](std::size_t) {});

  DenyAllocScope scope;
  std::atomic<std::uint64_t> made{0};
  parallel_for(0, std::size_t{16}, [&](std::size_t) {
    auto p = std::make_unique<int>(3);
    made.fetch_add(1, std::memory_order_relaxed);
    (void)p;
  });
  EXPECT_EQ(made.load(), 16u);
  EXPECT_GE(scope.allocations(), 16u);
}

TEST(AllocGuard, CountsNothrowAllocations) {
  // std::stable_sort takes its scratch buffer from nothrow operator new.
  std::vector<int> values(256);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<int>((i * 37) % values.size());
  }
  DenyAllocScope scope;
  std::stable_sort(values.begin(), values.end());
  EXPECT_GE(scope.allocations(), 1u);
  EXPECT_TRUE(std::is_sorted(values.begin(), values.end()));
}

TEST(AllocGuard, GlobalCountersAreMonotonic) {
  const auto before = alloc_guard::allocation_count().load();
  auto p = std::make_unique<int>(5);
  const auto after = alloc_guard::allocation_count().load();
  EXPECT_GT(after, before);
  p.reset();
  EXPECT_GE(alloc_guard::deallocation_count().load(), 1u);
  // allocation_count never decreases on free.
  EXPECT_GE(alloc_guard::allocation_count().load(), after);
}

}  // namespace
}  // namespace ifet
