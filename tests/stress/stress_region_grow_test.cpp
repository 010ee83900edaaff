// Region-growing / mask-op stress tests for the tsan preset.
//
// label_components is read-only on its inputs and labels on the calling
// thread, so six threads labeling one shared mask must be race-free and
// deterministic; the disjoint-write test validates the documented Mask
// contract that uint8_t voxels are independently addressable (the reason
// Mask is not vector<bool>).

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "parallel/thread_pool.hpp"
#include "volume/components.hpp"
#include "volume/volume.hpp"

namespace ifet {
namespace {

Mask blobby_mask() {
  // Three separated axis-aligned blobs plus scattered single voxels.
  Mask mask(Dims{24, 20, 16}, 0);
  auto box = [&](Index3 lo, Index3 hi) {
    for (int k = lo.z; k <= hi.z; ++k)
      for (int j = lo.y; j <= hi.y; ++j)
        for (int i = lo.x; i <= hi.x; ++i) mask.at(i, j, k) = 1;
  };
  box({1, 1, 1}, {6, 5, 4});
  box({10, 8, 6}, {16, 14, 10});
  box({19, 2, 11}, {22, 5, 14});
  mask.at(8, 18, 2) = 1;
  mask.at(0, 19, 15) = 1;
  return mask;
}

TEST(RegionGrowStress, ConcurrentLabelingOfSharedMaskIsDeterministic) {
  const Mask mask = blobby_mask();
  const VolumeF values(mask.dims(), 2.5f);
  // The labeling with a value volume is the reference for both.
  const Labeling reference = label_components(mask, &values);

  // Each of six threads labels the shared mask with the value volume and
  // then bare.
  constexpr int kThreads = 6;
  std::vector<Labeling> results(2 * kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto i = static_cast<std::size_t>(t);
      results[2 * i] = label_components(mask, &values);
      results[2 * i + 1] = label_components(mask);
    });
  }
  for (auto& th : threads) th.join();

  for (const Labeling& r : results) {
    ASSERT_EQ(r.components.size(), reference.components.size());
    for (std::size_t c = 0; c < r.components.size(); ++c) {
      EXPECT_EQ(r.components[c].label, reference.components[c].label);
      EXPECT_EQ(r.components[c].voxel_count,
                reference.components[c].voxel_count);
    }
    for (std::size_t i = 0; i < r.labels.size(); ++i) {
      ASSERT_EQ(r.labels[i], reference.labels[i]) << "voxel " << i;
    }
  }
}

TEST(RegionGrowStress, ConcurrentSmallComponentRemoval) {
  const Mask mask = blobby_mask();
  const Mask reference = remove_small_components(mask, 10);
  constexpr int kThreads = 4;
  std::vector<Mask> results(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[static_cast<std::size_t>(t)] = remove_small_components(mask, 10);
    });
  }
  for (auto& th : threads) th.join();
  for (const Mask& r : results) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      ASSERT_EQ(r[i], reference[i]);
    }
  }
}

TEST(RegionGrowStress, DisjointMaskVoxelWritesAreRaceFree) {
  // The Mask contract: writing disjoint uint8 voxels from many threads is
  // well-defined. Flip every voxel through the pool with chunk size 1 and
  // verify the result (TSan validates the claim itself).
  Mask mask(Dims{32, 32, 8}, 0);
  ThreadPool pool(4);
  pool.parallel_for_dynamic(0, mask.size(), 1,
                            [&](std::size_t lo, std::size_t hi) {
                              for (std::size_t i = lo; i < hi; ++i) {
                                mask[i] = static_cast<std::uint8_t>(i % 2);
                              }
                            });
  std::size_t expected = mask.size() / 2;
  EXPECT_EQ(mask_count(mask), expected);
}

TEST(RegionGrowStress, ParallelMaskOpsAgainstSharedInputs) {
  const Mask a = blobby_mask();
  Mask b(a.dims(), 0);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<std::uint8_t>((i / 3) % 2);
  }
  const Mask ref_and = mask_and(a, b);
  const Mask ref_or = mask_or(a, b);
  const Mask ref_sub = mask_subtract(a, b);

  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 6; ++t) {
    threads.emplace_back([&, t] {
      const Mask out = (t % 3 == 0)   ? mask_and(a, b)
                       : (t % 3 == 1) ? mask_or(a, b)
                                      : mask_subtract(a, b);
      const Mask& ref = (t % 3 == 0) ? ref_and : (t % 3 == 1) ? ref_or : ref_sub;
      for (std::size_t i = 0; i < out.size(); ++i) {
        if (out[i] != ref[i]) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace ifet
