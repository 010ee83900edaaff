#include <gtest/gtest.h>

#include "test_helpers.hpp"
#include "util/error.hpp"
#include "volume/octree.hpp"

namespace ifet {
namespace {

using testing::box_mask;

TEST(MaskOctree, RoundTripsExactly) {
  Dims d{20, 17, 9};  // deliberately non-power-of-two
  Rng rng(7);
  Mask m(d);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.uniform() < 0.3 ? 1 : 0;
  }
  MaskOctree tree(m);
  Mask back = tree.to_mask();
  ASSERT_EQ(back.dims(), d);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(back[i], m[i]) << "voxel " << i;
  }
  EXPECT_EQ(tree.voxel_count(), mask_count(m));
}

TEST(MaskOctree, PointQueriesMatchDense) {
  Dims d{16, 16, 16};
  Mask m = box_mask(d, {3, 4, 5}, {10, 11, 12});
  MaskOctree tree(m);
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        EXPECT_EQ(tree.at(i, j, k), m.at(i, j, k) != 0);
      }
    }
  }
  EXPECT_FALSE(tree.at(-1, 0, 0));
  EXPECT_FALSE(tree.at(0, 0, 99));
}

TEST(MaskOctree, CoherentMasksCompressWell) {
  // A solid box (the shape of tracked features) collapses into few nodes,
  // far below the dense footprint — the Silver-Wang reduction.
  Dims d{64, 64, 64};
  Mask m = box_mask(d, {8, 8, 8}, {39, 39, 39});  // an aligned 32^3 block
  MaskOctree tree(m);
  EXPECT_LT(tree.memory_bytes(), tree.dense_bytes() / 10);
}

TEST(MaskOctree, EmptyAndFullDegenerate) {
  Dims d{32, 32, 32};
  MaskOctree empty{Mask(d)};
  EXPECT_EQ(empty.voxel_count(), 0u);
  EXPECT_EQ(mask_count(empty.to_mask()), 0u);
  Mask full(d);
  full.fill(1);
  MaskOctree all(full);
  EXPECT_EQ(all.voxel_count(), d.count());
  EXPECT_EQ(mask_count(all.to_mask()), d.count());
  // A completely full power-of-two mask is a single sentinel — no real
  // nodes beyond the two placeholders.
  EXPECT_EQ(all.node_count(), 2u);
}

TEST(MaskOctree, OverlapMatchesDenseIntersection) {
  Dims d{24, 24, 24};
  Rng rng(9);
  Mask a(d), b(d);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.uniform() < 0.4 ? 1 : 0;
    b[i] = rng.uniform() < 0.4 ? 1 : 0;
  }
  MaskOctree ta(a), tb(b);
  EXPECT_EQ(MaskOctree::overlap(ta, tb), mask_count(mask_and(a, b)));
}

TEST(MaskOctree, OverlapOfDisjointIsZero) {
  Dims d{16, 16, 16};
  MaskOctree a{box_mask(d, {0, 0, 0}, {5, 5, 5})};
  MaskOctree b{box_mask(d, {10, 10, 10}, {15, 15, 15})};
  EXPECT_EQ(MaskOctree::overlap(a, b), 0u);
  MaskOctree self{box_mask(d, {0, 0, 0}, {5, 5, 5})};
  EXPECT_EQ(MaskOctree::overlap(a, self), 216u);
}

TEST(MaskOctree, OverlapRejectsDimMismatch) {
  MaskOctree a{Mask(Dims{8, 8, 8})};
  MaskOctree b{Mask(Dims{16, 8, 8})};
  EXPECT_THROW(MaskOctree::overlap(a, b), Error);
}

// Octree round-trip across random densities (property sweep).
class OctreeDensityTest : public ::testing::TestWithParam<double> {};

TEST_P(OctreeDensityTest, RoundTripAndCount) {
  Dims d{13, 21, 10};
  Rng rng(77);
  Mask m(d);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m[i] = rng.uniform() < GetParam() ? 1 : 0;
  }
  MaskOctree tree(m);
  EXPECT_EQ(tree.voxel_count(), mask_count(m));
  Mask back = tree.to_mask();
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(back[i], m[i]);
}

INSTANTIATE_TEST_SUITE_P(Densities, OctreeDensityTest,
                         ::testing::Values(0.0, 0.02, 0.3, 0.7, 1.0));

}  // namespace
}  // namespace ifet
