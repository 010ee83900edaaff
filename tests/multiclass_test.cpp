#include <gtest/gtest.h>

// N-class data-space classification (paper Sec 6: "a few sample data of
// different classes with brushes of different color"): the voxel
// classifier with K = N outputs, one sigmoid per brush class.
#include "core/dataspace.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

/// Three-material volume: background 0.1, material A 0.5, material B 0.9.
VolumeF three_material_volume(Dims d) {
  VolumeF v(d, 0.1f);
  for (int k = 2; k < 8; ++k) {
    for (int j = 2; j < 8; ++j) {
      for (int i = 2; i < 8; ++i) v.at(i, j, k) = 0.5f;
    }
  }
  for (int k = 10; k < 16; ++k) {
    for (int j = 10; j < 16; ++j) {
      for (int i = 10; i < 16; ++i) v.at(i, j, k) = 0.9f;
    }
  }
  return v;
}

std::vector<PaintedVoxel> paint_box(Index3 lo, Index3 hi, int step, int cls) {
  std::vector<PaintedVoxel> out;
  for (int k = lo.z; k <= hi.z; ++k) {
    for (int j = lo.y; j <= hi.y; ++j) {
      for (int i = lo.x; i <= hi.x; ++i) {
        out.push_back({Index3{i, j, k}, step, 1.0, cls});
      }
    }
  }
  return out;
}

DataSpaceConfig class_config(int classes) {
  DataSpaceConfig cfg;
  cfg.hidden_units = 14;
  cfg.seed = 9876;
  cfg.outputs = classes;
  return cfg;
}

DataSpaceConfig simple_config(int classes) {
  DataSpaceConfig cfg = class_config(classes);
  cfg.spec.use_shell = false;
  cfg.spec.use_position = false;
  cfg.spec.use_time = false;
  return cfg;
}

/// Per-class certainties of one voxel (size K).
std::vector<double> scores_at(const DataSpaceClassifier& clf,
                              const VolumeF& v, int i, int j, int k) {
  std::vector<double> scores;
  for (int c = 0; c < clf.outputs(); ++c) {
    scores.push_back(clf.classify_voxel(v, 0, i, j, k, c));
  }
  return scores;
}

TEST(MultiClass, ConstructionValidated) {
  // One output is the binary classifier: it has no argmax labels.
  DataSpaceClassifier binary(1, 0.0, 1.0, simple_config(1));
  EXPECT_THROW(binary.label_volume(VolumeF(Dims{4, 4, 4}), 0), Error);
  EXPECT_THROW(DataSpaceClassifier(1, 0.0, 1.0, simple_config(0)), Error);
  EXPECT_THROW(DataSpaceClassifier(0, 0.0, 1.0, simple_config(3)), Error);
  EXPECT_THROW(DataSpaceClassifier(1, 1.0, 1.0, simple_config(3)), Error);
  // Labels are stored as uint8: a 257th class would wrap.
  EXPECT_THROW(DataSpaceClassifier(1, 0.0, 1.0, simple_config(257)), Error);
  EXPECT_NO_THROW(DataSpaceClassifier(1, 0.0, 1.0, simple_config(256)));
  DataSpaceClassifier clf(1, 0.0, 1.0, simple_config(3));
  EXPECT_EQ(clf.outputs(), 3);
}

TEST(MultiClass, SeparatesThreeMaterialsByValue) {
  Dims d{18, 18, 18};
  VolumeF v = three_material_volume(d);
  DataSpaceClassifier clf(1, 0.0, 1.0, simple_config(3));
  // Class-balanced painting (roughly equal voxels per brush).
  clf.add_samples(v, 0, paint_box({0, 0, 9}, {3, 3, 12}, 0, 0));   // bg
  clf.add_samples(v, 0, paint_box({3, 3, 3}, {6, 6, 6}, 0, 1));    // A
  clf.add_samples(v, 0, paint_box({11, 11, 11}, {14, 14, 14}, 0, 2));  // B
  clf.train(1500);

  auto at = [&](int i, int j, int k) {
    auto scores = scores_at(clf, v, i, j, k);
    return std::max_element(scores.begin(), scores.end()) - scores.begin();
  };
  EXPECT_EQ(at(17, 17, 0), 0);   // background corner
  EXPECT_EQ(at(5, 5, 5), 1);     // material A interior
  EXPECT_EQ(at(12, 12, 12), 2);  // material B interior
}

TEST(MultiClass, LabelVolumeMatchesArgmax) {
  Dims d{12, 12, 12};
  VolumeF v = testing::random_volume(d, 3);
  DataSpaceClassifier clf(1, 0.0, 1.0, simple_config(3));
  clf.add_samples(v, 0, paint_box({0, 0, 0}, {1, 1, 1}, 0, 0));
  clf.add_samples(v, 0, paint_box({5, 5, 5}, {6, 6, 6}, 0, 1));
  clf.add_samples(v, 0, paint_box({9, 9, 9}, {10, 10, 10}, 0, 2));
  clf.train(50);
  Volume<std::uint8_t> labels = clf.label_volume(v, 0);
  for (int k = 0; k < d.z; k += 4) {
    for (int j = 0; j < d.y; j += 4) {
      for (int i = 0; i < d.x; i += 4) {
        auto scores = scores_at(clf, v, i, j, k);
        auto best =
            std::max_element(scores.begin(), scores.end()) - scores.begin();
        EXPECT_EQ(labels.at(i, j, k), best);
      }
    }
  }
}

TEST(MultiClass, ClassMasksPartitionTheVolume) {
  Dims d{14, 14, 14};
  VolumeF v = three_material_volume(Dims{18, 18, 18});
  // Use a view-sized copy to keep dims consistent:
  VolumeF small(d);
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) small.at(i, j, k) = v.at(i, j, k);
    }
  }
  DataSpaceClassifier clf(1, 0.0, 1.0, simple_config(3));
  clf.add_samples(small, 0, paint_box({0, 0, 10}, {1, 1, 12}, 0, 0));
  clf.add_samples(small, 0, paint_box({3, 3, 3}, {6, 6, 6}, 0, 1));
  clf.add_samples(small, 0, paint_box({11, 11, 11}, {12, 12, 12}, 0, 2));
  clf.train(300);
  std::size_t total = 0;
  for (int cls = 0; cls < 3; ++cls) {
    total += mask_count(clf.class_mask(small, 0, cls));
  }
  EXPECT_EQ(total, d.count());  // argmax assigns every voxel exactly once
}

TEST(MultiClass, CertaintyVolumeInUnitRange) {
  Dims d{10, 10, 10};
  VolumeF v = testing::random_volume(d, 5);
  DataSpaceClassifier clf(1, 0.0, 1.0, simple_config(2));
  clf.add_samples(v, 0, paint_box({0, 0, 0}, {1, 1, 1}, 0, 0));
  clf.add_samples(v, 0, paint_box({8, 8, 8}, {9, 9, 9}, 0, 1));
  clf.train(50);
  VolumeF certainty = clf.classify(v, 0, 1);
  for (float x : certainty.data()) {
    EXPECT_GE(x, 0.0f);
    EXPECT_LE(x, 1.0f);
  }
}

TEST(MultiClass, ValidatesSamples) {
  Dims d{8, 8, 8};
  VolumeF v(d);
  DataSpaceClassifier clf(2, 0.0, 1.0, simple_config(3));
  EXPECT_THROW(clf.train(1), Error);
  EXPECT_THROW(clf.add_samples(v, 5, {{Index3{0, 0, 0}, 5, 1.0, 0}}), Error);
  EXPECT_THROW(clf.add_samples(v, 0, {{Index3{9, 0, 0}, 0, 1.0, 0}}), Error);
  EXPECT_THROW(clf.add_samples(v, 0, {{Index3{0, 0, 0}, 0, 1.0, 3}}), Error);
  EXPECT_THROW(clf.add_samples(v, 0, {{Index3{0, 0, 0}, 1, 1.0, 0}}), Error);
  EXPECT_THROW(clf.classify(v, 0, 7), Error);
}

TEST(MultiClass, ShellSeparatesEqualValueClasses) {
  // Two classes at the SAME value, distinguishable only by context: a
  // large block (class 1) vs scattered single voxels (class 0 among
  // background) — the multi-class analog of the size-selective extraction.
  Dims d{20, 20, 20};
  VolumeF v(d, 0.0f);
  for (int k = 4; k < 14; ++k) {
    for (int j = 4; j < 14; ++j) {
      for (int i = 4; i < 14; ++i) v.at(i, j, k) = 0.8f;
    }
  }
  v.at(17, 17, 17) = 0.8f;
  v.at(17, 2, 17) = 0.8f;
  DataSpaceConfig cfg = class_config(2);
  cfg.spec.use_position = false;
  cfg.spec.use_time = false;
  cfg.spec.shell_radius = 2.0;
  DataSpaceClassifier clf(1, 0.0, 1.0, cfg);
  clf.add_samples(v, 0, paint_box({6, 6, 6}, {11, 11, 11}, 0, 1));
  clf.add_samples(v, 0, {{Index3{17, 17, 17}, 0, 1.0, 0},
                         {Index3{17, 2, 17}, 0, 1.0, 0},
                         {Index3{1, 1, 1}, 0, 1.0, 0}});
  clf.train(500);
  auto scores_big = scores_at(clf, v, 9, 9, 9);
  auto scores_tiny = scores_at(clf, v, 17, 17, 17);
  EXPECT_GT(scores_big[1], scores_big[0]);
  EXPECT_GT(scores_tiny[0], scores_tiny[1]);
}

}  // namespace
}  // namespace ifet
