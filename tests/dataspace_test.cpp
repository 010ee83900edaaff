#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "core/dataspace.hpp"
#include "core/feature_vector.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"
#include "volume/components.hpp"
#include "stream/streamed_sequence.hpp"

namespace ifet {
namespace {

using testing::blob_volume;
using testing::box_mask;

TEST(FeatureVectorSpec, WidthCountsComponents) {
  FeatureVectorSpec spec;  // value + 14 shell + 3 pos + time
  EXPECT_EQ(spec.width(), 19);
  spec.use_gradient = true;
  EXPECT_EQ(spec.width(), 20);
  spec.use_shell = false;
  EXPECT_EQ(spec.width(), 6);
  spec.use_position = false;
  spec.use_time = false;
  spec.use_gradient = false;
  EXPECT_EQ(spec.width(), 1);
}

TEST(FeatureVectorSpec, ComponentNamesAlignWithWidth) {
  FeatureVectorSpec spec;
  spec.shell_samples = 6;
  auto names = spec.component_names();
  EXPECT_EQ(static_cast<int>(names.size()), spec.width());
  EXPECT_EQ(names.front(), "value");
  EXPECT_EQ(names.back(), "time");

  // Two variables: per-variable names carry a prefix, so every name is
  // unique and with_spec can map them.
  spec.variables = 2;
  spec.use_gradient = true;
  names = spec.component_names();
  EXPECT_EQ(static_cast<int>(names.size()), spec.width());
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());
}

TEST(ShellDirections, UnitLengthAndDistinct) {
  for (int count : {6, 14, 26}) {
    auto dirs = shell_directions(count);
    ASSERT_EQ(static_cast<int>(dirs.size()), count);
    for (std::size_t i = 0; i < dirs.size(); ++i) {
      EXPECT_NEAR(dirs[i].norm(), 1.0, 1e-12);
      for (std::size_t j = i + 1; j < dirs.size(); ++j) {
        EXPECT_GT((dirs[i] - dirs[j]).norm(), 1e-6);
      }
    }
  }
  EXPECT_THROW(shell_directions(0), Error);
  EXPECT_THROW(shell_directions(27), Error);
}

TEST(AssembleFeatureVector, ValuesNormalizedToUnit) {
  VolumeF v = testing::random_volume(Dims{12, 12, 12}, 5, 0.0, 10.0);
  FeatureContext ctx{v, {{0.0, 10.0}}, 3, 10};
  FeatureVectorSpec spec;
  spec.use_gradient = true;
  auto fv = assemble_feature_vector(spec, ctx, 6, 6, 6);
  ASSERT_EQ(static_cast<int>(fv.size()), spec.width());
  for (double x : fv) {
    EXPECT_GE(x, 0.0);
    EXPECT_LE(x, 1.0);
  }
}

TEST(AssembleFeatureVector, ShellSeesNeighborhoodNotCenter) {
  // A bright center voxel in a dark volume: the value component is high,
  // every shell sample (at radius 3) is low.
  VolumeF v(Dims{16, 16, 16}, 0.0f);
  v.at(8, 8, 8) = 1.0f;
  FeatureContext ctx{v, {{0.0, 1.0}}, 0, 1};
  FeatureVectorSpec spec;
  spec.use_position = false;
  spec.use_time = false;
  spec.shell_radius = 3.0;
  auto fv = assemble_feature_vector(spec, ctx, 8, 8, 8);
  EXPECT_NEAR(fv[0], 1.0, 1e-6);
  for (std::size_t s = 1; s < fv.size(); ++s) {
    EXPECT_LT(fv[s], 0.1) << "shell sample " << s;
  }
}

TEST(AssembleFeatureVector, TimeComponentNormalized) {
  VolumeF v(Dims{8, 8, 8});
  FeatureVectorSpec spec;
  spec.use_shell = false;
  spec.use_position = false;
  FeatureContext ctx{v, {{0.0, 1.0}}, 5, 11};
  auto fv = assemble_feature_vector(spec, ctx, 0, 0, 0);
  ASSERT_EQ(fv.size(), 2u);  // value + time
  EXPECT_DOUBLE_EQ(fv[1], 0.5);
}

TEST(DeriveShellRadius, ScalesWithFeatureSize) {
  Dims d{32, 32, 32};
  Mask tiny = box_mask(d, {10, 10, 10}, {11, 11, 11});
  Mask big = box_mask(d, {8, 8, 8}, {19, 19, 19});
  double r_tiny = derive_shell_radius(tiny);
  double r_big = derive_shell_radius(big);
  EXPECT_LT(r_tiny, r_big);
  EXPECT_GE(r_tiny, 1.5);
  EXPECT_LE(r_big, 6.0);
}

TEST(DeriveShellRadius, EmptyMaskGivesDefault) {
  EXPECT_DOUBLE_EQ(derive_shell_radius(Mask(Dims{8, 8, 8})), 3.0);
}

std::vector<PaintedVoxel> paint_box(Index3 lo, Index3 hi, int step,
                                    double certainty) {
  std::vector<PaintedVoxel> out;
  for (int k = lo.z; k <= hi.z; ++k) {
    for (int j = lo.y; j <= hi.y; ++j) {
      for (int i = lo.x; i <= hi.x; ++i) {
        out.push_back({Index3{i, j, k}, step, certainty});
      }
    }
  }
  return out;
}

TEST(DataSpaceClassifier, LearnsValueSeparableClasses) {
  Dims d{16, 16, 16};
  VolumeF v(d, 0.1f);
  for (int k = 4; k < 12; ++k) {
    for (int j = 4; j < 12; ++j) {
      for (int i = 4; i < 12; ++i) v.at(i, j, k) = 0.9f;
    }
  }
  DataSpaceConfig cfg;
  cfg.spec.use_shell = false;
  cfg.spec.use_position = false;
  cfg.spec.use_time = false;
  DataSpaceClassifier clf(1, 0.0, 1.0, cfg);
  clf.add_samples(v, 0, paint_box({5, 5, 5}, {7, 7, 7}, 0, 1.0));
  clf.add_samples(v, 0, paint_box({0, 0, 0}, {2, 2, 2}, 0, 0.0));
  clf.train(300);
  EXPECT_GT(clf.classify_voxel(v, 0, 8, 8, 8), 0.8);
  EXPECT_LT(clf.classify_voxel(v, 0, 14, 14, 14), 0.2);
}

TEST(DataSpaceClassifier, ShellSeparatesSizesAtEqualValue) {
  // Two structures with the SAME voxel value; one large, one tiny. Value
  // alone cannot separate them — the shell can (paper Sec 4.3).
  Dims d{24, 24, 24};
  VolumeF v(d, 0.0f);
  for (int k = 4; k < 14; ++k) {  // large 10^3 block
    for (int j = 4; j < 14; ++j) {
      for (int i = 4; i < 14; ++i) v.at(i, j, k) = 0.8f;
    }
  }
  v.at(20, 20, 20) = 0.8f;  // tiny one-voxel feature
  v.at(20, 20, 4) = 0.8f;
  v.at(4, 20, 20) = 0.8f;

  DataSpaceConfig cfg;
  cfg.spec.use_position = false;
  cfg.spec.use_time = false;
  cfg.spec.shell_radius = 2.0;
  DataSpaceClassifier clf(1, 0.0, 1.0, cfg);
  // Positive: interior of the large block. Negative: the tiny features.
  clf.add_samples(v, 0, paint_box({6, 6, 6}, {11, 11, 11}, 0, 1.0));
  clf.add_samples(v, 0, {{Index3{20, 20, 20}, 0, 0.0},
                         {Index3{20, 20, 4}, 0, 0.0},
                         {Index3{4, 20, 20}, 0, 0.0}});
  clf.train(500);
  // Interior of large block: shell sees 0.8 everywhere -> feature.
  EXPECT_GT(clf.classify_voxel(v, 0, 9, 9, 9), 0.7);
  // Tiny feature: same value, empty shell -> not the feature.
  EXPECT_LT(clf.classify_voxel(v, 0, 20, 20, 20), 0.3);
}

TEST(DataSpaceClassifier, ClassifyMatchesClassifyVoxel) {
  Dims d{8, 8, 8};
  VolumeF v = testing::random_volume(d, 6);
  DataSpaceConfig cfg;
  cfg.spec.shell_samples = 6;
  DataSpaceClassifier clf(2, 0.0, 1.0, cfg);
  clf.add_samples(v, 1, paint_box({0, 0, 0}, {1, 1, 1}, 1, 1.0));
  clf.train(20);
  VolumeF certainty = clf.classify(v, 1);
  for (int k = 0; k < d.z; k += 3) {
    for (int j = 0; j < d.y; j += 3) {
      for (int i = 0; i < d.x; i += 3) {
        EXPECT_NEAR(certainty.at(i, j, k), clf.classify_voxel(v, 1, i, j, k),
                    1e-6);
      }
    }
  }
}

TEST(DataSpaceClassifier, ClassifySliceMatchesVolume) {
  Dims d{8, 10, 12};
  VolumeF v = testing::random_volume(d, 16);
  DataSpaceClassifier clf(1, 0.0, 1.0);
  clf.add_samples(v, 0, paint_box({0, 0, 0}, {1, 1, 1}, 0, 1.0));
  clf.train(10);
  VolumeF full = clf.classify(v, 0);
  // Axis 2 (Z): width=dx, height=dy.
  auto slice = clf.classify_slice(v, 0, 2, 5);
  for (int j = 0; j < d.y; ++j) {
    for (int i = 0; i < d.x; ++i) {
      EXPECT_NEAR(slice[static_cast<std::size_t>(j) * d.x + i],
                  full.at(i, j, 5), 1e-6);
    }
  }
  // Axis 0 (X): width=dy, height=dz.
  auto slice_x = clf.classify_slice(v, 0, 0, 3);
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      EXPECT_NEAR(slice_x[static_cast<std::size_t>(k) * d.y + j],
                  full.at(3, j, k), 1e-6);
    }
  }
}

TEST(DataSpaceClassifier, ClassifyMaskThresholds) {
  Dims d{8, 8, 8};
  VolumeF v = testing::random_volume(d, 26);
  DataSpaceClassifier clf(1, 0.0, 1.0);
  clf.add_samples(v, 0, paint_box({0, 0, 0}, {2, 2, 2}, 0, 1.0));
  clf.train(10);
  VolumeF certainty = clf.classify(v, 0);
  Mask m = clf.classify_mask(v, 0, 0.5);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m[i] != 0, certainty[i] >= 0.5f);
  }
}

TEST(DataSpaceClassifier, ValidatesInputs) {
  DataSpaceClassifier clf(3, 0.0, 1.0);
  VolumeF v(Dims{8, 8, 8});
  EXPECT_THROW(clf.train(1), Error);  // no samples yet
  EXPECT_THROW(clf.add_samples(v, 5, {{Index3{0, 0, 0}, 5, 1.0}}), Error);
  EXPECT_THROW(clf.add_samples(v, 0, {{Index3{9, 0, 0}, 0, 1.0}}), Error);
  EXPECT_THROW(clf.add_samples(v, 0, {{Index3{0, 0, 0}, 1, 1.0}}), Error);
  EXPECT_THROW(DataSpaceClassifier(0, 0.0, 1.0), Error);
  EXPECT_THROW(DataSpaceClassifier(3, 1.0, 1.0), Error);
}

// Validation of every (variables V, outputs K) shape.
struct Shape {
  int variables;
  int outputs;
};

std::unique_ptr<DataSpaceClassifier> make_classifier(Shape shape) {
  DataSpaceConfig cfg;
  cfg.spec.variables = shape.variables;
  cfg.outputs = shape.outputs;
  return std::make_unique<DataSpaceClassifier>(
      3, std::vector<std::pair<double, double>>(shape.variables, {0.0, 1.0}),
      cfg);
}

TEST(DataSpaceClassifier, ValidatesPaintedSamplesForEveryShape) {
  const Dims d{8, 8, 8};
  const VolumeF a = testing::random_volume(d, 1);
  const VolumeF b = testing::random_volume(d, 2);
  for (Shape shape : {Shape{1, 1}, Shape{1, 3}, Shape{2, 1}}) {
    auto clf = make_classifier(shape);
    std::vector<const VolumeF*> fields{&a, &b};
    fields.resize(static_cast<std::size_t>(shape.variables));
    const int k = shape.outputs;
    // class_id must be below K.
    EXPECT_THROW(clf->add_samples(fields, 1, {{Index3{0, 0, 0}, 1, 1.0, k}}),
                 Error);
    EXPECT_THROW(clf->add_samples(fields, 1, {{Index3{0, 0, 0}, 1, 1.0, -1}}),
                 Error);
    // The painted step must be the key frame's step.
    EXPECT_THROW(
        clf->add_samples(fields, 1, {{Index3{0, 0, 0}, 2, 1.0, k - 1}}),
        Error);
    EXPECT_NO_THROW(
        clf->add_samples(fields, 1, {{Index3{0, 0, 0}, 1, 1.0, k - 1}}));
    EXPECT_EQ(clf->training_samples(), 1u);
  }
}

TEST(DataSpaceClassifier, SequenceOverloadsNeedOneVariable) {
  const Dims d{6, 6, 6};
  auto source = std::make_shared<CallbackSource>(
      d, 3, std::pair<double, double>{0.0, 1.0},
      [d](int step) { return testing::random_volume(d, 10 + step); });
  StreamedSequence seq(source);
  auto clf = make_classifier({2, 1});
  EXPECT_THROW(clf->add_samples(seq, 0, {{Index3{0, 0, 0}, 0, 1.0}}), Error);
  EXPECT_THROW(clf->classify(seq, 0), Error);
  EXPECT_THROW(clf->classify_mask(seq, 0), Error);
  EXPECT_THROW(clf->classify_slice(seq, 0, 2, 0), Error);
  // The univariate classifier takes the same sequence.
  auto uni = make_classifier({1, 1});
  uni->add_samples(seq, 0, {{Index3{0, 0, 0}, 0, 1.0}});
  EXPECT_EQ(uni->classify(seq, 0).dims(), d);
}

TEST(DataSpaceClassifier, LabelsNeedSeveralOutputs) {
  const VolumeF v = testing::random_volume(Dims{6, 6, 6}, 3);
  auto binary = make_classifier({1, 1});
  EXPECT_THROW(binary->label_volume(v, 0), Error);
  EXPECT_THROW(binary->class_mask(v, 0, 0), Error);
  auto three = make_classifier({1, 3});
  EXPECT_EQ(three->label_volume(v, 0).dims(), v.dims());
  EXPECT_THROW(three->class_mask(v, 0, 3), Error);
  EXPECT_THROW(three->classify(v, 0, 3), Error);
  EXPECT_THROW(three->classify_voxel(v, 0, 1, 1, 1, -1), Error);
}

TEST(DataSpaceClassifier, DeriveShellRadiusRebuildsSamples) {
  Dims d{32, 32, 32};
  VolumeF v(d, 0.2f);
  DataSpaceConfig cfg;
  cfg.spec.shell_radius = 3.0;
  DataSpaceClassifier clf(1, 0.0, 1.0, cfg);
  clf.add_samples(v, 0, paint_box({8, 8, 8}, {19, 19, 19}, 0, 1.0));
  std::size_t before = clf.training_samples();
  clf.derive_shell_radius_from_samples(d);
  EXPECT_EQ(clf.training_samples(), before);
  EXPECT_NE(clf.shell_radius(), 3.0);  // derived from a 12-wide feature
}

TEST(DataSpaceClassifier, WithSpecTransfersSharedWeights) {
  DataSpaceConfig cfg;
  cfg.spec.shell_samples = 6;
  DataSpaceClassifier clf(1, 0.0, 1.0, cfg);
  FeatureVectorSpec smaller = cfg.spec;
  smaller.use_position = false;
  auto resized = clf.with_spec(smaller);
  EXPECT_EQ(resized->network().num_inputs(), smaller.width());
  // The "value" input weight survives the resize.
  EXPECT_DOUBLE_EQ(resized->network().weights()[0][0][0],
                   clf.network().weights()[0][0][0]);
  // Hidden->output weights copied verbatim.
  EXPECT_EQ(resized->network().weights()[1], clf.network().weights()[1]);
}

}  // namespace
}  // namespace ifet
