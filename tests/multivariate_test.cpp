// Multivariate data-space classification (paper Sec 8: "the system can
// take multivariate data as input"): the voxel classifier with V = 2
// aligned fields per step.
#include <gtest/gtest.h>

#include "core/dataspace.hpp"
#include "flowsim/datasets.hpp"
#include "test_helpers.hpp"
#include "util/error.hpp"

namespace ifet {
namespace {

/// Two aligned variables with overlapping regions:
///   var1 high in regions A and B; var2 high in regions B and C.
/// The feature is B — defined only by the JOINT condition var1 AND var2.
struct TwoVarFixture {
  Dims dims{24, 24, 24};
  VolumeF var1, var2;

  TwoVarFixture() : var1(dims, 0.05f), var2(dims, 0.05f) {
    fill(var1, {2, 2, 2}, {9, 9, 9});      // region A: var1 only
    fill(var1, {9, 9, 9}, {16, 16, 16});   // region B: both
    fill(var2, {9, 9, 9}, {16, 16, 16});
    fill(var2, {16, 16, 16}, {22, 22, 22});  // region C: var2 only
  }

  static void fill(VolumeF& v, Index3 lo, Index3 hi) {
    for (int k = lo.z; k < hi.z; ++k) {
      for (int j = lo.y; j < hi.y; ++j) {
        for (int i = lo.x; i < hi.x; ++i) v.at(i, j, k) = 0.9f;
      }
    }
  }

  std::vector<const VolumeF*> variables() const { return {&var1, &var2}; }
};

std::vector<PaintedVoxel> paint_box(Index3 lo, Index3 hi, double certainty) {
  std::vector<PaintedVoxel> out;
  for (int k = lo.z; k <= hi.z; ++k) {
    for (int j = lo.y; j <= hi.y; ++j) {
      for (int i = lo.x; i <= hi.x; ++i) {
        out.push_back({Index3{i, j, k}, 0, certainty});
      }
    }
  }
  return out;
}

DataSpaceConfig two_variable_config() {
  DataSpaceConfig cfg;
  cfg.spec.variables = 2;
  cfg.spec.shell_samples = 6;
  cfg.hidden_units = 14;
  cfg.seed = 24680;
  return cfg;
}

DataSpaceConfig simple_config() {
  DataSpaceConfig cfg = two_variable_config();
  cfg.spec.use_shell = false;
  cfg.spec.use_position = false;
  cfg.spec.use_time = false;
  return cfg;
}

TEST(MultivariateWidth, CountsEachVariable) {
  FeatureVectorSpec spec;
  spec.variables = 2;
  spec.shell_samples = 6;
  // 2 * (1 value + 6 shell) + 3 position + 1 time.
  EXPECT_EQ(spec.width(), 18);
  spec.use_shell = false;
  EXPECT_EQ(spec.width(), 6);
  spec.variables = 3;
  EXPECT_EQ(spec.width(), 7);
  // One gradient per variable.
  spec.use_gradient = true;
  EXPECT_EQ(spec.width(), 10);
}

TEST(Multivariate, LearnsJointCondition) {
  TwoVarFixture fx;
  DataSpaceClassifier clf(1, {{0.0, 1.0}, {0.0, 1.0}}, simple_config());
  // Positive: region B (both variables high). Negative: A, C, background.
  clf.add_samples(fx.variables(), 0, paint_box({10, 10, 10}, {14, 14, 14}, 1.0));
  clf.add_samples(fx.variables(), 0, paint_box({3, 3, 3}, {7, 7, 7}, 0.0));
  clf.add_samples(fx.variables(), 0, paint_box({17, 17, 17}, {21, 21, 21}, 0.0));
  clf.add_samples(fx.variables(), 0, paint_box({0, 0, 20}, {3, 3, 23}, 0.0));
  clf.train(1200);

  EXPECT_GT(clf.classify_voxel(fx.variables(), 0, 12, 12, 12), 0.7);  // B
  EXPECT_LT(clf.classify_voxel(fx.variables(), 0, 5, 5, 5), 0.3);     // A
  EXPECT_LT(clf.classify_voxel(fx.variables(), 0, 19, 19, 19), 0.3);  // C
  EXPECT_LT(clf.classify_voxel(fx.variables(), 0, 1, 1, 22), 0.3);    // bg
}

TEST(Multivariate, SingleVariableCannotExpressTheJoint) {
  // Using ONLY var1, regions A and B are identical (both 0.9): no
  // classifier keyed on var1 alone can separate them. This is the
  // univariate control for LearnsJointCondition.
  TwoVarFixture fx;
  DataSpaceConfig cfg = simple_config();
  cfg.spec.variables = 1;
  DataSpaceClassifier clf(1, {{0.0, 1.0}}, cfg);
  std::vector<const VolumeF*> only_var1{&fx.var1};
  clf.add_samples(only_var1, 0, paint_box({10, 10, 10}, {14, 14, 14}, 1.0));
  clf.add_samples(only_var1, 0, paint_box({3, 3, 3}, {7, 7, 7}, 0.0));
  clf.train(1200);
  double in_b = clf.classify_voxel(only_var1, 0, 12, 12, 12);
  double in_a = clf.classify_voxel(only_var1, 0, 5, 5, 5);
  // Identical inputs -> identical outputs: A and B are indistinguishable.
  EXPECT_NEAR(in_b, in_a, 1e-9);
}

TEST(Multivariate, ClassifyVolumeMatchesVoxelPath) {
  TwoVarFixture fx;
  DataSpaceClassifier clf(1, {{0.0, 1.0}, {0.0, 1.0}}, simple_config());
  clf.add_samples(fx.variables(), 0, paint_box({10, 10, 10}, {12, 12, 12}, 1.0));
  clf.add_samples(fx.variables(), 0, paint_box({0, 0, 0}, {2, 2, 2}, 0.0));
  clf.train(50);
  VolumeF certainty = clf.classify(fx.variables(), 0);
  for (int k = 0; k < 24; k += 7) {
    for (int j = 0; j < 24; j += 7) {
      for (int i = 0; i < 24; i += 7) {
        EXPECT_NEAR(certainty.at(i, j, k),
                    clf.classify_voxel(fx.variables(), 0, i, j, k), 1e-6);
      }
    }
  }
  Mask m = clf.classify_mask(fx.variables(), 0, 0.5);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_EQ(m[i] != 0, certainty[i] >= 0.5f);
  }
}

TEST(Multivariate, ValidatesInputs) {
  const DataSpaceConfig two = two_variable_config();
  EXPECT_THROW(DataSpaceClassifier(0, {{0.0, 1.0}, {0.0, 1.0}}, two), Error);
  EXPECT_THROW(DataSpaceClassifier(1, {{0.0, 1.0}}, two), Error);  // 1 != 2
  EXPECT_THROW(DataSpaceClassifier(1, 0.0, 1.0, two), Error);      // 1 != 2
  EXPECT_THROW(DataSpaceClassifier(1, {{0.0, 1.0}, {1.0, 1.0}}, two), Error);
  // No variables: an empty range list must not pass as a match.
  DataSpaceConfig none;
  none.spec.variables = 0;
  EXPECT_THROW(DataSpaceClassifier(1, {}, none), Error);

  TwoVarFixture fx;
  DataSpaceClassifier clf(1, {{0.0, 1.0}, {0.0, 1.0}}, simple_config());
  EXPECT_THROW(clf.train(1), Error);
  std::vector<const VolumeF*> wrong_count{&fx.var1};
  EXPECT_THROW(clf.add_samples(wrong_count, 0, {}), Error);
  VolumeF misaligned(Dims{8, 8, 8});
  std::vector<const VolumeF*> mismatched{&fx.var1, &misaligned};
  EXPECT_THROW(clf.add_samples(mismatched, 0, {}), Error);
  // The painted step must be the key frame's step.
  EXPECT_THROW(
      clf.add_samples(fx.variables(), 0, {{Index3{0, 0, 0}, 1, 1.0}}),
      Error);
}

TEST(Multivariate, JointVorticityFuelOnRealJet) {
  // The paper's own multivariate scenario: the reacting mixing layer is
  // where fuel meets strong vorticity. Train the joint classifier on the
  // solver's two variables and verify it fires only where BOTH are high.
  CombustionJetConfig cfg;
  cfg.dims = Dims{16, 24, 12};
  cfg.num_steps = 6;
  cfg.solver_steps_per_snapshot = 3;
  CombustionJetSource source(cfg);
  const int step = 5;
  VolumeF vorticity = source.generate(step);
  const VolumeF& fuel = source.fuel_snapshot(step);
  std::vector<const VolumeF*> vars{&vorticity, &fuel};

  // Labels from the joint ground truth: top-quartile vorticity AND fuel
  // above 0.2.
  std::vector<float> sorted(vorticity.data().begin(),
                            vorticity.data().end());
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() * 3 / 4,
                   sorted.end());
  const float vcut = sorted[sorted.size() * 3 / 4];
  std::vector<PaintedVoxel> painted;
  Rng rng(8);
  int positives = 0, negatives = 0;
  while (positives < 150 || negatives < 150) {
    std::size_t pick = rng.uniform_index(vorticity.size());
    Index3 p = vorticity.coord_of(pick);
    bool joint = vorticity[pick] >= vcut && fuel[pick] >= 0.2f;
    if (joint && positives < 150) {
      painted.push_back({p, step, 1.0});
      ++positives;
    } else if (!joint && negatives < 150) {
      painted.push_back({p, step, 0.0});
      ++negatives;
    }
  }
  DataSpaceConfig mcfg = two_variable_config();
  mcfg.spec.use_position = false;
  mcfg.spec.use_time = false;
  auto [vlo, vhi] = source.value_range();
  DataSpaceClassifier clf(cfg.num_steps, {{vlo, vhi}, {0.0, 1.0}}, mcfg);
  clf.add_samples(vars, step, painted);
  clf.train(500);

  // Evaluate on a grid of unseen voxels.
  int correct = 0, total = 0;
  for (int k = 0; k < cfg.dims.z; k += 2) {
    for (int j = 0; j < cfg.dims.y; j += 2) {
      for (int i = 0; i < cfg.dims.x; i += 2) {
        std::size_t li = vorticity.linear_index(i, j, k);
        bool joint = vorticity[li] >= vcut && fuel[li] >= 0.2f;
        bool predicted = clf.classify_voxel(vars, step, i, j, k) >= 0.5;
        correct += (joint == predicted);
        ++total;
      }
    }
  }
  EXPECT_GT(static_cast<double>(correct) / total, 0.85);
}

}  // namespace
}  // namespace ifet
