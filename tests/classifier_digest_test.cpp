// Pinned output digests of the voxel classifier in each (variables V,
// outputs K) shape it serves: binary (1,1), three-class (1,3) and
// two-variable (2,1). Each digest is FNV-1a (util/determinism.hpp) over the
// raw bits of a classification result, so any change to feature assembly,
// network initialisation, training or the batched sweep shows up as a
// changed constant. The (1,1) case is trained for a fixed number of epochs
// and so also pins the trainer's shuffle order; the (1,3) and (2,1) cases
// are untrained and pin initialisation, assembly and inference only.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/dataspace.hpp"
#include "test_helpers.hpp"
#include "util/determinism.hpp"

namespace ifet {
namespace {

std::vector<PaintedVoxel> paint_box(Index3 lo, Index3 hi, int step,
                                    double certainty) {
  std::vector<PaintedVoxel> out;
  for (int k = lo.z; k <= hi.z; ++k) {
    for (int j = lo.y; j <= hi.y; ++j) {
      for (int i = lo.x; i <= hi.x; ++i) {
        out.push_back(PaintedVoxel{Index3{i, j, k}, step, certainty});
      }
    }
  }
  return out;
}

template <typename T>
std::uint64_t digest(const Volume<T>& v) {
  DigestSink sink;
  sink.span(v.data().data(), v.size());
  return sink.value();
}

std::uint64_t digest(const std::vector<float>& v) {
  DigestSink sink;
  sink.span(v.data(), v.size());
  return sink.value();
}

TEST(ClassifierDigest, BinaryTrained) {
  const Dims d{13, 11, 9};  // odd dims: ragged batches at every seam
  const VolumeF v = testing::random_volume(d, 21);
  DataSpaceConfig cfg;
  cfg.spec.use_gradient = true;
  DataSpaceClassifier clf(3, 0.0, 1.0, cfg);
  clf.add_samples(v, 1, paint_box({1, 1, 1}, {3, 3, 3}, 1, 1.0));
  clf.add_samples(v, 1, paint_box({8, 7, 5}, {10, 9, 7}, 1, 0.0));
  clf.train(40);

  EXPECT_EQ(digest(clf.classify(v, 1)), 0xfaa879f7adb3a721ull);
  EXPECT_EQ(digest(clf.classify_slice(v, 1, 0, 6)), 0xb37b37b8d9f6c541ull);
  EXPECT_EQ(digest(clf.classify_slice(v, 1, 1, 0)), 0xe76b0979204d1f00ull);
  EXPECT_EQ(digest(clf.classify_slice(v, 1, 2, 8)), 0x966a72a65eb3363dull);
  EXPECT_EQ(digest(clf.classify_mask(v, 1, 0.5)), 0x1c05e766a2e28f63ull);

  FeatureVectorSpec reduced = cfg.spec;
  reduced.use_time = false;
  reduced.shell_samples = 6;
  const auto toggled = clf.with_spec(reduced);
  EXPECT_EQ(digest(toggled->classify(v, 1)), 0xd1205c4465970e32ull);
}

TEST(ClassifierDigest, ThreeClassUntrained) {
  const Dims d{9, 10, 11};
  const VolumeF v = testing::random_volume(d, 33);
  DataSpaceConfig cfg;
  cfg.spec.shell_samples = 6;
  cfg.hidden_units = 14;
  cfg.seed = 7;  // an initialisation whose argmax is not one class everywhere
  cfg.outputs = 3;
  DataSpaceClassifier clf(2, 0.0, 1.0, cfg);

  const std::uint64_t expected[3] = {
      0xf7e59a0cc29fb4f0ull, 0x5bf23cae3daac484ull, 0xa8314e9220cb74ffull};
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(digest(clf.classify(v, 1, c)), expected[c])
        << "class " << c;
  }
  const Volume<std::uint8_t> labels = clf.label_volume(v, 1);
  EXPECT_EQ(digest(labels), 0x188c6c446d4b77f7ull);
  // A label volume of one class would pin little of the argmax.
  bool mixed = false;
  for (std::size_t i = 1; i < labels.size(); ++i) {
    mixed = mixed || labels[i] != labels[0];
  }
  EXPECT_TRUE(mixed);
}

TEST(ClassifierDigest, TwoVariableUntrained) {
  const Dims d{10, 8, 7};
  const VolumeF a = testing::random_volume(d, 41);
  const VolumeF b = testing::random_volume(d, 42, -1.0, 2.0);
  const std::vector<const VolumeF*> vars{&a, &b};
  DataSpaceConfig cfg;
  cfg.spec.variables = 2;
  cfg.spec.shell_samples = 6;
  cfg.hidden_units = 14;
  cfg.seed = 24680;
  DataSpaceClassifier clf(4, {{0.0, 1.0}, {-1.0, 2.0}}, cfg);

  EXPECT_EQ(digest(clf.classify(vars, 2)), 0x9d734cbeef27ae68ull);
}

}  // namespace
}  // namespace ifet
