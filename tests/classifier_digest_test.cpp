// Pinned output digests of the voxel classifier in each (variables V,
// outputs K) shape it serves: binary (1,1), three-class (1,3) and
// two-variable (2,1). Each digest is FNV-1a (util/determinism.hpp) over the
// raw bits of a classification result, so any change to feature assembly,
// network initialisation, training or the batched sweep shows up as a
// changed constant. The (1,1) case is trained for a fixed number of epochs
// and so also pins the trainer's shuffle order; the (1,3) and (2,1) cases
// are untrained and pin initialisation, assembly and inference only. A
// perturbed replay (ReplayCheck) pins that the classify sweep and the
// batched engine do not depend on the schedule either.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "core/dataspace.hpp"
#include "flowsim/datasets.hpp"
#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "test_helpers.hpp"
#include "util/determinism.hpp"
#include "util/rng.hpp"

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

/// Perturbed replay of the IFET_DETERMINISTIC classification kernels
/// (util/determinism.hpp): a whole-volume classify and a chunked
/// FlatMlp::forward_batch produce bitwise-identical outputs across pool
/// widths {1, 4, hardware}, cold and warm caches, and shuffled chunk
/// submission order. This is the dynamic counterpart of ifet_lint's det-*
/// pass.
TEST(ClassifierReplay, ClassifyAndChunkedForwardAcrossSchedules) {
  ReionizationConfig cfg;
  cfg.dims = Dims{32, 32, 32};
  cfg.num_steps = 400;
  cfg.num_small_features = 60;
  const VolumeF volume = ReionizationSource(cfg).generate(310);
  DataSpaceConfig clf_cfg;
  clf_cfg.spec.shell_samples = 14;
  DataSpaceClassifier clf(1, 0.0, 1.0, clf_cfg);
  std::vector<PaintedVoxel> painted;
  for (int s = 0; s < 200; ++s) {
    const Index3 p{(s * 7) % cfg.dims.x, (s * 13) % cfg.dims.y,
                   (s * 29) % cfg.dims.z};
    painted.push_back({p, 0, s % 2 == 0 ? 1.0 : 0.0});
  }
  clf.add_samples(volume, 0, painted);
  clf.train(50);

  Rng rng(0x90df);
  const Mlp net({19, 16, 1}, rng);
  const FlatMlp flat(net);
  const int rows = 6 * FlatMlp::kTileRows + 7;  // several tiles + a tail
  std::vector<double> in(static_cast<std::size_t>(rows) * 19);
  for (double& x : in) x = rng.uniform(-1.5, 1.5);

  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const ReplayCheck check("flat_mlp_classify", {1, 4, hw});
  const ReplayReport report = check.run([&](const ReplayTrial& trial) {
    ThreadPool::ScopedGlobalWidth width(trial.threads);
    DigestSink sink;
    // The pool partitions voxel rows differently at every width.
    const VolumeF certainty = clf.classify(volume, 0);
    sink.span(certainty.data().data(), certainty.size());
    // Chunks into one output buffer, visited in a deterministic shuffle
    // when the trial asks for it.
    constexpr int kChunk = 48;
    const std::size_t chunks =
        (static_cast<std::size_t>(rows) + kChunk - 1) / kChunk;
    std::vector<std::size_t> order(chunks);
    std::iota(order.begin(), order.end(), std::size_t{0});
    if (trial.shuffled) order = replay_permutation(chunks, 0x1FE7);
    std::vector<double> out(static_cast<std::size_t>(rows));
    FlatMlp::Scratch scratch;
    for (const std::size_t c : order) {
      const std::size_t lo = c * kChunk;
      const int count = static_cast<int>(
          std::min<std::size_t>(kChunk, static_cast<std::size_t>(rows) - lo));
      flat.forward_batch(in.data() + lo * 19, count, out.data() + lo,
                         scratch);
    }
    sink.span(out.data(), out.size());
    return sink.value();
  });
  EXPECT_TRUE(report.ok) << report.summary();
  EXPECT_EQ(report.reference_digest, 0x3b1ca2f803664617ull)
      << report.summary();
}

}  // namespace
}  // namespace ifet
