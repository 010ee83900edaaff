// Contract tests of the flat batched inference engine (nn/flat_mlp.hpp):
//  * forward_batch is BITWISE identical to Mlp::forward per row, across
//    topologies, activations, batch sizes, and scratch reuse;
//  * FlatMlpCache rebuilds exactly when Mlp::params_hash changes;
//  * a save/load round-trip of the source Mlp reproduces an identical
//    flat engine;
//  * the column assembler matches assemble_feature_vector, and the voxel
//    classifier in every (variables V, outputs K) shape and the IATF match
//    their scalar reference paths exactly;
//  * steady-state inference performs zero heap allocations (shared
//    AllocGuard interposer, util/alloc_guard.hpp).

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/dataspace.hpp"
#include "core/feature_vector.hpp"
#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "parallel/thread_pool.hpp"
#include "test_helpers.hpp"
#include "util/alloc_guard.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

// Counting operator new/delete for this binary; DenyAllocScope below
// brackets the regions of interest.
IFET_ALLOC_GUARD_INSTALL();

namespace ifet {
namespace {

std::vector<double> random_input(Rng& rng, int width) {
  std::vector<double> in(static_cast<std::size_t>(width));
  for (double& x : in) x = rng.uniform(-1.5, 1.5);
  return in;
}

// -------------------------------------------------------------------------
// Bitwise forward parity.

struct Topology {
  std::vector<int> sizes;
  Activation hidden;
};

class FlatMlpParityTest : public ::testing::TestWithParam<Topology> {};

TEST_P(FlatMlpParityTest, MatchesMlpForwardBitwise) {
  const Topology& topo = GetParam();
  Rng rng(0x5eedULL + static_cast<std::uint64_t>(topo.sizes.front()));
  Mlp net(topo.sizes, rng, topo.hidden);
  FlatMlp flat(net);
  EXPECT_EQ(flat.num_inputs(), net.num_inputs());
  EXPECT_EQ(flat.num_outputs(), net.num_outputs());

  FlatMlp::Scratch scratch;
  std::vector<double> out(static_cast<std::size_t>(net.num_outputs()));
  for (int trial = 0; trial < 16; ++trial) {
    const auto in = random_input(rng, net.num_inputs());
    const auto ref = net.forward(in);
    flat.forward_batch(in.data(), 1, out.data(), scratch);
    ASSERT_EQ(out.size(), ref.size());
    for (std::size_t j = 0; j < ref.size(); ++j) {
      // EXPECT_EQ on doubles: exact (bitwise) equality, not a tolerance.
      EXPECT_EQ(out[j], ref[j]) << "unit " << j << " trial " << trial;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, FlatMlpParityTest,
    ::testing::Values(Topology{{1, 2, 1}, Activation::kSigmoid},
                      Topology{{5, 8, 1}, Activation::kSigmoid},
                      Topology{{19, 12, 1}, Activation::kSigmoid},
                      Topology{{3, 10, 4, 2}, Activation::kTanh},
                      Topology{{7, 16, 16, 3}, Activation::kTanh}));

TEST(FlatMlp, BatchMatchesPerRowEvaluation) {
  Rng rng(77);
  Mlp net({9, 11, 2}, rng);
  FlatMlp flat(net);
  // 257 rows: crosses several kTileRows tiles plus a ragged tail.
  const int n = 4 * FlatMlp::kTileRows + 1;
  const int in_w = net.num_inputs();
  const int out_w = net.num_outputs();
  std::vector<double> in(static_cast<std::size_t>(n) * in_w);
  for (double& x : in) x = rng.uniform(-2.0, 2.0);
  std::vector<double> out(static_cast<std::size_t>(n) * out_w);
  FlatMlp::Scratch scratch;
  flat.forward_batch(in.data(), n, out.data(), scratch);
  for (int r = 0; r < n; ++r) {
    const auto ref = net.forward(std::span<const double>(
        in.data() + static_cast<std::size_t>(r) * in_w,
        static_cast<std::size_t>(in_w)));
    for (int j = 0; j < out_w; ++j) {
      EXPECT_EQ(out[static_cast<std::size_t>(r) * out_w + j],
                ref[static_cast<std::size_t>(j)])
          << "row " << r;
    }
  }
}

TEST(FlatMlp, ColsMatchesRowMajorBitwise) {
  Rng rng(123);
  Mlp net({19, 12, 1}, rng);
  FlatMlp flat(net);
  const int in_w = net.num_inputs();
  const int out_w = net.num_outputs();
  FlatMlp::Scratch scratch;
  // Ragged batch sizes and an ld larger than n: the column-major entry
  // point must match forward_batch (and hence Mlp::forward) bit for bit.
  for (int n : {1, 7, FlatMlp::kTileRows, FlatMlp::kTileRows + 5, 200}) {
    const int ld = n + 13;
    std::vector<double> rows(static_cast<std::size_t>(n) * in_w);
    for (double& x : rows) x = rng.uniform(-2.0, 2.0);
    std::vector<double> cols(static_cast<std::size_t>(ld) * in_w, 0.0);
    for (int r = 0; r < n; ++r) {
      for (int c = 0; c < in_w; ++c) {
        cols[static_cast<std::size_t>(c) * ld + r] =
            rows[static_cast<std::size_t>(r) * in_w + c];
      }
    }
    std::vector<double> out_rows(static_cast<std::size_t>(n) * out_w);
    std::vector<double> out_cols(static_cast<std::size_t>(n) * out_w);
    flat.forward_batch(rows.data(), n, out_rows.data(), scratch);
    flat.forward_batch_cols(cols.data(), ld, n, out_cols.data(), scratch);
    for (std::size_t i = 0; i < out_rows.size(); ++i) {
      EXPECT_EQ(out_cols[i], out_rows[i]) << "n=" << n << " idx " << i;
    }
  }
}

TEST(FlatMlp, ScratchReusableAcrossBatchSizes) {
  Rng rng(31);
  Mlp net({6, 9, 5, 1}, rng, Activation::kTanh);
  FlatMlp flat(net);
  FlatMlp::Scratch scratch;  // one scratch across every size below
  for (int n : {1, 200, 7, FlatMlp::kTileRows, FlatMlp::kTileRows + 1, 3}) {
    std::vector<double> in(static_cast<std::size_t>(n) * 6);
    for (double& x : in) x = rng.uniform(-1.0, 1.0);
    std::vector<double> out(static_cast<std::size_t>(n));
    flat.forward_batch(in.data(), n, out.data(), scratch);
    for (int r = 0; r < n; ++r) {
      const auto ref = net.forward(std::span<const double>(
          in.data() + static_cast<std::size_t>(r) * 6, 6));
      EXPECT_EQ(out[static_cast<std::size_t>(r)], ref[0])
          << "n=" << n << " row " << r;
    }
  }
}

TEST(FlatMlp, ValidatesArguments) {
  FlatMlp uninitialized;
  FlatMlp::Scratch scratch;
  double x = 0.0;
  EXPECT_FALSE(uninitialized.valid());
  EXPECT_THROW(uninitialized.forward_batch(&x, 1, &x, scratch), Error);
  EXPECT_THROW(Mlp uninit_net; FlatMlp flat(uninit_net), Error);

  Rng rng(1);
  Mlp net({2, 3, 1}, rng);
  FlatMlp flat(net);
  EXPECT_TRUE(flat.valid());
  EXPECT_THROW(flat.forward_batch(nullptr, 1, &x, scratch), Error);
  EXPECT_THROW(flat.forward_batch(&x, -1, &x, scratch), Error);
  flat.forward_batch(nullptr, 0, nullptr, scratch);  // empty batch is a no-op
}

// -------------------------------------------------------------------------
// Cache rebuild policy.

TEST(FlatMlpCache, RebuildsOnlyOnParamsHashChange) {
  Rng rng(5);
  Mlp net({4, 6, 1}, rng);
  FlatMlpCache cache;
  EXPECT_EQ(cache.rebuilds(), 0u);

  auto first = cache.get(net);
  EXPECT_EQ(cache.rebuilds(), 1u);
  EXPECT_EQ(first->source_params_hash(), net.params_hash());

  // Unchanged weights: same engine, no rebuild.
  auto again = cache.get(net);
  EXPECT_EQ(cache.rebuilds(), 1u);
  EXPECT_EQ(first.get(), again.get());

  // Training changes params_hash -> rebuild with the new weights.
  const std::uint64_t before = net.params_hash();
  std::vector<double> in{0.2, 0.4, 0.6, 0.8}, target{0.9};
  net.train_sample(in, target, BackpropConfig{0.5, 0.0});
  EXPECT_NE(net.params_hash(), before);
  auto rebuilt = cache.get(net);
  EXPECT_EQ(cache.rebuilds(), 2u);
  EXPECT_NE(first.get(), rebuilt.get());
  EXPECT_EQ(rebuilt->source_params_hash(), net.params_hash());
  // The old shared_ptr stays usable (DerivedCache lifetime rule).
  FlatMlp::Scratch scratch;
  double old_out = 0.0, new_out = 0.0;
  first->forward_batch(in.data(), 1, &old_out, scratch);
  rebuilt->forward_batch(in.data(), 1, &new_out, scratch);
  EXPECT_NE(old_out, new_out);
  EXPECT_EQ(new_out, net.forward_scalar(in));
}

TEST(FlatMlp, SaveLoadRoundTripReproducesIdenticalEngine) {
  Rng rng(13);
  Mlp net({5, 7, 2}, rng, Activation::kTanh);
  std::vector<double> in{0.1, -0.3, 0.5, 0.7, -0.9}, target{0.8, 0.2};
  for (int i = 0; i < 25; ++i) {
    net.train_sample(in, target, BackpropConfig{0.3, 0.5});
  }

  std::stringstream stream;
  net.save(stream);
  Mlp reloaded = Mlp::load(stream);
  EXPECT_EQ(reloaded.params_hash(), net.params_hash());

  FlatMlp flat_orig(net);
  FlatMlp flat_loaded(reloaded);
  FlatMlp::Scratch scratch;
  Rng input_rng(99);
  for (int trial = 0; trial < 8; ++trial) {
    const auto probe = random_input(input_rng, 5);
    double a[2], b[2];
    flat_orig.forward_batch(probe.data(), 1, a, scratch);
    flat_loaded.forward_batch(probe.data(), 1, b, scratch);
    EXPECT_EQ(a[0], b[0]);
    EXPECT_EQ(a[1], b[1]);
  }
}

// -------------------------------------------------------------------------
// Consumer parity: every ported per-voxel pass against its scalar reference.

std::vector<PaintedVoxel> paint_box(Index3 lo, Index3 hi, int step,
                                    double certainty, int class_id = 0) {
  std::vector<PaintedVoxel> out;
  for (int k = lo.z; k <= hi.z; ++k) {
    for (int j = lo.y; j <= hi.y; ++j) {
      for (int i = lo.x; i <= hi.x; ++i) {
        out.push_back(PaintedVoxel{Index3{i, j, k}, step, certainty, class_id});
      }
    }
  }
  return out;
}

TEST(ConsumerParity, AssembleColsMatchesFeatureVectorBitwise) {
  const Dims d{13, 11, 9};
  const VolumeF a = testing::random_volume(d, 37);
  const VolumeF b = testing::random_volume(d, 38, -2.0, 3.0);
  // Voxel list with heavy border coverage (every corner/edge region), in
  // unit-stride runs on even slabs and strided singletons on odd ones.
  std::vector<Index3> voxels;
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; j += 2) {
      for (int i = 0; i < d.x; i += (k % 2 == 0 ? 1 : 3)) {
        voxels.push_back({i, j, k});
      }
    }
  }
  const int n = static_cast<int>(voxels.size());
  const int ld = n + 5;
  for (int variables : {1, 2}) {
    FeatureVectorSpec spec;  // defaults: value + 14-shell + position + time
    spec.variables = variables;
    spec.use_gradient = true;
    std::vector<const VolumeF*> fields{&a, &b};
    // The second range is narrower than b's values: clamping is exercised.
    std::vector<std::pair<double, double>> ranges{{0.0, 1.0}, {-1.0, 2.0}};
    fields.resize(static_cast<std::size_t>(variables));
    ranges.resize(static_cast<std::size_t>(variables));
    const FeatureContext ctx{fields, ranges, 2, 5};
    const FeatureBlockAssembler assembler(spec, ctx);
    const int w = assembler.width();
    ASSERT_EQ(w, spec.width());

    std::vector<double> cols(static_cast<std::size_t>(ld) * w, -1.0);
    assembler.assemble_feature_cols(voxels.data(), n, cols.data(), ld);
    for (int r = 0; r < n; ++r) {
      const Index3 p = voxels[static_cast<std::size_t>(r)];
      const auto ref = assemble_feature_vector(spec, ctx, p.x, p.y, p.z);
      ASSERT_EQ(static_cast<int>(ref.size()), w);
      for (int c = 0; c < w; ++c) {
        ASSERT_EQ(cols[static_cast<std::size_t>(c) * ld + r],
                  ref[static_cast<std::size_t>(c)])
            << "V=" << variables << " voxel " << r << " component " << c;
      }
    }
  }
}

TEST(ConsumerParity, ClassifyMatchesScalarReferenceBitwise) {
  const Dims d{13, 11, 9};  // odd dims: ragged batches at every seam
  VolumeF v = testing::random_volume(d, 21);
  DataSpaceConfig cfg;
  cfg.spec.use_gradient = true;
  DataSpaceClassifier clf(3, 0.0, 1.0, cfg);
  clf.add_samples(v, 1, paint_box({1, 1, 1}, {3, 3, 3}, 1, 1.0));
  clf.add_samples(v, 1, paint_box({8, 8, 6}, {10, 10, 8}, 1, 0.0));
  clf.train(40);

  const VolumeF batched = clf.classify(v, 1);
  const VolumeF scalar = clf.classify_scalar(v, 1);
  ASSERT_EQ(batched.size(), scalar.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    ASSERT_EQ(batched[i], scalar[i]) << "voxel " << i;
  }
  // Spot-check the public single-voxel probe as well.
  for (int k = 0; k < d.z; k += 4) {
    EXPECT_EQ(batched.at(2, 3, k),
              static_cast<float>(clf.classify_voxel(v, 1, 2, 3, k)));
  }
}

TEST(ConsumerParity, ClassifySliceMatchesVoxelProbe) {
  const Dims d{8, 10, 12};
  VolumeF v = testing::random_volume(d, 16);
  DataSpaceClassifier clf(1, 0.0, 1.0);
  clf.add_samples(v, 0, paint_box({0, 0, 0}, {1, 1, 1}, 0, 1.0));
  clf.train(10);
  for (int axis : {0, 1, 2}) {
    const int slice = 2;
    auto img = clf.classify_slice(v, 0, axis, slice);
    int width = 0, height = 0;
    switch (axis) {
      case 0: width = d.y; height = d.z; break;
      case 1: width = d.x; height = d.z; break;
      default: width = d.x; height = d.y; break;
    }
    ASSERT_EQ(img.size(), static_cast<std::size_t>(width) * height);
    for (int row = 0; row < height; row += 3) {
      for (int col = 0; col < width; col += 3) {
        int i = 0, j = 0, k = 0;
        switch (axis) {
          case 0: i = slice; j = col; k = row; break;
          case 1: i = col; j = slice; k = row; break;
          default: i = col; j = row; k = slice; break;
        }
        EXPECT_EQ(img[static_cast<std::size_t>(row) * width + col],
                  static_cast<float>(clf.classify_voxel(v, 0, i, j, k)))
            << "axis " << axis << " (" << i << "," << j << "," << k << ")";
      }
    }
  }
}

TEST(ConsumerParity, ClassifySliceValidatesUpFront) {
  const Dims d{8, 10, 12};
  VolumeF v = testing::random_volume(d, 16);
  DataSpaceClassifier clf(1, 0.0, 1.0);
  clf.add_samples(v, 0, paint_box({0, 0, 0}, {1, 1, 1}, 0, 1.0));
  clf.train(5);
  EXPECT_THROW(clf.classify_slice(v, 0, 3, 0), Error);
  EXPECT_THROW(clf.classify_slice(v, 0, -1, 0), Error);
  // Slice index checked against the *selected axis* extent, before any
  // worker runs: d.x=8, d.y=10, d.z=12.
  EXPECT_THROW(clf.classify_slice(v, 0, 0, 8), Error);
  EXPECT_THROW(clf.classify_slice(v, 0, 1, 10), Error);
  EXPECT_THROW(clf.classify_slice(v, 0, 2, 12), Error);
  EXPECT_THROW(clf.classify_slice(v, 0, 2, -1), Error);
  EXPECT_EQ(clf.classify_slice(v, 0, 0, 7).size(),
            static_cast<std::size_t>(d.y) * d.z);
}

// One test drives every (variables V, outputs K) shape of the voxel
// classifier through the shared batched sweep: each output's certainty
// volume and, for K >= 2, the argmax labels must equal the per-voxel
// scalar probe bit for bit.
struct ClassifierShape {
  int variables;
  int outputs;
};

class ClassifierShapeParity
    : public ::testing::TestWithParam<ClassifierShape> {};

TEST_P(ClassifierShapeParity, BatchedMatchesVoxelProbe) {
  const ClassifierShape shape = GetParam();
  const Dims d{10, 8, 6};
  std::vector<VolumeF> volumes;
  std::vector<const VolumeF*> field_ptrs;
  for (int v = 0; v < shape.variables; ++v) {
    volumes.push_back(testing::random_volume(d, 41 + v));
  }
  for (const VolumeF& volume : volumes) field_ptrs.push_back(&volume);
  const StepFields fields(field_ptrs);
  DataSpaceConfig cfg;
  cfg.spec.variables = shape.variables;
  cfg.spec.shell_samples = 6;
  cfg.spec.use_gradient = true;
  cfg.outputs = shape.outputs;
  DataSpaceClassifier clf(
      1, std::vector<std::pair<double, double>>(shape.variables, {0.0, 1.0}),
      cfg);
  // K = 1 paints a positive and a negative box; K >= 2 one box per class.
  const Index3 corners[3] = {{1, 1, 1}, {6, 5, 3}, {3, 5, 0}};
  for (int c = 0; c < std::max(2, shape.outputs); ++c) {
    const Index3 lo = corners[c];
    const Index3 hi{lo.x + 1, lo.y + 1, lo.z + 1};
    clf.add_samples(fields, 0,
                    shape.outputs == 1 ? paint_box(lo, hi, 0, c == 0 ? 1.0 : 0.0)
                                       : paint_box(lo, hi, 0, 1.0, c));
  }
  clf.train(30);

  std::vector<VolumeF> certainty;
  for (int c = 0; c < shape.outputs; ++c) {
    certainty.push_back(clf.classify(fields, 0, c));
  }
  const Volume<std::uint8_t> labels =
      shape.outputs >= 2 ? clf.label_volume(fields, 0) : Volume<std::uint8_t>();
  for (int k = 0; k < d.z; ++k) {
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        int best = 0;
        double best_score = 0.0;
        for (int c = 0; c < shape.outputs; ++c) {
          const double score = clf.classify_voxel(fields, 0, i, j, k, c);
          EXPECT_EQ(certainty[static_cast<std::size_t>(c)].at(i, j, k),
                    static_cast<float>(score))
              << "output " << c << " at (" << i << "," << j << "," << k << ")";
          if (c == 0 || score > best_score) {
            best = c;
            best_score = score;
          }
        }
        if (shape.outputs >= 2) {
          EXPECT_EQ(labels.at(i, j, k), static_cast<std::uint8_t>(best));
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ClassifierShapeParity,
    ::testing::Values(ClassifierShape{1, 1}, ClassifierShape{1, 3},
                      ClassifierShape{2, 1}),
    [](const ::testing::TestParamInfo<ClassifierShape>& info) {
      return "V" + std::to_string(info.param.variables) + "K" +
             std::to_string(info.param.outputs);
    });

TEST(ConsumerParity, IatfEvaluateMatchesScalarOpacity) {
  Dims d{12, 12, 12};
  auto source = std::make_shared<CallbackSource>(
      d, 6, std::pair<double, double>{0.0, 1.0}, [d](int step) {
        return testing::random_volume(d, 100 + static_cast<std::uint64_t>(step));
      });
  StreamedSequence seq(source);
  Iatf iatf(seq);
  TransferFunction1D key(0.0, 1.0);
  key.add_band(0.3, 0.6, 0.9, 0.05);
  iatf.add_key_frame(0, key);
  iatf.add_key_frame(5, key);
  iatf.train(25);

  for (int step : {0, 2, 5}) {
    const TransferFunction1D tf = iatf.evaluate(step);
    for (int e = 0; e < TransferFunction1D::kEntries; e += 7) {
      // opacity() is the scalar forward_scalar reference path.
      EXPECT_EQ(tf.opacity_entry(e), iatf.opacity(tf.entry_value(e), step))
          << "step " << step << " entry " << e;
    }
  }
}

// -------------------------------------------------------------------------
// Allocation contract.

TEST(AllocationContract, WarmForwardBatchAllocatesNothing) {
  Rng rng(61);
  Mlp net({19, 12, 1}, rng);
  FlatMlp flat(net);
  FlatMlp::Scratch scratch;
  const int n = 300;
  std::vector<double> in(static_cast<std::size_t>(n) * 19);
  for (double& x : in) x = rng.uniform(0.0, 1.0);
  std::vector<double> out(static_cast<std::size_t>(n));
  flat.forward_batch(in.data(), n, out.data(), scratch);  // warm the scratch

  DenyAllocScope guard;
  for (int pass = 0; pass < 4; ++pass) {
    flat.forward_batch(in.data(), n, out.data(), scratch);
  }
  EXPECT_EQ(guard.allocations(), 0u);
}

/// Mlp::train_sample keeps its forward state and deltas as scratch in the
/// network, so a training run allocates on its first sample only, and the
/// scratch is no parameter: an identically trained copy hashes the same.
TEST(AllocationContract, WarmTrainSampleAllocatesNothing) {
  Rng rng(62);
  Mlp net({3, 8, 1}, rng);
  Mlp copy = net;
  const std::vector<double> in{0.2, 0.5, 0.9};
  const std::vector<double> target{0.7};
  const BackpropConfig config;
  net.train_sample(in, target, config);  // warm the scratch

  DenyAllocScope guard;
  for (int i = 0; i < 100; ++i) net.train_sample(in, target, config);
  EXPECT_EQ(guard.allocations(), 0u);
  for (int i = 0; i < 101; ++i) copy.train_sample(in, target, config);
  EXPECT_EQ(copy.params_hash(), net.params_hash());
}

TEST(AllocationContract, WarmClassifyAllocationsAreBoundedPerCall) {
  const Dims d{16, 16, 16};
  VolumeF v = testing::random_volume(d, 55);
  DataSpaceClassifier clf(1, 0.0, 1.0);
  clf.add_samples(v, 0, paint_box({2, 2, 2}, {4, 4, 4}, 0, 1.0));
  clf.train(20);
  (void)clf.classify(v, 0);  // warm: builds the flat engine into the cache

  DenyAllocScope guard;
  (void)clf.classify(v, 0);
  const std::size_t per_call = guard.allocations();
  // Per call: the output volume, the assembler's direction table, a handful
  // of per-worker batch buffers, and the pool's task plumbing — all
  // independent of the 4096 voxels classified. The bound scales with the
  // worker count, never with the voxel count.
  const std::size_t bound = 128 + 64 * ThreadPool::global().size();
  EXPECT_LE(per_call, bound);
}

}  // namespace
}  // namespace ifet
