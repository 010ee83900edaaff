#include "core/multiclass.hpp"

#include <algorithm>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace ifet {

namespace {

// Matches DataSpaceClassifier::kClassifyBatchSize; see its rationale.
constexpr int kBatch = 256;

// Batched k,j,i sweep shared by the volume passes: per worker range,
// assemble kBatch-voxel feature blocks, run them through `flat`, and hand
// each batch's scores (rows x out_width, row-major) to `emit` along with
// the linear index of the batch's first voxel. The sweep is x-fastest, so
// batches cover contiguous linear-index spans.
template <typename Emit>
void batched_sweep(const Dims& d, const FeatureBlockAssembler& assembler,
                   const FlatMlp& flat, int out_width, Emit&& emit) {
  const int feat_width = assembler.width();
  parallel_for_ranges(
      0, static_cast<std::size_t>(d.z), [&](std::size_t k0, std::size_t k1) {
        FlatMlp::Scratch scratch;
        std::vector<Index3> coords(kBatch);
        std::vector<double> features(static_cast<std::size_t>(kBatch) *
                                     feat_width);
        std::vector<double> scores(static_cast<std::size_t>(kBatch) *
                                   out_width);
        int pending = 0;
        std::size_t flush_base =
            static_cast<std::size_t>(d.x) * static_cast<std::size_t>(d.y) * k0;
        auto flush = [&] {
          if (pending == 0) return;
          // Column-major batch (see DataSpaceClassifier::classify).
          assembler.assemble_feature_cols(coords.data(), pending,
                                          features.data(), kBatch);
          flat.forward_batch_cols(features.data(), kBatch, pending,
                                  scores.data(), scratch);
          emit(flush_base, pending, scores.data());
          flush_base += static_cast<std::size_t>(pending);
          pending = 0;
        };
        for (int k = static_cast<int>(k0); k < static_cast<int>(k1); ++k) {
          for (int j = 0; j < d.y; ++j) {
            for (int i = 0; i < d.x; ++i) {
              coords[pending] = {i, j, k};
              if (++pending == kBatch) flush();
            }
          }
        }
        flush();
      });
}

}  // namespace

MultiClassClassifier::MultiClassClassifier(int num_classes, int num_steps,
                                           double value_lo, double value_hi,
                                           const MultiClassConfig& config)
    : config_(config),
      num_classes_(num_classes),
      num_steps_(num_steps),
      value_lo_(value_lo),
      value_hi_(value_hi),
      network_(),
      trainer_(network_, config.backprop, config.seed ^ 0x1357ULL) {
  IFET_REQUIRE(num_classes_ >= 2, "MultiClassClassifier: need >= 2 classes");
  // label_volume stores the argmax as a uint8; more classes would wrap.
  IFET_REQUIRE(num_classes_ <= 256,
               "MultiClassClassifier: at most 256 classes");
  IFET_REQUIRE(num_steps_ > 0, "MultiClassClassifier: need steps");
  IFET_REQUIRE(value_hi_ > value_lo_,
               "MultiClassClassifier: degenerate value range");
  Rng rng(config_.seed);
  network_ = Mlp({config_.spec.width(), config_.hidden_units, num_classes_},
                 rng);
}

FeatureContext MultiClassClassifier::context_for(const VolumeF& volume,
                                                 int step) const {
  return FeatureContext{&volume, step, num_steps_, value_lo_, value_hi_};
}

void MultiClassClassifier::add_samples(
    const VolumeF& volume, int step,
    const std::vector<ClassSample>& painted) {
  IFET_REQUIRE(step >= 0 && step < num_steps_,
               "MultiClassClassifier: step out of range");
  FeatureContext ctx = context_for(volume, step);
  for (const ClassSample& sample : painted) {
    IFET_REQUIRE(volume.dims().contains(sample.voxel),
                 "MultiClassClassifier: painted voxel outside the volume");
    IFET_REQUIRE(sample.class_id >= 0 && sample.class_id < num_classes_,
                 "MultiClassClassifier: class id out of range");
    IFET_REQUIRE(sample.step == step,
                 "MultiClassClassifier: painted step does not match volume");
    std::vector<double> target(static_cast<std::size_t>(num_classes_), 0.0);
    target[static_cast<std::size_t>(sample.class_id)] = 1.0;
    training_set_.add(
        assemble_feature_vector(config_.spec, ctx, sample.voxel.x,
                                sample.voxel.y, sample.voxel.z),
        std::move(target));
  }
}

double MultiClassClassifier::train(int epochs) {
  IFET_REQUIRE(!training_set_.empty(),
               "MultiClassClassifier::train: paint samples first");
  return trainer_.run_epochs(training_set_, epochs);
}

double MultiClassClassifier::train_for(double budget_ms) {
  IFET_REQUIRE(!training_set_.empty(),
               "MultiClassClassifier::train_for: paint samples first");
  return trainer_.run_for(training_set_, budget_ms);
}

std::vector<double> MultiClassClassifier::classify_voxel(
    const VolumeF& volume, int step, int i, int j, int k) const {
  FeatureContext ctx = context_for(volume, step);
  return network_.forward(
      assemble_feature_vector(config_.spec, ctx, i, j, k));
}

VolumeF MultiClassClassifier::class_certainty(const VolumeF& volume,
                                              int step, int class_id) const {
  IFET_REQUIRE(class_id >= 0 && class_id < num_classes_,
               "class_certainty: class id out of range");
  const Dims d = volume.dims();
  VolumeF out(d);
  const FeatureContext ctx = context_for(volume, step);
  const FeatureBlockAssembler assembler(config_.spec, ctx);
  const std::shared_ptr<const FlatMlp> flat = flat_cache_.get(network_);
  batched_sweep(d, assembler, *flat, num_classes_,
                [&](std::size_t base, int rows, const double* scores) {
                  for (int r = 0; r < rows; ++r) {
                    out[base + static_cast<std::size_t>(r)] =
                        static_cast<float>(
                            scores[static_cast<std::size_t>(r) * num_classes_ +
                                   class_id]);
                  }
                });
  return out;
}

Volume<std::uint8_t> MultiClassClassifier::label_volume(const VolumeF& volume,
                                                        int step) const {
  const Dims d = volume.dims();
  Volume<std::uint8_t> out(d);
  const FeatureContext ctx = context_for(volume, step);
  const FeatureBlockAssembler assembler(config_.spec, ctx);
  const std::shared_ptr<const FlatMlp> flat = flat_cache_.get(network_);
  batched_sweep(
      d, assembler, *flat, num_classes_,
      [&](std::size_t base, int rows, const double* scores) {
        for (int r = 0; r < rows; ++r) {
          const double* row =
              scores + static_cast<std::size_t>(r) * num_classes_;
          // Strict > keeps the first of equal maxima, matching the
          // std::max_element tie rule of the scalar path.
          int best = 0;
          for (int c = 1; c < num_classes_; ++c) {
            if (row[c] > row[best]) best = c;
          }
          out[base + static_cast<std::size_t>(r)] =
              static_cast<std::uint8_t>(best);
        }
      });
  return out;
}

Mask MultiClassClassifier::class_mask(const VolumeF& volume, int step,
                                      int class_id) const {
  IFET_REQUIRE(class_id >= 0 && class_id < num_classes_,
               "class_mask: class id out of range");
  Volume<std::uint8_t> labels = label_volume(volume, step);
  Mask out(volume.dims());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out[i] = labels[i] == static_cast<std::uint8_t>(class_id) ? 1 : 0;
  }
  return out;
}

}  // namespace ifet
