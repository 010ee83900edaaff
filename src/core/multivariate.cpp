#include "core/multivariate.hpp"

#include <algorithm>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace ifet {

int MultivariateSpec::width() const {
  int per_variable = 0;
  if (use_value) ++per_variable;
  if (use_shell) per_variable += shell_samples;
  int n = num_variables * per_variable;
  if (use_position) n += 3;
  if (use_time) ++n;
  return n;
}

std::vector<double> assemble_multivariate_vector(
    const MultivariateSpec& spec, const MultiFeatureContext& context, int i,
    int j, int k) {
  IFET_REQUIRE(static_cast<int>(context.variables.size()) ==
                       spec.num_variables &&
                   context.ranges.size() == context.variables.size(),
               "assemble_multivariate_vector: variable count mismatch");
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(spec.width()));
  const auto offsets =
      spec.use_shell ? shell_offsets(spec.shell_radius, spec.shell_samples)
                     : std::vector<Vec3>{};
  for (int v = 0; v < spec.num_variables; ++v) {
    const VolumeF& field = *context.variables[static_cast<std::size_t>(v)];
    auto [lo, hi] = context.ranges[static_cast<std::size_t>(v)];
    const double span = std::max(1e-12, hi - lo);
    auto norm = [&](double raw) {
      return clamp((raw - lo) / span, 0.0, 1.0);
    };
    if (spec.use_value) out.push_back(norm(field.clamped(i, j, k)));
    if (spec.use_shell) {
      for (const Vec3& off : offsets) {
        out.push_back(norm(field.sample(i + off.x, j + off.y, k + off.z)));
      }
    }
  }
  const Dims d = context.variables.front()->dims();
  if (spec.use_position) {
    out.push_back(static_cast<double>(i) / std::max(1, d.x - 1));
    out.push_back(static_cast<double>(j) / std::max(1, d.y - 1));
    out.push_back(static_cast<double>(k) / std::max(1, d.z - 1));
  }
  if (spec.use_time) {
    out.push_back(static_cast<double>(context.step) /
                  std::max(1, context.num_steps - 1));
  }
  return out;
}

MultivariateBlockAssembler::MultivariateBlockAssembler(
    const MultivariateSpec& spec, const MultiFeatureContext& context)
    : spec_(spec), context_(context), width_(spec.width()) {
  IFET_REQUIRE(static_cast<int>(context_.variables.size()) ==
                       spec_.num_variables &&
                   context_.ranges.size() == context_.variables.size(),
               "MultivariateBlockAssembler: variable count mismatch");
  for (const VolumeF* field : context_.variables) {
    IFET_REQUIRE(field != nullptr, "MultivariateBlockAssembler: null field");
  }
  if (spec_.use_shell) {
    // The quantized offsets make voxel + offset exact, so hoisting them is
    // bitwise-neutral against assemble_multivariate_vector.
    shell_dirs_ = shell_offsets(spec_.shell_radius, spec_.shell_samples);
  }
  lo_.reserve(context_.ranges.size());
  span_.reserve(context_.ranges.size());
  for (auto [lo, hi] : context_.ranges) {
    lo_.push_back(lo);
    span_.push_back(std::max(1e-12, hi - lo));
  }
  const Dims d = context_.variables.front()->dims();
  den_x_ = static_cast<double>(std::max(1, d.x - 1));
  den_y_ = static_cast<double>(std::max(1, d.y - 1));
  den_z_ = static_cast<double>(std::max(1, d.z - 1));
  time_value_ = static_cast<double>(context_.step) /
                std::max(1, context_.num_steps - 1);
}

void MultivariateBlockAssembler::assemble_feature_block(const Index3* voxels,
                                                        int count,
                                                        double* out) const {
  IFET_REQUIRE(count == 0 || (voxels != nullptr && out != nullptr),
               "assemble_feature_block: null block buffer");
  for (int v = 0; v < count; ++v) {
    const int i = voxels[v].x;
    const int j = voxels[v].y;
    const int k = voxels[v].z;
    double* row = out + static_cast<std::size_t>(v) * width_;
    for (int var = 0; var < spec_.num_variables; ++var) {
      const VolumeF& field =
          *context_.variables[static_cast<std::size_t>(var)];
      const double lo = lo_[static_cast<std::size_t>(var)];
      const double span = span_[static_cast<std::size_t>(var)];
      if (spec_.use_value) {
        *row++ = clamp((field.clamped(i, j, k) - lo) / span, 0.0, 1.0);
      }
      if (spec_.use_shell) {
        for (const Vec3& off : shell_dirs_) {
          *row++ = clamp(
              (field.sample(i + off.x, j + off.y, k + off.z) - lo) / span,
              0.0, 1.0);
        }
      }
    }
    if (spec_.use_position) {
      *row++ = static_cast<double>(i) / den_x_;
      *row++ = static_cast<double>(j) / den_y_;
      *row++ = static_cast<double>(k) / den_z_;
    }
    if (spec_.use_time) {
      *row++ = time_value_;
    }
  }
}

MultivariateClassifier::MultivariateClassifier(
    int num_steps, std::vector<std::pair<double, double>> ranges,
    const MultivariateConfig& config)
    : config_(config),
      num_steps_(num_steps),
      ranges_(std::move(ranges)),
      network_(),
      trainer_(network_, config.backprop, config.seed ^ 0x2468ULL) {
  IFET_REQUIRE(num_steps_ > 0, "MultivariateClassifier: need steps");
  IFET_REQUIRE(config_.spec.num_variables >= 1,
               "MultivariateClassifier: need at least one variable");
  IFET_REQUIRE(static_cast<int>(ranges_.size()) ==
                   config_.spec.num_variables,
               "MultivariateClassifier: one range per variable required");
  for (auto [lo, hi] : ranges_) {
    IFET_REQUIRE(hi > lo, "MultivariateClassifier: degenerate range");
  }
  Rng rng(config_.seed);
  network_ = Mlp({config_.spec.width(), config_.hidden_units, 1}, rng);
}

MultiFeatureContext MultivariateClassifier::context_for(
    const std::vector<const VolumeF*>& variables, int step) const {
  IFET_REQUIRE(static_cast<int>(variables.size()) ==
                   config_.spec.num_variables,
               "MultivariateClassifier: wrong variable count");
  const Dims d = variables.front()->dims();
  for (const VolumeF* field : variables) {
    IFET_REQUIRE(field != nullptr && field->dims() == d,
                 "MultivariateClassifier: variables must be aligned");
  }
  return MultiFeatureContext{variables, ranges_, step, num_steps_};
}

void MultivariateClassifier::add_samples(
    const std::vector<const VolumeF*>& variables, int step,
    const std::vector<PaintedVoxel>& painted) {
  IFET_REQUIRE(step >= 0 && step < num_steps_,
               "MultivariateClassifier: step out of range");
  MultiFeatureContext ctx = context_for(variables, step);
  for (const PaintedVoxel& p : painted) {
    IFET_REQUIRE(variables.front()->dims().contains(p.voxel),
                 "MultivariateClassifier: painted voxel out of range");
    IFET_REQUIRE(p.step == step,
                 "MultivariateClassifier: painted step does not match volume");
    training_set_.add(assemble_multivariate_vector(config_.spec, ctx,
                                                   p.voxel.x, p.voxel.y,
                                                   p.voxel.z),
                      {p.certainty});
  }
}

double MultivariateClassifier::train(int epochs) {
  IFET_REQUIRE(!training_set_.empty(),
               "MultivariateClassifier::train: paint samples first");
  return trainer_.run_epochs(training_set_, epochs);
}

double MultivariateClassifier::classify_voxel(
    const std::vector<const VolumeF*>& variables, int step, int i, int j,
    int k) const {
  MultiFeatureContext ctx = context_for(variables, step);
  return network_.forward_scalar(
      assemble_multivariate_vector(config_.spec, ctx, i, j, k));
}

VolumeF MultivariateClassifier::classify(
    const std::vector<const VolumeF*>& variables, int step) const {
  const MultiFeatureContext ctx = context_for(variables, step);
  const Dims d = variables.front()->dims();
  VolumeF out(d);
  const MultivariateBlockAssembler assembler(config_.spec, ctx);
  const std::shared_ptr<const FlatMlp> flat = flat_cache_.get(network_);
  const int width = assembler.width();
  constexpr int kBatch = DataSpaceClassifier::kClassifyBatchSize;
  parallel_for_ranges(
      0, static_cast<std::size_t>(d.z), [&](std::size_t k0, std::size_t k1) {
        // Per-worker batch buffers; the x-fastest sweep makes each flush a
        // contiguous span of linear indices (see DataSpaceClassifier).
        FlatMlp::Scratch scratch;
        std::vector<Index3> coords(kBatch);
        std::vector<double> features(static_cast<std::size_t>(kBatch) * width);
        std::vector<double> certainty(kBatch);
        int pending = 0;
        std::size_t flush_base = out.linear_index(0, 0, static_cast<int>(k0));
        auto flush = [&] {
          if (pending == 0) return;
          assembler.assemble_feature_block(coords.data(), pending,
                                           features.data());
          flat->forward_batch(features.data(), pending, certainty.data(),
                              scratch);
          for (int r = 0; r < pending; ++r) {
            out[flush_base + static_cast<std::size_t>(r)] =
                static_cast<float>(certainty[r]);
          }
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
  return out;
}

Mask MultivariateClassifier::classify_mask(
    const std::vector<const VolumeF*>& variables, int step,
    double cut) const {
  VolumeF certainty = classify(variables, step);
  Mask out(certainty.dims());
  for (std::size_t i = 0; i < certainty.size(); ++i) {
    out[i] = certainty[i] >= cut ? 1 : 0;
  }
  return out;
}

}  // namespace ifet
