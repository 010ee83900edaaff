#include "core/dataspace.hpp"

#include <algorithm>

#include "parallel/thread_pool.hpp"
#include "util/error.hpp"

namespace ifet {

namespace {

// Row r of a whole-volume sweep is the x-row (j, k) = (r % d.y, r / d.y),
// so visiting rows in order visits the volume's linear indices in order.
struct VolumeRows {
  int dy;
  Index3 operator()(std::size_t r) const {
    return {0, static_cast<int>(r % static_cast<std::size_t>(dy)),
            static_cast<int>(r / static_cast<std::size_t>(dy))};
  }
};

}  // namespace

DataSpaceClassifier::DataSpaceClassifier(int num_steps, double value_lo,
                                         double value_hi,
                                         const DataSpaceConfig& config)
    : DataSpaceClassifier(
          num_steps,
          std::vector<std::pair<double, double>>{{value_lo, value_hi}},
          config) {}

DataSpaceClassifier::DataSpaceClassifier(
    int num_steps, std::vector<std::pair<double, double>> ranges,
    const DataSpaceConfig& config)
    : config_(config),
      num_steps_(num_steps),
      ranges_(std::move(ranges)),
      network_(),
      trainer_(network_, config.backprop, config.seed ^ 0xabcdULL) {
  IFET_REQUIRE(num_steps_ > 0, "DataSpaceClassifier: need at least one step");
  IFET_REQUIRE(config_.spec.variables >= 1,
               "DataSpaceClassifier: need at least one variable");
  IFET_REQUIRE(static_cast<int>(ranges_.size()) == config_.spec.variables,
               "DataSpaceClassifier: need one value range per variable");
  for (const auto& [lo, hi] : ranges_) {
    IFET_REQUIRE(hi > lo, "DataSpaceClassifier: degenerate value range");
  }
  // label_volume stores the argmax as a uint8; more outputs would wrap.
  IFET_REQUIRE(config_.outputs >= 1 && config_.outputs <= 256,
               "DataSpaceClassifier: outputs must be in [1, 256]");
  Rng rng(config_.seed);
  network_ = Mlp({config_.spec.width(), config_.hidden_units, config_.outputs},
                 rng);
}

FeatureContext DataSpaceClassifier::context_for(const StepFields& fields,
                                                int step) const {
  FeatureContext ctx{fields, ranges_, step, num_steps_};
  ctx.require_shape(config_.spec);
  return ctx;
}

std::vector<double> DataSpaceClassifier::target_of(
    const PaintedVoxel& painted) const {
  std::vector<double> target(static_cast<std::size_t>(config_.outputs), 0.0);
  target[static_cast<std::size_t>(painted.class_id)] = painted.certainty;
  return target;
}

void DataSpaceClassifier::require_univariate() const {
  IFET_REQUIRE(config_.spec.variables == 1,
               "DataSpaceClassifier: sequence overloads need V = 1");
}

void DataSpaceClassifier::add_samples_impl(
    const StepFields& fields, int step,
    const std::vector<PaintedVoxel>& painted,
    const VolumeSequence* sequence) {
  IFET_REQUIRE(step >= 0 && step < num_steps_,
               "DataSpaceClassifier: step out of range");
  const FeatureContext ctx = context_for(fields, step);
  const Dims d = fields[0].dims();
  for (const PaintedVoxel& p : painted) {
    IFET_REQUIRE(d.contains(p.voxel),
                 "DataSpaceClassifier: painted voxel outside the volume");
    IFET_REQUIRE(p.step == step,
                 "DataSpaceClassifier: painted step does not match volume");
    IFET_REQUIRE(p.class_id >= 0 && p.class_id < config_.outputs,
                 "DataSpaceClassifier: class id out of range");
    RawSample raw;
    raw.painted = p;
    raw.input = assemble_feature_vector(config_.spec, ctx, p.voxel.x,
                                        p.voxel.y, p.voxel.z);
    training_set_.add(raw.input, target_of(p));
    raw_samples_.push_back(std::move(raw));
  }
  // Keep the key frame for later re-assembly (one record per step).
  for (const auto& sv : sample_volumes_) {
    if (sv.step == step) return;
  }
  StepVolume sv;
  sv.step = step;
  sv.sequence = sequence;
  if (sequence == nullptr) {
    for (int v = 0; v < fields.size(); ++v) sv.fields.push_back(fields[v]);
  }
  sample_volumes_.push_back(std::move(sv));
}

void DataSpaceClassifier::add_samples(
    const StepFields& fields, int step,
    const std::vector<PaintedVoxel>& painted) {
  add_samples_impl(fields, step, painted, nullptr);
}

void DataSpaceClassifier::add_samples(
    const VolumeSequence& sequence, int step,
    const std::vector<PaintedVoxel>& painted) {
  require_univariate();
  add_samples_impl(sequence.step(step), step, painted, &sequence);
}

StepFields DataSpaceClassifier::StepVolume::get() const {
  if (sequence != nullptr) return sequence->step(step);
  std::vector<const VolumeF*> out;
  out.reserve(fields.size());
  for (const VolumeF& field : fields) out.push_back(&field);
  return out;
}

void DataSpaceClassifier::rebuild_training_set() {
  training_set_.clear();
  // Group by step so each key frame is fetched once even when it has to be
  // re-read through an out-of-core sequence.
  for (const auto& sv : sample_volumes_) {
    const FeatureContext ctx = context_for(sv.get(), sv.step);
    for (auto& raw : raw_samples_) {
      if (raw.painted.step != sv.step) continue;
      raw.input =
          assemble_feature_vector(config_.spec, ctx, raw.painted.voxel.x,
                                  raw.painted.voxel.y, raw.painted.voxel.z);
    }
  }
  for (const auto& raw : raw_samples_) {
    training_set_.add(raw.input, target_of(raw.painted));
  }
}

void DataSpaceClassifier::derive_shell_radius_from_samples(Dims mask_dims) {
  Mask positives(mask_dims);
  bool any = false;
  for (const auto& raw : raw_samples_) {
    if (raw.painted.certainty >= 0.5 &&
        mask_dims.contains(raw.painted.voxel)) {
      positives.at(raw.painted.voxel) = 1;
      any = true;
    }
  }
  if (!any) return;
  config_.spec.shell_radius = derive_shell_radius(positives);
  rebuild_training_set();
}

double DataSpaceClassifier::train(int epochs) {
  IFET_REQUIRE(!training_set_.empty(),
               "DataSpaceClassifier::train: paint samples first");
  return trainer_.run_epochs(training_set_, epochs);
}

double DataSpaceClassifier::train_for(double budget_ms) {
  IFET_REQUIRE(!training_set_.empty(),
               "DataSpaceClassifier::train_for: paint samples first");
  return trainer_.run_for(training_set_, budget_ms);
}

double DataSpaceClassifier::classify_voxel(const StepFields& fields, int step,
                                           int i, int j, int k,
                                           int output) const {
  IFET_REQUIRE(output >= 0 && output < config_.outputs,
               "DataSpaceClassifier: output out of range");
  const auto scores = network_.forward(
      assemble_feature_vector(config_.spec, context_for(fields, step), i, j, k));
  return scores[static_cast<std::size_t>(output)];
}

template <typename RowStart, typename Emit>
void DataSpaceClassifier::sweep(const FeatureContext& ctx, std::size_t rows,
                                int row_len, Index3 col_step,
                                RowStart row_start, Emit emit) const {
  const FeatureBlockAssembler assembler(config_.spec, ctx);
  const std::shared_ptr<const FlatMlp> flat = flat_cache_.get(network_);
  const int width = assembler.width();
  const int outputs = config_.outputs;
  ThreadPool::global().parallel_for_static(
      0, rows, [&](std::size_t r0, std::size_t r1) {
    // Per-worker batch buffers: allocated once per range and reused for
    // every batch in it — zero heap traffic per voxel.
    FlatMlp::Scratch scratch;
    std::vector<Index3> coords(kClassifyBatchSize);
    std::vector<double> features(static_cast<std::size_t>(kClassifyBatchSize) *
                                 width);
    std::vector<double> scores(static_cast<std::size_t>(kClassifyBatchSize) *
                               outputs);
    int pending = 0;
    // Rows are visited in order and voxels along each row, so each flush
    // covers one contiguous span of output indices.
    std::size_t flush_base = r0 * static_cast<std::size_t>(row_len);
    auto flush = [&] {
      if (pending == 0) return;
      // Column-major batch: the assembler writes feature columns, the
      // engine reads them in place — no per-tile transpose.
      assembler.assemble_feature_cols(coords.data(), pending, features.data(),
                                      kClassifyBatchSize);
      flat->forward_batch_cols(features.data(), kClassifyBatchSize, pending,
                               scores.data(), scratch);
      emit(flush_base, pending, scores.data());
      flush_base += static_cast<std::size_t>(pending);
      pending = 0;
    };
    for (std::size_t r = r0; r < r1; ++r) {
      const Index3 start = row_start(r);
      for (int c = 0; c < row_len; ++c) {
        coords[pending] = {start.x + c * col_step.x, start.y + c * col_step.y,
                           start.z + c * col_step.z};
        if (++pending == kClassifyBatchSize) flush();
      }
    }
    flush();
  });
}

VolumeF DataSpaceClassifier::classify(const StepFields& fields, int step,
                                      int output) const {
  IFET_REQUIRE(output >= 0 && output < config_.outputs,
               "DataSpaceClassifier: output out of range");
  const FeatureContext ctx = context_for(fields, step);
  const Dims d = fields[0].dims();
  VolumeF out(d);
  const int outputs = config_.outputs;
  sweep(ctx, static_cast<std::size_t>(d.y) * static_cast<std::size_t>(d.z),
        d.x, Index3{1, 0, 0}, VolumeRows{d.y},
        [&](std::size_t first, int count, const double* scores) {
          for (int r = 0; r < count; ++r) {
            out[first + static_cast<std::size_t>(r)] =
                static_cast<float>(scores[r * outputs + output]);
          }
        });
  return out;
}

VolumeF DataSpaceClassifier::classify_scalar(const StepFields& fields,
                                             int step) const {
  const FeatureContext ctx = context_for(fields, step);
  const Dims d = fields[0].dims();
  VolumeF out(d);
  parallel_for(0, static_cast<std::size_t>(d.z), [&](std::size_t kz) {
    int k = static_cast<int>(kz);
    for (int j = 0; j < d.y; ++j) {
      for (int i = 0; i < d.x; ++i) {
        out[out.linear_index(i, j, k)] =
            static_cast<float>(network_.forward(  // ifet-lint: allow(scalar-forward-in-hot-loop)
                assemble_feature_vector(config_.spec, ctx, i, j, k))[0]);
      }
    }
  });
  return out;
}

VolumeF DataSpaceClassifier::classify(const VolumeSequence& sequence,
                                      int step) const {
  require_univariate();
  // Overlap the next step's decode with this step's classification — the
  // common access pattern is a forward sweep over the sequence.
  sequence.prefetch_hint(step + 1);
  return classify(sequence.step(step), step);
}

Mask DataSpaceClassifier::classify_mask(const StepFields& fields, int step,
                                        double cut) const {
  VolumeF certainty = classify(fields, step);
  Mask out(certainty.dims());
  for (std::size_t i = 0; i < certainty.size(); ++i) {
    out[i] = certainty[i] >= cut ? 1 : 0;
  }
  return out;
}

Mask DataSpaceClassifier::classify_mask(const VolumeSequence& sequence,
                                        int step, double cut) const {
  require_univariate();
  sequence.prefetch_hint(step + 1);
  return classify_mask(sequence.step(step), step, cut);
}

std::vector<float> DataSpaceClassifier::classify_slice(const StepFields& fields,
                                                       int step, int axis,
                                                       int slice) const {
  IFET_REQUIRE(axis >= 0 && axis <= 2, "classify_slice: axis must be 0..2");
  const FeatureContext ctx = context_for(fields, step);
  const Dims d = fields[0].dims();
  int width = 0, height = 0, extent = 0;
  switch (axis) {
    case 0: width = d.y; height = d.z; extent = d.x; break;
    case 1: width = d.x; height = d.z; extent = d.y; break;
    default: width = d.x; height = d.y; extent = d.z; break;
  }
  // Validate once, before fanning out: a throw inside a pool worker is the
  // wrong failure path for a caller-supplied argument.
  IFET_REQUIRE(slice >= 0 && slice < extent,
               "classify_slice: slice out of range");
  std::vector<float> out(static_cast<std::size_t>(width) *
                         static_cast<std::size_t>(height));
  // Image row r, column c is voxel (slice, c, r) on axis 0, (c, slice, r)
  // on axis 1 and (c, r, slice) on axis 2.
  auto row_start = [axis, slice](std::size_t row) {
    const int r = static_cast<int>(row);
    switch (axis) {
      case 0: return Index3{slice, 0, r};
      case 1: return Index3{0, slice, r};
      default: return Index3{0, r, slice};
    }
  };
  const int outputs = config_.outputs;
  sweep(ctx, static_cast<std::size_t>(height), width,
        axis == 0 ? Index3{0, 1, 0} : Index3{1, 0, 0}, row_start,
        [&](std::size_t first, int count, const double* scores) {
          for (int r = 0; r < count; ++r) {
            out[first + static_cast<std::size_t>(r)] =
                static_cast<float>(scores[r * outputs]);
          }
        });
  return out;
}

std::vector<float> DataSpaceClassifier::classify_slice(
    const VolumeSequence& sequence, int step, int axis, int slice) const {
  require_univariate();
  return classify_slice(sequence.step(step), step, axis, slice);
}

Volume<std::uint8_t> DataSpaceClassifier::label_volume(
    const StepFields& fields, int step) const {
  IFET_REQUIRE(config_.outputs >= 2,
               "DataSpaceClassifier::label_volume: needs K >= 2 outputs");
  const FeatureContext ctx = context_for(fields, step);
  const Dims d = fields[0].dims();
  Volume<std::uint8_t> out(d);
  const int outputs = config_.outputs;
  sweep(ctx, static_cast<std::size_t>(d.y) * static_cast<std::size_t>(d.z),
        d.x, Index3{1, 0, 0}, VolumeRows{d.y},
        [&](std::size_t first, int count, const double* scores) {
          for (int r = 0; r < count; ++r) {
            const double* row = scores + static_cast<std::size_t>(r) * outputs;
            // Strict > keeps the first of equal maxima.
            int best = 0;
            for (int c = 1; c < outputs; ++c) {
              if (row[c] > row[best]) best = c;
            }
            out[first + static_cast<std::size_t>(r)] =
                static_cast<std::uint8_t>(best);
          }
        });
  return out;
}

Mask DataSpaceClassifier::class_mask(const StepFields& fields, int step,
                                     int class_id) const {
  IFET_REQUIRE(class_id >= 0 && class_id < config_.outputs,
               "DataSpaceClassifier::class_mask: class id out of range");
  const Volume<std::uint8_t> labels = label_volume(fields, step);
  Mask out(labels.dims());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    out[i] = labels[i] == static_cast<std::uint8_t>(class_id) ? 1 : 0;
  }
  return out;
}

std::unique_ptr<DataSpaceClassifier> DataSpaceClassifier::with_spec(
    const FeatureVectorSpec& new_spec) const {
  DataSpaceConfig new_config = config_;
  new_config.spec = new_spec;
  auto out =
      std::make_unique<DataSpaceClassifier>(num_steps_, ranges_, new_config);

  // Build the old-index mapping for components both specs share, by name.
  auto old_names = config_.spec.component_names();
  auto new_names = new_spec.component_names();
  std::vector<int> mapping;
  mapping.reserve(new_names.size());
  for (const auto& name : new_names) {
    auto it = std::find(old_names.begin(), old_names.end(), name);
    mapping.push_back(it == old_names.end()
                          ? -1
                          : static_cast<int>(it - old_names.begin()));
  }
  Rng rng(config_.seed ^ 0x77ULL);
  out->network_ = network_.resized_inputs(mapping, rng);
  return out;
}

}  // namespace ifet
