// Learning-based feature extraction in the data space (paper Sec 4.3).
//
// The scientist paints positive ("feature") and negative ("not the
// feature") voxels on a few time steps; each painted voxel becomes one
// training sample whose input is its feature vector (value, shell
// neighborhood, position, time — see feature_vector.hpp) and whose target
// is the class certainty. After training, classify() runs the network over
// every voxel of a step, producing a certainty volume that the renderer
// uses to assign opacity — and that can suppress the small "noise"
// features of the reionization study while preserving large-structure
// detail (Figs 7-8).
//
// One classifier serves every (variables V, outputs K) shape:
//   * binary (1, 1): one certainty per voxel;
//   * N-class (1, N): "a few sample data of different classes with brushes
//     of different color" (Sec 6) — one sigmoid output per brush class,
//     label_volume() assigns each voxel its argmax class;
//   * multivariate (V, 1): several aligned fields per step (Sec 8: "the
//     system can take multivariate data as input"), so the network can
//     learn joint conditions like "high vorticity AND fuel present" that no
//     single-variable classifier or transfer function can express.
// V is FeatureVectorSpec::variables and K is DataSpaceConfig::outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/feature_vector.hpp"
#include "nn/flat_mlp.hpp"
#include "nn/mlp.hpp"
#include "nn/training.hpp"
#include "volume/sequence.hpp"
#include "volume/volume.hpp"

namespace ifet {

struct DataSpaceConfig {
  FeatureVectorSpec spec;
  int hidden_units = 12;
  /// Network outputs K: 1 for a binary certainty, one per brush class
  /// otherwise (at most 256, the range of label_volume's uint8 labels).
  int outputs = 1;
  BackpropConfig backprop{0.3, 0.7};
  std::uint64_t seed = 4321;
};

/// A painted training voxel. Its training target is K zeros with
/// `certainty` at `class_id`; for K = 1 that is just {certainty}.
struct PaintedVoxel {
  Index3 voxel;
  int step = 0;
  double certainty = 0.0;  ///< 1 = feature of interest, 0 = not.
  int class_id = 0;        ///< Brush class, in [0, K).
};

class DataSpaceClassifier {
 public:
  /// Univariate form: [value_lo, value_hi] is the field's global range.
  DataSpaceClassifier(int num_steps, double value_lo, double value_hi,
                      const DataSpaceConfig& config = {});

  /// `ranges[v]` is variable v's global value range across the sequence;
  /// there must be exactly config.spec.variables of them.
  DataSpaceClassifier(int num_steps,
                      std::vector<std::pair<double, double>> ranges,
                      const DataSpaceConfig& config = {});

  // The trainer references the classifier's own network, so the object must
  // stay put; hold it by unique_ptr where reseating is needed.
  DataSpaceClassifier(const DataSpaceClassifier&) = delete;
  DataSpaceClassifier& operator=(const DataSpaceClassifier&) = delete;

  const FeatureVectorSpec& spec() const { return config_.spec; }
  int outputs() const { return config_.outputs; }

  /// Add painted voxels from `fields` (the key frame at `step`). The fields
  /// are copied for later training-set re-assembly.
  void add_samples(const StepFields& fields, int step,
                   const std::vector<PaintedVoxel>& painted);

  /// Out-of-core form (V = 1 only): read the key frame through `sequence`
  /// and keep only a (sequence, step) reference for re-assembly — the step
  /// is re-fetched through the sequence's cache instead of pinned in a
  /// private copy. `sequence` must outlive the classifier (or at least
  /// every later call that re-assembles samples).
  void add_samples(const VolumeSequence& sequence, int step,
                   const std::vector<PaintedVoxel>& painted);

  /// Re-derive the shell radius from all positive samples painted so far
  /// (paper: "this distance is data dependent and derived according to the
  /// characteristics of the selected features"). Existing training samples
  /// are re-assembled under the new radius. `mask_dims` gives the volume
  /// extents the painted coordinates live in.
  void derive_shell_radius_from_samples(Dims mask_dims);

  double shell_radius() const { return config_.spec.shell_radius; }

  /// Training passes.
  double train(int epochs);
  double train_for(double budget_ms);
  std::size_t training_samples() const { return training_set_.size(); }
  double last_mse() const { return trainer_.last_mse(); }

  /// Voxels fed to the flat inference engine per forward_batch call. Large
  /// enough to amortize the batch setup, small enough that the per-worker
  /// feature matrix (kClassifyBatchSize x spec width doubles) stays in
  /// cache.
  static constexpr int kClassifyBatchSize = 256;

  /// Per-voxel certainty in [0,1] of network output `output` for the entire
  /// step (thread-parallel). Voxels are batched through a FlatMlp rebuilt
  /// from the live network on weight change; output is bitwise identical
  /// to classify_voxel().
  VolumeF classify(const StepFields& fields, int step, int output = 0) const;

  /// Streamed form (V = 1 only): fetch the step through the sequence and
  /// hint the next step so its decode overlaps this step's classification.
  VolumeF classify(const VolumeSequence& sequence, int step) const;

  /// Reference implementation of classify(fields, step): one scalar
  /// forward per voxel. Kept for the parity tests and the bench baseline.
  VolumeF classify_scalar(const StepFields& fields, int step) const;

  /// Certainty of network output `output` at a single voxel.
  double classify_voxel(const StepFields& fields, int step, int i, int j,
                        int k, int output = 0) const;

  /// classify() of output 0 thresholded at `cut`.
  Mask classify_mask(const StepFields& fields, int step,
                     double cut = 0.5) const;
  Mask classify_mask(const VolumeSequence& sequence, int step,
                     double cut = 0.5) const;

  /// Classify only one axis-aligned slice (the interface's fast feedback
  /// path, Sec 6). Axis: 0=X (slice index i), 1=Y, 2=Z. Returns a
  /// width*height row-major certainty image of output 0.
  std::vector<float> classify_slice(const StepFields& fields, int step,
                                    int axis, int slice) const;
  std::vector<float> classify_slice(const VolumeSequence& sequence, int step,
                                    int axis, int slice) const;

  /// Argmax class per voxel (thread-parallel; K >= 2 only). Ties go to the
  /// lower class id.
  Volume<std::uint8_t> label_volume(const StepFields& fields, int step) const;

  /// Mask of voxels whose argmax class is `class_id` (K >= 2 only).
  Mask class_mask(const StepFields& fields, int step, int class_id) const;

  /// Sec 6 property toggling: rebuild the classifier for a new spec,
  /// transferring hidden/output weights and the first-layer weights of the
  /// input components both specs share. The training set is discarded
  /// (painted samples must be re-added; the session layer handles that).
  std::unique_ptr<DataSpaceClassifier> with_spec(
      const FeatureVectorSpec& new_spec) const;

  const Mlp& network() const { return network_; }

 private:
  /// Record of a painted sample so inputs can be re-assembled when the
  /// shell radius or the spec changes.
  struct RawSample {
    PaintedVoxel painted;
    std::vector<double> input;  // assembled under the current spec
  };

  FeatureContext context_for(const StepFields& fields, int step) const;
  std::vector<double> target_of(const PaintedVoxel& painted) const;
  void add_samples_impl(const StepFields& fields, int step,
                        const std::vector<PaintedVoxel>& painted,
                        const VolumeSequence* sequence);
  void rebuild_training_set();
  void require_univariate() const;

  /// The batched sweep behind classify, classify_slice and label_volume:
  /// `rows` output rows of `row_len` voxels, voxel c of row r at
  /// row_start(r) + c * col_step. `emit(first, count, scores)` receives
  /// each batch's K-wide score rows for output indices [first,
  /// first + count).
  template <typename RowStart, typename Emit>
  void sweep(const FeatureContext& ctx, std::size_t rows, int row_len,
             Index3 col_step, RowStart row_start, Emit emit) const;

  DataSpaceConfig config_;
  int num_steps_;
  std::vector<std::pair<double, double>> ranges_;
  Mlp network_;
  TrainingSet training_set_;
  Trainer trainer_;
  // The painted voxels along with the values their inputs were read from:
  // we keep a copy of each sampled input so re-deriving only needs dims.
  std::vector<RawSample> raw_samples_;
  // Source fields seen by add_samples, kept per (step) for re-assembly.
  // Either owned copies (in-memory path) or a sequence reference the step
  // is re-fetched through on demand (out-of-core path).
  struct StepVolume {
    int step = 0;
    std::vector<VolumeF> fields;
    const VolumeSequence* sequence = nullptr;
    StepFields get() const;
  };
  std::vector<StepVolume> sample_volumes_;
  // Flat inference engine rebuilt from network_ whenever its params hash
  // changes (i.e. after training); shared by all classify paths.
  FlatMlpCache flat_cache_;
};

}  // namespace ifet
