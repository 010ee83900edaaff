// Shared pieces of the three workloads: options, the generated input, the
// timed-phase loop, and the outcome each workload hands back to main.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/iatf.hpp"
#include "flowsim/datasets.hpp"
#include "report.hpp"
#include "stream/streamed_sequence.hpp"
#include "tf/transfer_function.hpp"
#include "volume/volume.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where generated inputs are cached.
  std::string data_dir = ".bench_build/data";
  /// Chrome trace-event output of a traced run ("" = none).
  std::string trace_out;
};

/// Edge of the cubic argon-bubble volume and its number of steps (see
/// README.md for why not 128^3).
inline constexpr int kVolumeSize = 64;
inline constexpr int kSteps = 64;
/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 15;

/// The generated .cvol: an argon-bubble step window, cached per (seed,
/// size, steps). Workloads only ever read the file.
struct Input {
  std::string cvol_path;
  ifet::ArgonBubbleConfig source;  ///< Full-length generator config.
  int window_start = 0;            ///< Source step of file step 0.
  int steps = 0;
  ifet::Dims dims{};
  std::size_t step_bytes = 0;      ///< Decoded float32 bytes per step.
  bool reused = false;             ///< Cache hit (CRC verified).
  double prepare_s = 0.0;          ///< Generation or verification time.
};

/// Generate the input, or reuse the cached file after checking its CRC.
Input prepare_input(const Options& options);

/// Stream budgets of the sweep and track workloads, in decoded steps (the
/// 64 MB budget of a 128^3 session is eight steps).
inline constexpr int kBudgetSteps = 8;
/// Frame edge of the sweep and overlay renders (the paper's 512^2).
inline constexpr int kImageSize = 512;
/// IATF training epochs of every set-up.
inline constexpr int kIatfEpochs = 300;

/// A user-drawn key frame: an opacity band over the ring's value band at
/// file step `step`, over the sequence value range.
ifet::TransferFunction1D ring_key_frame(const Input& input,
                                        std::pair<double, double> range,
                                        int step);

/// A voxel inside the ring's tube at file step `step` (analytic position,
/// a third of the tube radius off the core line).
ifet::Index3 ring_voxel(const Input& input, int step);

/// A single-user session: the streamed .cvol plus an IATF trained from
/// the two end key frames for kIatfEpochs epochs.
struct StreamSession {
  std::unique_ptr<ifet::StreamedSequence> sequence;
  std::unique_ptr<ifet::Iatf> iatf;
};

/// Open the .cvol under `budget_bytes` (0 = fully resident) and train;
/// `train_s` receives the training time.
StreamSession open_stream_session(const Input& input,
                                  std::size_t budget_bytes, double& train_s);

/// kSetups set-ups under the eight-step budget, each torn down untimed
/// before the next; returns the last. Appends each set-up's time to
/// `setup_s` and its training time to `train_s`.
StreamSession timed_stream_setups(const Input& input,
                                  std::vector<double>& setup_s,
                                  std::vector<double>& train_s);

/// Stream-layer per-layer metrics from two counter snapshots.
void fill_stream_layer(std::map<std::string, double>& layer,
                       const ifet::StreamStats& before,
                       const ifet::StreamStats& after,
                       std::size_t step_bytes);

/// Deterministic 64-bit mix of the seed with a stream tag.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// Latencies and resources of one timed phase.
struct PhaseResult {
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// What a workload run hands back to main.
struct Outcome {
  std::vector<double> setup_s;  ///< One entry per set-up.
  PhaseResult untraced;         ///< The end-to-end measurement.
  PhaseResult traced;           ///< Traced runs only.
  double peak_rss_mb = 0.0;     ///< Taken before any reference run.
  /// Per-layer values by metric name (traced runs).
  std::map<std::string, double> layer;
  OpLedger ledger;
  std::vector<std::string> notes;  ///< Printed above the result line.
};

Outcome run_sweep(const Options& options, const Input& input,
                  Tracer& tracer);
Outcome run_track(const Options& options, const Input& input,
                  Tracer& tracer);
Outcome run_serve(const Options& options, const Input& input,
                  Tracer& tracer);

/// Durations (ms) of the spans called `name`.
std::vector<double> span_ms(const std::vector<Span>& spans,
                            std::string_view name);

double mean(const std::vector<double>& values);

}  // namespace perfbench
