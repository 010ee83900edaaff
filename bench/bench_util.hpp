// Shared helpers for the figure-reproduction benches.
//
// Each bench binary regenerates the quantitative analog of one paper figure
// (see DESIGN.md Sec 4): it prints the series the figure plots as an
// aligned table, writes the same rows to CSV under bench_out/, and exits
// nonzero if the qualitative "shape" of the paper's result does not hold
// (so a regression in the method is caught by running the bench).
#pragma once

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "eval/metrics.hpp"
#include "stream/streamed_sequence.hpp"
#include "tf/transfer_function.hpp"
#include "volume/volume.hpp"

namespace ifet::bench {

/// Sequence config keeping at most `steps` decoded steps of `dims`
/// resident, with `bins` histogram bins.
inline StreamConfig step_budget(Dims dims, std::size_t steps,
                                int bins = 256) {
  StreamConfig config;
  config.budget_bytes = steps * dims.count() * sizeof(float);
  config.histogram_bins = bins;
  return config;
}

/// Directory CSV series are written to (created on demand).
inline std::string output_dir() {
  const char* env = std::getenv("IFET_BENCH_OUT");
  std::string dir = env != nullptr ? env : "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

/// Voxels a transfer function makes visible: opacity(value) >= cut.
/// This is the extraction a TF performs during rendering, reduced to a
/// mask so it can be scored against ground truth.
inline Mask tf_extract(const VolumeF& volume, const TransferFunction1D& tf,
                       double opacity_cut = 0.25) {
  Mask out(volume.dims());
  for (std::size_t i = 0; i < volume.size(); ++i) {
    out[i] = tf.opacity(volume[i]) >= opacity_cut ? 1 : 0;
  }
  return out;
}

/// Tracks whether every claimed property held; drives the exit status.
class ShapeCheck {
 public:
  void expect(bool condition, const std::string& claim) {
    if (condition) {
      std::cout << "  [shape OK]   " << claim << "\n";
    } else {
      std::cout << "  [shape FAIL] " << claim << "\n";
      failed_ = true;
    }
  }

  /// Exit status for main(): 0 when all shape claims held.
  int exit_code() const { return failed_ ? 1 : 0; }

 private:
  bool failed_ = false;
};

}  // namespace ifet::bench
