// Seeded input preparation (one argon-bubble .cvol per (seed, size, steps),
// written through the library's own compressed-sequence writer and reused
// only after its whole-file CRC matches the one recorded at generation),
// plus the set-up and stream metrics the workloads share.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "io/checksum.hpp"
#include "io/compressed.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace ifet;

/// First source step of the window (the ROADMAP baseline tracked steps
/// 150..209 of the 360-step argon run).
constexpr int kWindowStart = 150;

std::uint32_t file_crc(const std::string& path, std::uint64_t& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<char> buffer(1 << 20);
  std::uint32_t crc = 0;
  bytes = 0;
  while (in) {
    in.read(buffer.data(), static_cast<std::streamsize>(buffer.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    crc = crc32(buffer.data(), got, crc);
    bytes += got;
  }
  return crc;
}

bool cache_valid(const std::string& path, const std::string& sidecar) {
  std::ifstream meta(sidecar);
  std::uint32_t want_crc = 0;
  std::uint64_t want_bytes = 0;
  if (!(meta >> want_crc >> want_bytes)) return false;
  if (!std::filesystem::exists(path)) return false;
  std::uint64_t bytes = 0;
  return file_crc(path, bytes) == want_crc && bytes == want_bytes;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  // splitmix64 of (seed, tag).
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Input prepare_input(const Options& options) {
  Input input;
  input.source.dims = Dims{kVolumeSize, kVolumeSize, kVolumeSize};
  input.source.num_steps = 360;
  input.source.seed = mix_seed(options.seed, 1);
  input.window_start = kWindowStart;
  input.steps = kSteps;
  input.dims = input.source.dims;
  input.step_bytes = input.dims.count() * sizeof(float);

  std::filesystem::create_directories(options.data_dir);
  const std::string stem = options.data_dir + "/argon_seed" +
                           std::to_string(options.seed) + "_" +
                           std::to_string(kVolumeSize) + "c_" +
                           std::to_string(kSteps) + "t";
  input.cvol_path = stem + ".cvol";
  const std::string sidecar = stem + ".crc";

  ifet::Stopwatch watch;
  if (cache_valid(input.cvol_path, sidecar)) {
    input.reused = true;
    input.prepare_s = watch.seconds();
    return input;
  }

  auto argon = std::make_shared<ArgonBubbleSource>(input.source);
  const int start = input.window_start;
  CallbackSource window(input.dims, input.steps, argon->value_range(),
                        [argon, start](int step) {
                          return argon->generate(start + step);
                        });
  const std::string tmp = stem + ".tmp";
  write_compressed_sequence(window, tmp);
  std::uint64_t bytes = 0;
  const std::uint32_t crc = file_crc(tmp, bytes);
  std::filesystem::rename(tmp, input.cvol_path);
  std::ofstream meta(sidecar);
  meta << crc << " " << bytes << "\n";
  if (!meta) throw std::runtime_error("cannot write " + sidecar);
  input.prepare_s = watch.seconds();
  return input;
}

ifet::TransferFunction1D ring_key_frame(const Input& input,
                                        std::pair<double, double> range,
                                        int step) {
  const ArgonBubbleSource argon(input.source);
  const double center = argon.ring_band_center(input.window_start + step);
  const double half = argon.ring_band_half_width();
  TransferFunction1D tf(range.first, range.second);
  tf.add_band(center - half, center + half, 0.8,
              0.1 * (range.second - range.first));
  return tf;
}

ifet::Index3 ring_voxel(const Input& input, int step) {
  // Mirrors the generator's torus: centre (0.5, 0.5, zc), major radius
  // growing with the source step.
  const int t = input.window_start + step;
  const double major =
      input.source.ring_major_radius0 + input.source.ring_growth * t;
  const double zc = std::clamp(0.35 + 0.0004 * t, 0.0, 0.75);
  const double x = 0.5 + major + input.source.ring_tube_radius / 3.0;
  const auto voxel = [](double p, int n) {
    return std::clamp(static_cast<int>(std::floor(p * n)), 0, n - 1);
  };
  return Index3{voxel(x, input.dims.x), voxel(0.5, input.dims.y),
                voxel(zc, input.dims.z)};
}

StreamSession open_stream_session(const Input& input,
                                  std::size_t budget_bytes, double& train_s) {
  StreamSession s;
  StreamConfig config;
  config.budget_bytes = budget_bytes;
  s.sequence = StreamedSequence::open_cvol(input.cvol_path, config);
  s.iatf = std::make_unique<Iatf>(*s.sequence);
  const auto range = s.sequence->value_range();
  const int last = input.steps - 1;
  s.iatf->add_key_frame(0, ring_key_frame(input, range, 0));
  s.iatf->add_key_frame(last, ring_key_frame(input, range, last));
  Stopwatch watch;
  s.iatf->train(kIatfEpochs);
  train_s = watch.seconds();
  return s;
}

StreamSession timed_stream_setups(const Input& input,
                                  std::vector<double>& setup_s,
                                  std::vector<double>& train_s) {
  StreamSession session;
  for (int i = 0; i < kSetups; ++i) {
    session.iatf.reset();
    session.sequence.reset();
    Stopwatch watch;
    double train = 0.0;
    session = open_stream_session(input, kBudgetSteps * input.step_bytes,
                                  train);
    setup_s.push_back(watch.seconds());
    train_s.push_back(train);
  }
  return session;
}

void fill_stream_layer(std::map<std::string, double>& layer,
                       const StreamStats& before, const StreamStats& after,
                       std::size_t step_bytes) {
  const auto delta = [](std::uint64_t a, std::uint64_t b) {
    return static_cast<double>(b - a);
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double hits = delta(before.hits, after.hits);
  const double misses = delta(before.misses, after.misses);
  const double prefetch_hits = delta(before.prefetch_hits, after.prefetch_hits);
  const double demand = delta(before.demand_loads, after.demand_loads);
  const double issued = delta(before.prefetch_issued, after.prefetch_issued);
  const double dhits = delta(before.derived_hits, after.derived_hits);
  const double dmisses = delta(before.derived_misses, after.derived_misses);
  constexpr double kMiB = 1024.0 * 1024.0;
  layer["stream.hit_rate"] = ratio(hits, hits + misses);
  layer["stream.prefetch_hit_rate"] =
      ratio(prefetch_hits, prefetch_hits + demand);
  layer["stream.demand_loads"] = demand;
  layer["stream.evictions"] = delta(before.evictions, after.evictions);
  layer["stream.decode_s"] =
      (after.demand_decode_seconds - before.demand_decode_seconds) +
      (after.prefetch_decode_seconds - before.prefetch_decode_seconds);
  layer["stream.peak_resident_mb"] =
      static_cast<double>(after.peak_bytes_resident) / kMiB;
  layer["stream.derived_hit_rate"] = ratio(dhits, dhits + dmisses);
  // Computed, not measured: every load decodes one whole step.
  layer["io.decoded_mb"] =
      (demand + issued) * static_cast<double>(step_bytes) / kMiB;
}

std::vector<double> span_ms(const std::vector<Span>& spans,
                            std::string_view name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) out.push_back(s.duration_us() * 1e-3);
  }
  return out;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

}  // namespace perfbench
