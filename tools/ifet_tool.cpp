// ifet_tool — command-line front end to the library.
//
//   ifet_tool gen      --dataset=argon|jet|reionization|vortex|swirl
//                      --out=PREFIX [--size=N] [--steps=a,b,c]
//                      [--cvol=FILE]          generate .vol files (or one
//                                             compressed .cvol sequence)
//   ifet_tool info     FILE.vol|FILE.cvol     print dims / range / histogram
//   ifet_tool render   FILE.vol --out=IMG.ppm [--band=lo:hi] [--image=N]
//                      [--azimuth=R] [--elevation=R]
//   ifet_tool track    FILE.cvol --seed=x,y,z [--step=S] [--band=lo:hi]
//                      [--budget-mb=N] [--lookahead=K]
//                      [--max-retries=N] [--backoff-ms=MS]
//                      [--fail-policy=throw|skip|nearest]
//                      [--inject-faults=kind@step[:count],...]
//                      [--out=PREFIX]         4D region growing over the
//                                             out-of-core sequence; prints
//                                             the feature tree, per-step
//                                             counts, and streaming stats
//                                             (fault flags exercise the
//                                             robustness layer — see
//                                             docs/ROBUSTNESS.md)
//
// The tool works on the library's self-describing formats so a user can
// run the full extract-and-track pipeline on their own converted data.
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/track_events.hpp"
#include "core/tracking.hpp"
#include "flowsim/datasets.hpp"
#include "io/compressed.hpp"
#include "stream/fault_injection.hpp"
#include "stream/streamed_sequence.hpp"
#include "io/image_io.hpp"
#include "io/volume_io.hpp"
#include "render/raycaster.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "volume/histogram.hpp"
#include "volume/ops.hpp"

namespace {

using namespace ifet;

int usage() {
  std::cerr << "usage: ifet_tool <gen|info|render|track> [options]\n"
               "see the header of tools/ifet_tool.cpp for details\n";
  return 2;
}

std::vector<int> parse_int_list(const std::string& text) {
  std::vector<int> out;
  std::istringstream is(text);
  std::string item;
  while (std::getline(is, item, ',')) {
    if (!item.empty()) out.push_back(std::stoi(item));
  }
  return out;
}

std::pair<double, double> parse_band(const std::string& text, double lo,
                                     double hi) {
  auto colon = text.find(':');
  if (colon == std::string::npos) return {lo, hi};
  return {std::stod(text.substr(0, colon)), std::stod(text.substr(colon + 1))};
}

std::shared_ptr<VolumeSource> make_dataset(const std::string& name,
                                           int size) {
  if (name == "argon") {
    ArgonBubbleConfig cfg;
    cfg.dims = Dims{size, size, size};
    cfg.num_steps = 360;
    return std::make_shared<ArgonBubbleSource>(cfg);
  }
  if (name == "jet") {
    CombustionJetConfig cfg;
    cfg.dims = Dims{size, size + size / 2, size / 2};
    cfg.num_steps = 21;
    return std::make_shared<CombustionJetSource>(cfg);
  }
  if (name == "reionization") {
    ReionizationConfig cfg;
    cfg.dims = Dims{size, size, size};
    cfg.num_steps = 400;
    return std::make_shared<ReionizationSource>(cfg);
  }
  if (name == "vortex") {
    TurbulentVortexConfig cfg;
    cfg.dims = Dims{size, size, size};
    return std::make_shared<TurbulentVortexSource>(cfg);
  }
  if (name == "swirl") {
    SwirlingFlowConfig cfg;
    cfg.dims = Dims{size, size, size};
    return std::make_shared<SwirlingFlowSource>(cfg);
  }
  throw Error("unknown dataset: " + name +
              " (expected argon|jet|reionization|vortex|swirl)");
}

int cmd_gen(const CliArgs& args) {
  const std::string dataset = args.get("dataset", "argon");
  const int size = args.get_int("size", 48);
  auto source = make_dataset(dataset, size);

  if (args.has("cvol")) {
    const std::string path = args.get("cvol", "out.cvol");
    write_compressed_sequence(*source, path);
    CompressedFileSource reader(path);
    std::cout << "wrote " << path << ": " << source->num_steps()
              << " steps, " << reader.total_payload_bytes()
              << " compressed payload bytes\n";
    return 0;
  }
  const std::string prefix = args.get("out", dataset);
  std::vector<int> steps = parse_int_list(args.get("steps", "0"));
  for (int s : steps) {
    VolumeF v = source->generate(s);
    std::string path = prefix + "_t" + std::to_string(s) + ".vol";
    write_vol(v, path);
    std::cout << "wrote " << path << "\n";
  }
  return 0;
}

int cmd_info(const CliArgs& args) {
  if (args.positional().size() < 2) return usage();
  const std::string& path = args.positional()[1];
  if (path.size() > 5 && path.substr(path.size() - 5) == ".cvol") {
    CompressedFileSource source(path);
    std::cout << path << ": compressed sequence, "
              << source.dims().x << "x" << source.dims().y << "x"
              << source.dims().z << ", " << source.num_steps()
              << " steps, range [" << source.value_range().first << ", "
              << source.value_range().second << "], "
              << source.total_payload_bytes() << " payload bytes\n";
    return 0;
  }
  VolumeF v = read_vol(path);
  auto [lo, hi] = value_range(v);
  std::cout << path << ": " << v.dims().x << "x" << v.dims().y << "x"
            << v.dims().z << ", range [" << lo << ", " << hi << "]\n";
  Histogram h = Histogram::of(v, 16, lo, hi + 1e-6f);
  Table table({"bin_center", "count"});
  for (int b = 0; b < h.bins(); ++b) {
    table.add_row({Table::num(h.bin_center(b)), std::to_string(h.count(b))});
  }
  table.print(std::cout);
  return 0;
}

int cmd_render(const CliArgs& args) {
  if (args.positional().size() < 2) return usage();
  VolumeF v = read_vol(args.positional()[1]);
  auto [vlo, vhi] = value_range(v);
  auto [blo, bhi] =
      parse_band(args.get("band", ""), lerp(vlo, vhi, 0.5), vhi);
  TransferFunction1D tf(vlo, vhi + 1e-6f);
  tf.add_band(blo, bhi, 0.9, 0.05 * (vhi - vlo));

  RenderSettings settings;
  settings.width = args.get_int("image", 256);
  settings.height = settings.width;
  Raycaster caster(settings);
  Camera camera(args.get_double("azimuth", 0.6),
                args.get_double("elevation", 0.35), 2.4);
  RenderStats stats;
  ImageRgb8 image = caster.render(v, tf, ColorMap(), camera, nullptr,
                                  &stats);
  const std::string out = args.get("out", "render.ppm");
  write_ppm(image, out);
  std::cout << "rendered band [" << blo << ", " << bhi << "] in "
            << stats.seconds << " s -> " << out << "\n";
  return 0;
}

int cmd_track(const CliArgs& args) {
  if (args.positional().size() < 2) return usage();
  StreamConfig stream_config;
  // 0 (the default) keeps the whole sequence resident; a tight budget
  // tracks out-of-core with the same results.
  stream_config.budget_bytes =
      static_cast<std::size_t>(args.get_int("budget-mb", 0)) * 1024 * 1024;
  stream_config.lookahead = args.get_int("lookahead", 2);
  stream_config.max_retries = args.get_int("max-retries", 2);
  stream_config.retry_backoff_ms = args.get_double("backoff-ms", 0.0);
  stream_config.fail_policy = parse_fail_policy(args.get("fail-policy",
                                                         "throw"));
  std::shared_ptr<const VolumeSource> source =
      std::make_shared<CompressedFileSource>(args.positional()[1]);
  if (args.has("inject-faults")) {
    source = std::make_shared<FaultInjectingSource>(
        source, parse_fault_schedule(args.get("inject-faults", "")));
  }
  StreamedSequence sequence(std::move(source), stream_config);
  auto [vlo, vhi] = sequence.value_range();
  auto [blo, bhi] = parse_band(args.get("band", ""),
                               lerp(vlo, vhi, 0.5), vhi);
  auto seed_coords = parse_int_list(args.get("seed", ""));
  IFET_REQUIRE(seed_coords.size() == 3,
               "track: --seed=x,y,z is required");
  Index3 seed{seed_coords[0], seed_coords[1], seed_coords[2]};
  const int seed_step = args.get_int("step", 0);

  FixedRangeCriterion criterion(blo, bhi);
  Tracker tracker(sequence, criterion);
  TrackResult track = tracker.track(seed, seed_step);
  if (track.masks.empty()) {
    std::cout << "seed does not satisfy the criterion; nothing tracked\n";
    return 1;
  }
  FeatureHistory history = build_feature_history(track);
  std::cout << "tracked steps " << track.first_step() << ".."
            << track.last_step() << " with band [" << blo << ", " << bhi
            << "]\n"
            << format_feature_tree(history);
  for (const auto& event : history.events) {
    if (event.type != EventType::kContinuation) {
      std::cout << "event: " << event_name(event.type)
                << " at t=" << event.step << "\n";
    }
  }
  std::cout << sequence.stats().summary() << "\n";
  const std::vector<int> quarantined = sequence.store().quarantined_steps();
  if (!quarantined.empty()) {
    std::cout << "quarantined steps:";
    for (std::size_t i = 0; i < quarantined.size(); ++i) {
      std::cout << (i == 0 ? " " : ", ") << quarantined[i];
    }
    std::cout << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    ifet::CliArgs args(argc, argv);
    if (args.positional().empty()) return usage();
    const std::string& command = args.positional()[0];
    if (command == "gen") return cmd_gen(args);
    if (command == "info") return cmd_info(args);
    if (command == "render") return cmd_render(args);
    if (command == "track") return cmd_track(args);
    return usage();
  } catch (const std::exception& e) {
    std::cerr << "ifet_tool: " << e.what() << "\n";
    return 1;
  }
}
