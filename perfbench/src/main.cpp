// The repository benchmark program (see perfbench/README.md).
//
//   ifet_perfbench --workload sweep|track|serve --seed N --seconds S
//                  --trace 0|1 [--data-dir DIR] [--trace-out FILE]
//
// Prepares the seeded input, runs the workload through the library's
// public API, validates its outputs, prints a report, and prints one JSON
// object as the last line: the end-to-end metrics of an untraced run, or
// the per-layer metrics of a traced one. Exits 1 when any validation
// fails, 2 on a usage error.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.hpp"

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Per-layer metrics of a traced run (BENCHMARK.json "per_layer"). Every
/// workload reports all of them; a layer a workload leaves idle reads 0.
const std::vector<MetricSpec> kPerLayer = {
    {"render.frame_ms", "ms"},
    {"render.plan_ms", "ms"},
    {"render.msamples_per_s", "1e6/s"},
    {"render.skip_rate", "fraction"},
    {"render.bricks_active_frac", "fraction"},
    {"render.early_term_frac", "fraction"},
    {"iatf.evaluate_ms", "ms"},
    {"iatf.evaluate_calls", "count"},
    {"iatf.train_s", "s"},
    {"stream.fetch_ms", "ms"},
    {"stream.hit_rate", "fraction"},
    {"stream.prefetch_hit_rate", "fraction"},
    {"stream.demand_loads", "count"},
    {"stream.evictions", "count"},
    {"stream.decode_s", "s"},
    {"stream.peak_resident_mb", "MiB"},
    {"stream.derived_hit_rate", "fraction"},
    {"io.decoded_mb", "MiB"},
    {"tracking.grow_s", "s"},
    {"tracking.voxels", "count"},
    {"tracking.mvox_per_s", "1e6/s"},
    {"tracking.steps_reached", "count"},
    {"tracking.rss_growth_mb", "MiB"},
    {"history.build_s", "s"},
    {"history.nodes", "count"},
    {"history.events", "count"},
    {"history.rss_growth_mb", "MiB"},
    {"server.render_ms_p50", "ms"},
    {"server.classify_ms_p50", "ms"},
    {"server.query_tf_ms_p50", "ms"},
    {"server.histogram_ms_p50", "ms"},
    {"server.track_ms_p50", "ms"},
    {"server.train_tf_ms_p50", "ms"},
    {"server.train_classifier_ms_p50", "ms"},
    {"server.paint_ms_p50", "ms"},
    {"server.set_key_frame_ms_p50", "ms"},
    {"server.contention_ratio", "ratio"},
    {"server.dedup_hit_rate", "fraction"},
    {"server.denied_pins", "count"},
    {"server.reloads", "count"},
    {"server.peak_queue_depth", "count"},
    {"server.refused", "count"},
    {"server.max_kind_share", "fraction"},
    {"classify.mvox_per_s", "1e6/s"},
    {"parallel.cpu_util", "fraction"},
    {"self.render_frac", "fraction"},
    {"self.stream_frac", "fraction"},
    {"self.iatf_frac", "fraction"},
    {"self.tracking_frac", "fraction"},
    {"self.history_frac", "fraction"},
    {"self.server_frac", "fraction"},
    {"self.unattributed_frac", "fraction"},
    {"trace.overhead_ms", "ms"},
    {"trace.spans", "count"},
    {"failed_frac", "fraction"},
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "ifet_perfbench: " << why
            << "\nusage: ifet_perfbench --workload sweep|track|serve "
               "--seed N --seconds S --trace 0|1 [--data-dir DIR] "
               "[--trace-out FILE]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        o.trace = value == "1";
      } else if (flag == "--data-dir") {
        o.data_dir = value;
      } else if (flag == "--trace-out") {
        o.trace_out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload != "sweep" && o.workload != "track" &&
      o.workload != "serve") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (o.seconds <= 0.0) usage("need --seconds > 0");
  return o;
}

void add_end_to_end(MetricSet& metrics, const Outcome& out) {
  const PhaseResult& p = out.untraced;
  const double ops = static_cast<double>(p.op_ms.size());
  metrics.add("setup_s", median(out.setup_s), "s");
  metrics.add("ops_per_s", p.wall_s > 0.0 ? ops / p.wall_s : 0.0, "1/s");
  metrics.add("op_ms_p50", percentile(p.op_ms, 0.50), "ms");
  metrics.add("op_ms_p90", percentile(p.op_ms, 0.90), "ms");
  metrics.add("cpu_ms_per_op", ops > 0.0 ? p.cpu_s * 1e3 / ops : 0.0, "ms");
  metrics.add("peak_rss_mb", out.peak_rss_mb, "MiB");
}

/// Self time per layer over the traced phase, printed and folded into the
/// per-layer values as shares of the ops' total (root span) time.
void add_self_times(std::map<std::string, double>& layer,
                    const std::vector<Span>& spans) {
  double root_us = 0.0;
  for (const Span& s : spans) {
    if (s.parent < 0) root_us += s.duration_us();
  }
  const std::map<std::string, double> self = layer_self_us(spans);
  std::cout << "per-layer self time over " << spans.size() << " spans:\n";
  for (const auto& [name, us] : self) {
    std::cout << "  " << std::left << std::setw(12) << name << std::right
              << std::setw(12) << std::fixed << std::setprecision(1)
              << us * 1e-3 << " ms  " << std::setw(6)
              << std::setprecision(1)
              << (root_us > 0.0 ? 100.0 * us / root_us : 0.0) << " %\n";
  }
  std::cout.unsetf(std::ios::floatfield);
  const auto share = [&](const char* l) {
    auto it = self.find(l);
    return it == self.end() || root_us <= 0.0 ? 0.0 : it->second / root_us;
  };
  for (const char* l :
       {"render", "stream", "iatf", "tracking", "history", "server"}) {
    layer[std::string("self.") + l + "_frac"] = share(l);
  }
  // The ops' own "bench" spans hold whatever no library call covered.
  layer["self.unattributed_frac"] = share("bench");
  layer["trace.spans"] = static_cast<double>(spans.size());
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  try {
    const Input input = prepare_input(options);
    std::cout << "input: " << input.cvol_path << " (" << input.dims.x
              << "^3 x " << input.steps << " steps, "
              << (input.reused ? "reused after CRC check" : "generated")
              << " in " << format_number(input.prepare_s) << " s)\n";

    Tracer tracer(options.trace);
    Outcome out = options.workload == "sweep"   ? run_sweep(options, input, tracer)
                  : options.workload == "track" ? run_track(options, input, tracer)
                                                : run_serve(options, input, tracer);
    const unsigned threads = std::max(1u, std::thread::hardware_concurrency());

    MetricSet metrics;
    if (options.trace) {
      add_self_times(out.layer, tracer.spans());
      out.layer["trace.overhead_ms"] = percentile(out.traced.op_ms, 0.5) -
                                       percentile(out.untraced.op_ms, 0.5);
      out.layer["parallel.cpu_util"] =
          out.traced.wall_s > 0.0
              ? out.traced.cpu_s / (out.traced.wall_s * threads)
              : 0.0;
      out.layer["failed_frac"] = out.ledger.failed_frac();
      for (const MetricSpec& m : kPerLayer) {
        auto it = out.layer.find(m.name);
        metrics.add(m.name, it == out.layer.end() ? 0.0 : it->second, m.unit);
      }
      if (!options.trace_out.empty() &&
          !tracer.write_chrome_json(options.trace_out)) {
        throw std::runtime_error("cannot write " + options.trace_out);
      }
    } else {
      add_end_to_end(metrics, out);
    }

    for (const std::string& note : out.notes) std::cout << note << "\n";
    const PhaseResult& measured = options.trace ? out.traced : out.untraced;
    std::cout << "ops " << measured.op_ms.size() << " in "
              << format_number(measured.wall_s) << " s on " << threads
              << " threads; p90 "
              << (percentile_supported(measured.op_ms.size(), 0.9)
                      ? "has"
                      : "lacks")
              << " ten samples beyond it; failed_frac "
              << format_number(out.ledger.failed_frac()) << "\n";
    for (const std::string& reason : out.ledger.reasons()) {
      std::cout << "FAILED " << reason << "\n";
    }
    for (const Metric& m : metrics.items()) {
      std::cout << "  " << std::left << std::setw(34) << m.name << std::right
                << format_number(m.value) << " " << m.unit << "\n";
    }
    const bool correct = out.ledger.failed() == 0;
    std::cout << result_json(correct, out.ledger.attempted(),
                             out.ledger.failed(), metrics)
              << std::endl;
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "ifet_perfbench: " << e.what() << "\n";
    return 1;
  }
}
