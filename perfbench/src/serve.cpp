// Workload `serve`: four closed-loop clients on one SessionManager over a
// shared streaming tier with a budget of about eight steps and a two-step
// pin quota per client. Adjacent clients' step windows overlap by half.
// Each client loops a script that mixes reads (kQueryTf, kHistogram,
// full-step kClassify, kRender previews) with writes (kSetKeyFrame,
// kTrainTf, kPaint, kTrainClassifier, bounded-range kTrack). The
// completion callback of one command submits the next, so the benchmark
// starts no threads of its own for the clients.
//
// Why: strands, admission, shared-cache contention, derived-cache dedup
// and the FlatMlp classifier carry the load. Mutations sit beside reads,
// so a change that speeds up reads by slowing training or key-frame
// updates shows up.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "io/compressed.hpp"
#include "server/session_manager.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace ifet;

constexpr int kClients = 4;
constexpr int kTierBudgetSteps = 8;
constexpr int kPinQuotaSteps = 2;
/// Edge of the kRender preview, sized so no command kind takes more than
/// half of the isolated service time.
constexpr int kPreviewSize = 128;
/// Loop iterations of one client replayed alone for the isolated service
/// times.
constexpr std::size_t kIsolatedIterations = 12;
/// Half-width of a kTrack command's step range: the tracker's own
/// {t-1, t, t+1} window.
constexpr int kTrackRadius = 1;

const char* kind_name(CommandKind kind) {
  switch (kind) {
    case CommandKind::kPaint: return "paint";
    case CommandKind::kSelectUnwanted: return "select_unwanted";
    case CommandKind::kTrainClassifier: return "train_classifier";
    case CommandKind::kClassify: return "classify";
    case CommandKind::kSetKeyFrame: return "set_key_frame";
    case CommandKind::kTrainTf: return "train_tf";
    case CommandKind::kQueryTf: return "query_tf";
    case CommandKind::kHistogram: return "histogram";
    case CommandKind::kTrack: return "track";
    case CommandKind::kRender: return "render";
    case CommandKind::kHintWindow: return "hint_window";
  }
  return "unknown";
}

/// The kinds a client's loop issues, in script order.
constexpr CommandKind kLoopKinds[] = {
    CommandKind::kQueryTf,    CommandKind::kHistogram,
    CommandKind::kRender,     CommandKind::kClassify,
    CommandKind::kQueryTf,    CommandKind::kHistogram,
    CommandKind::kPaint,      CommandKind::kTrainClassifier,
    CommandKind::kSetKeyFrame, CommandKind::kTrainTf,
    CommandKind::kTrack,
};
constexpr std::size_t kLoopLength = std::size(kLoopKinds);

/// One executed command of a client.
struct Record {
  Command command;
  ServerResult result;
  double latency_ms = 0.0;
  int phase = 0;
};

struct Client {
  int id = -1;
  int lo = 0, hi = 0;  ///< Step window.
  std::uint64_t salt = 0;
  std::vector<Command> setup;
  std::vector<Record> records;
  /// Latency of each whole loop iteration (the serve op) and its phase.
  std::vector<std::pair<double, int>> iteration_ms;
  std::chrono::steady_clock::time_point iteration_start;
};

/// Key frame at `step`: the ring band as fractions of the value range.
Command key_frame_command(const Input& input, std::pair<double, double> range,
                          int step) {
  const ArgonBubbleSource argon(input.source);
  const double center = argon.ring_band_center(input.window_start + step);
  const double half = argon.ring_band_half_width();
  const double span = range.second - range.first;
  Command c;
  c.kind = CommandKind::kSetKeyFrame;
  c.step = step;
  c.band_lo = (center - half - range.first) / span;
  c.band_hi = (center + half - range.first) / span;
  c.band_peak = 0.8;
  c.band_skirt = 0.1;
  return c;
}

Command paint_command(const Input& input, int step, bool feature) {
  Command c;
  c.kind = CommandKind::kPaint;
  c.step = step;
  const Index3 ring = ring_voxel(input, step);
  c.stroke.axis = 2;
  c.stroke.slice = ring.z;
  c.stroke.u = feature ? ring.x : 2;
  c.stroke.v = feature ? ring.y : 2;
  c.stroke.radius = 1.5;
  c.stroke.certainty = feature ? 1.0 : 0.0;
  return c;
}

/// Command `index` of a client's endless loop: a deterministic function
/// of the client and the index, so the reference can replay it.
Command loop_command(const Input& input, std::pair<double, double> range,
                     const Client& client, std::size_t index) {
  const std::size_t iteration = index / kLoopLength;
  const std::size_t width = static_cast<std::size_t>(client.hi - client.lo + 1);
  // The client scrubs its window one step per iteration.
  const int step =
      client.lo + static_cast<int>((client.salt + iteration) % width);
  const int next = std::min(step + 1, client.hi);
  Command c;
  c.kind = kLoopKinds[index % kLoopLength];
  c.step = step;
  switch (index % kLoopLength) {
    case 2:
      c.image_size = kPreviewSize;
      c.azimuth = 0.6 + 0.1 * static_cast<double>(iteration % 16);
      break;
    case 4:
    case 5:
      c.step = next;
      break;
    case 6:
      return paint_command(input, step, iteration % 2 == 0);
    case 7:
      c.epochs = 3;
      break;
    case 8:
      return key_frame_command(input, range,
                               iteration % 2 == 0 ? client.lo : client.hi);
    case 9:
      c.epochs = 10;
      break;
    case 10:
      c.seed = ring_voxel(input, step);
      c.track_min_step = std::max(client.lo, step - kTrackRadius);
      c.track_max_step = std::min(client.hi, step + kTrackRadius);
      break;
    default:
      break;
  }
  return c;
}

std::vector<Command> setup_commands(const Input& input,
                                    std::pair<double, double> range,
                                    const Client& client) {
  std::vector<Command> script;
  Command hint;
  hint.kind = CommandKind::kHintWindow;
  hint.window_lo = client.lo;
  hint.window_hi = client.hi;
  script.push_back(hint);
  script.push_back(key_frame_command(input, range, client.lo));
  script.push_back(key_frame_command(input, range, client.hi));
  Command train;
  train.kind = CommandKind::kTrainTf;
  train.epochs = kIatfEpochs;
  script.push_back(train);
  script.push_back(paint_command(input, client.lo, true));
  script.push_back(paint_command(input, client.lo, false));
  train.kind = CommandKind::kTrainClassifier;
  train.epochs = 20;
  script.push_back(train);
  return script;
}

SessionManagerConfig tier_config(const Input& input, bool shared) {
  SessionManagerConfig config;
  config.command_threads = std::max(1u, std::thread::hardware_concurrency());
  if (shared) {
    config.tier.budget_bytes = kTierBudgetSteps * input.step_bytes;
    config.tier.pin_quota_bytes = kPinQuotaSteps * input.step_bytes;
  }
  return config;
}

/// Build a manager and its clients, running every client's set-up script.
std::unique_ptr<SessionManager> open_manager(
    const Input& input, bool shared, std::vector<Client>& clients) {
  auto manager = std::make_unique<SessionManager>(
      std::make_shared<CompressedFileSource>(input.cvol_path),
      tier_config(input, shared));
  for (Client& client : clients) {
    client.id = manager->create_session();
    for (const Command& c : client.setup) {
      const ServerResult r = manager->execute(client.id, c);
      if (!r.ok) throw std::runtime_error("set-up command failed: " + r.error);
    }
  }
  return manager;
}

/// The closed-loop load of one timed phase.
struct Load {
  SessionManager& manager;
  const Input& input;
  std::pair<double, double> range;
  Tracer& tracer;
  int phase = 0;
  std::atomic<bool> stop{false};
  std::mutex mutex;
  std::condition_variable idle;
  int active = 0;
};

/// Submit the client's next command. A client stops only between loop
/// iterations, so every iteration it starts is whole.
void submit_next(Load& load, Client& client) {
  const std::size_t index = client.records.size();
  const auto start = std::chrono::steady_clock::now();
  if (index % kLoopLength == 0) {
    if (load.stop.load(std::memory_order_relaxed)) {
      std::lock_guard<std::mutex> lock(load.mutex);
      if (--load.active == 0) load.idle.notify_all();
      return;
    }
    client.iteration_start = start;
  }
  client.records.push_back(
      {loop_command(load.input, load.range, client, index), {}, 0.0,
       load.phase});
  const double start_us = load.tracer.enabled() ? load.tracer.now_us() : 0.0;
  load.manager.submit(
      client.id, client.records[index].command,
      [&load, &client, index, start, start_us](const ServerResult& result) {
        const auto end = std::chrono::steady_clock::now();
        Record& record = client.records[index];
        record.result = result;
        record.latency_ms =
            std::chrono::duration<double, std::milli>(end - start).count();
        if ((index + 1) % kLoopLength == 0) {
          client.iteration_ms.emplace_back(
              std::chrono::duration<double, std::milli>(
                  end - client.iteration_start)
                  .count(),
              record.phase);
        }
        if (load.tracer.enabled()) {
          Span span;
          span.name =
              std::string("server.") + kind_name(record.command.kind);
          span.start_us = start_us;
          span.end_us = load.tracer.now_us();
          span.id = load.tracer.next_id();
          span.op = static_cast<std::int64_t>(client.id) * 1000000 +
                    static_cast<std::int64_t>(index);
          span.tid = static_cast<std::uint32_t>(client.id);
          load.tracer.record(std::move(span));
        }
        submit_next(load, client);
      });
}

PhaseResult run_phase(SessionManager& manager, const Input& input,
                      std::pair<double, double> range,
                      std::vector<Client>& clients, Tracer& tracer,
                      int phase, double seconds) {
  Load load{manager, input, range, tracer, phase, {}, {}, {}, 0};
  PhaseResult result;
  const double cpu0 = process_cpu_seconds();
  Stopwatch wall;
  load.active = static_cast<int>(clients.size());
  for (Client& client : clients) submit_next(load, client);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  load.stop.store(true);
  {
    std::unique_lock<std::mutex> lock(load.mutex);
    load.idle.wait(lock, [&load] { return load.active == 0; });
  }
  manager.drain_all();
  result.wall_s = wall.seconds();
  result.cpu_s = process_cpu_seconds() - cpu0;
  for (const Client& c : clients) {
    for (const auto& [ms, p] : c.iteration_ms) {
      if (p == phase) result.op_ms.push_back(ms);
    }
  }
  return result;
}

struct TierSnapshot {
  StreamStats stream;
  std::uint64_t denied_pins = 0, reloads = 0;
};

TierSnapshot snapshot(SessionManager& manager,
                      const std::vector<Client>& clients) {
  TierSnapshot s;
  s.stream = manager.tier().stats();
  for (const Client& c : clients) {
    const AdmissionStats a = manager.session_admission(c.id);
    s.denied_pins += a.denied_pins;
    s.reloads += a.reloads;
  }
  return s;
}

}  // namespace

Outcome run_serve(const Options& options, const Input& input,
                  Tracer& tracer) {
  Outcome out;
  const auto range = CompressedFileSource(input.cvol_path).value_range();

  // Windows of width w with adjacent clients overlapping by w/2.
  std::vector<Client> clients(kClients);
  const int width = 2 * input.steps / (kClients + 1);
  for (int c = 0; c < kClients; ++c) {
    clients[c].lo = c * width / 2;
    clients[c].hi = std::min(input.steps - 1, clients[c].lo + width - 1);
    clients[c].salt = mix_seed(options.seed, 20 + c);
  }
  for (Client& c : clients) c.setup = setup_commands(input, range, c);

  std::unique_ptr<SessionManager> manager;
  for (int i = 0; i < kSetups; ++i) {
    manager.reset();  // the previous set-up is torn down untimed
    Stopwatch watch;
    manager = open_manager(input, true, clients);
    out.setup_s.push_back(watch.seconds());
  }

  TierSnapshot before, after;
  if (options.trace) {
    Tracer untraced(false);
    out.untraced = run_phase(*manager, input, range, clients, untraced, 0,
                             options.seconds / 2);
    before = snapshot(*manager, clients);
    out.traced = run_phase(*manager, input, range, clients, tracer, 1,
                           options.seconds / 2);
    after = snapshot(*manager, clients);
  } else {
    out.untraced = run_phase(*manager, input, range, clients, tracer, 0,
                             options.seconds);
  }
  out.peak_rss_mb = peak_rss_mb();
  std::size_t peak_depth = 0;
  for (const Client& c : clients) {
    peak_depth = std::max(peak_depth, manager->session_queue(c.id).peak_depth);
  }
  manager.reset();

  // Failures and refusals count as failed ops.
  const int measured_phase = options.trace ? 1 : 0;
  std::map<std::string, std::vector<double>> concurrent_ms, isolated_ms;
  std::vector<double> concurrent_all, isolated_all;
  std::vector<std::vector<std::int64_t>> ops(clients.size());
  std::vector<std::vector<std::size_t>> mismatched(clients.size());
  double refused = 0.0;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (const Record& r : clients[c].records) {
      const std::int64_t op = out.ledger.attempt();
      ops[c].push_back(op);
      if (!r.result.ok) {
        out.ledger.mark_failed(op, "command failed: " + r.result.error);
        if (r.phase == measured_phase) refused += 1.0;
      }
      if (r.phase == measured_phase) {
        concurrent_ms[kind_name(r.command.kind)].push_back(r.latency_ms);
        concurrent_all.push_back(r.latency_ms);
      }
    }
  }

  // Validation: replay every client's commands on a fully resident manager
  // with execute(); results must match bitwise. The first
  // kIsolatedIterations loop iterations of the first client replay alone,
  // which gives the isolated service times; then every client replays the
  // rest side by side, one thread each, to keep the check short.
  {
    std::vector<Client> reference = clients;
    auto iso = open_manager(input, false, reference);
    const auto replay = [&](std::size_t c, std::size_t from, std::size_t to,
                            bool timed) {
      const auto& records = clients[c].records;
      for (std::size_t i = from; i < std::min(to, records.size()); ++i) {
        Stopwatch watch;
        const ServerResult ref = iso->execute(reference[c].id,
                                              records[i].command);
        if (timed) {
          const double ms = watch.milliseconds();
          isolated_ms[kind_name(records[i].command.kind)].push_back(ms);
          isolated_all.push_back(ms);
        }
        if (ref.ok != records[i].result.ok ||
            ref.digest != records[i].result.digest ||
            ref.value != records[i].result.value) {
          mismatched[c].push_back(i);
        }
      }
    };
    const std::size_t alone = kIsolatedIterations * kLoopLength;
    replay(0, 0, alone, true);
    std::vector<std::thread> replays;
    for (std::size_t c = 0; c < clients.size(); ++c) {
      replays.emplace_back(replay, c, c == 0 ? alone : 0,
                           clients[c].records.size(), false);
    }
    for (std::thread& t : replays) t.join();
  }
  for (std::size_t c = 0; c < clients.size(); ++c) {
    for (const std::size_t i : mismatched[c]) {
      out.ledger.mark_failed(ops[c][i],
                             std::string("result differs from the isolated "
                                         "reference (") +
                                 kind_name(clients[c].records[i].command.kind) +
                                 ")");
    }
  }

  double isolated_total = 0.0, largest_kind = 0.0;
  std::string largest_name;
  for (const auto& [kind, ms] : isolated_ms) {
    double sum = 0.0;
    for (const double v : ms) sum += v;
    isolated_total += sum;
    if (sum > largest_kind) {
      largest_kind = sum;
      largest_name = kind;
    }
  }
  const double largest_share =
      isolated_total > 0.0 ? largest_kind / isolated_total : 0.0;

  if (options.trace) {
    auto& layer = out.layer;
    for (const char* kind : {"render", "classify", "query_tf", "histogram",
                             "track", "train_tf", "train_classifier",
                             "paint", "set_key_frame"}) {
      layer[std::string("server.") + kind + "_ms_p50"] =
          median(concurrent_ms[kind]);
    }
    // Mean service time under concurrency over the mean alone: the median
    // of a mix of command kinds jumps from one kind to another.
    const double iso_mean = mean(isolated_all);
    layer["server.contention_ratio"] =
        iso_mean > 0.0 ? mean(concurrent_all) / iso_mean : 0.0;
    const double dhits = static_cast<double>(after.stream.derived_hits -
                                             before.stream.derived_hits);
    const double dmisses = static_cast<double>(after.stream.derived_misses -
                                               before.stream.derived_misses);
    layer["server.dedup_hit_rate"] =
        dhits + dmisses > 0.0 ? dhits / (dhits + dmisses) : 0.0;
    layer["server.denied_pins"] =
        static_cast<double>(after.denied_pins - before.denied_pins);
    layer["server.reloads"] =
        static_cast<double>(after.reloads - before.reloads);
    layer["server.peak_queue_depth"] = static_cast<double>(peak_depth);
    layer["server.refused"] = refused;
    layer["server.max_kind_share"] = largest_share;
    const double classify_ms = median(isolated_ms["classify"]);
    layer["classify.mvox_per_s"] =
        classify_ms > 0.0
            ? static_cast<double>(input.dims.count()) * 1e-3 / classify_ms
            : 0.0;
    layer["render.frame_ms"] = median(isolated_ms["render"]);
    fill_stream_layer(layer, before.stream, after.stream, input.step_bytes);
  }
  out.notes.push_back(
      "serve: " + std::to_string(concurrent_all.size()) +
      " measured commands in " +
      std::to_string(out.untraced.op_ms.size() + out.traced.op_ms.size()) +
      " loop iterations from " + std::to_string(kClients) +
      " clients; largest kind " + largest_name + " takes " +
      format_number(largest_share) + " of the isolated service time");
  if (largest_share > 0.5) {
    out.ledger.mark_failed(out.ledger.attempt(),
                           "one command kind takes over half the service "
                           "time");
  }
  return out;
}

}  // namespace perfbench
