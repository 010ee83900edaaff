// Workload `sweep`: the paper's Sec 7 animation. One session streams the
// .cvol under an eight-step budget; every frame re-evaluates the IATF for
// its step and ray-casts a shaded 512^2 front-to-back image while the
// camera orbits, stepping through the sequence in order.
//
// Why: render and sequential prefetch/decode do almost all the work here,
// while tracking, the classifier and the server sit idle.
#include <cmath>
#include <memory>
#include <numbers>
#include <vector>

#include "common.hpp"
#include "io/checksum.hpp"
#include "render/raycaster.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace ifet;

/// Frames per camera orbit.
constexpr int kOrbitFrames = 32;
/// Every this many frames one is kept for the skipping-off comparison.
constexpr int kCheckEvery = 16;
constexpr std::size_t kMaxChecks = 6;

/// A frame kept for the skipping-off re-render.
struct Check {
  std::int64_t op = 0;
  int step = 0;
  double azimuth = 0.0;
  std::uint32_t crc = 0;
};

struct RenderTotals {
  std::uint64_t rays = 0, samples = 0, skipped = 0, early = 0;
  std::uint64_t bricks = 0, bricks_active = 0;
  double seconds = 0.0;

  void add(const RenderStats& s) {
    rays += s.rays;
    samples += s.samples;
    skipped += s.samples_skipped;
    early += s.terminated_early;
    bricks += s.bricks_total;
    bricks_active += s.bricks_active;
    seconds += s.seconds;
  }
};

Camera orbit_camera(double azimuth) { return Camera(azimuth, 0.35, 3.0); }

}  // namespace

Outcome run_sweep(const Options& options, const Input& input,
                  Tracer& tracer) {
  Outcome out;
  std::vector<double> train_s;
  const StreamSession session = timed_stream_setups(input, out.setup_s,
                                                    train_s);
  StreamedSequence& sequence = *session.sequence;
  const Iatf& iatf = *session.iatf;

  RenderSettings settings;
  settings.width = kImageSize;
  settings.height = kImageSize;
  const Raycaster caster(settings);
  const ColorMap colors;
  const int first_step =
      static_cast<int>(mix_seed(options.seed, 2) % input.steps);
  const double phase =
      2.0 * std::numbers::pi *
      static_cast<double>(mix_seed(options.seed, 3) % 1000) / 1000.0;

  std::vector<Check> checks;
  RenderTotals totals;
  int frame = 0;
  Tracer untraced(false);

  const auto run_phase = [&](double seconds, Tracer& t) {
    PhaseResult phase_result;
    const double cpu0 = process_cpu_seconds();
    Stopwatch wall;
    while (wall.seconds() < seconds) {
      const int step = (first_step + frame) % input.steps;
      const double azimuth =
          phase + 2.0 * std::numbers::pi * frame / kOrbitFrames;
      const Camera camera = orbit_camera(azimuth);
      const std::int64_t op = out.ledger.attempt();
      Stopwatch op_watch;
      try {
        Scope root(t, "bench.frame", -1, op);
        TransferFunction1D tf(0.0, 1.0);
        {
          Scope s(t, "iatf.evaluate", root.id(), op);
          tf = iatf.evaluate(step);
        }
        {
          Scope s(t, "stream.fetch", root.id(), op);
          sequence.step(step);
        }
        if (t.enabled()) {
          Scope s(t, "render.plan", root.id(), op);
          caster.prepare_plan(sequence.step(step), tf, colors, camera,
                              nullptr, nullptr, sequence.brick_index(step));
        }
        RenderStats stats;
        ImageRgb8 image(1, 1);
        {
          Scope s(t, "render.frame", root.id(), op);
          image = caster.render_step(sequence, step, tf, colors, camera,
                                     nullptr, &stats);
        }
        if (t.enabled()) totals.add(stats);
        if (frame % kCheckEvery == 0 && checks.size() < kMaxChecks) {
          checks.push_back({op, step, azimuth,
                            crc32(image.pixels.data(), image.pixels.size())});
        }
      } catch (const std::exception& e) {
        out.ledger.mark_failed(op, e.what());
      }
      phase_result.op_ms.push_back(op_watch.milliseconds());
      ++frame;
    }
    phase_result.wall_s = wall.seconds();
    phase_result.cpu_s = process_cpu_seconds() - cpu0;
    return phase_result;
  };

  if (options.trace) {
    out.untraced = run_phase(options.seconds / 2, untraced);
    const StreamStats before = sequence.stats();
    out.traced = run_phase(options.seconds / 2, tracer);
    const StreamStats after = sequence.stats();

    const std::vector<Span> spans = tracer.spans();
    auto& layer = out.layer;
    layer["render.frame_ms"] = median(span_ms(spans, "render.frame"));
    layer["render.plan_ms"] = median(span_ms(spans, "render.plan"));
    layer["render.msamples_per_s"] =
        totals.seconds > 0.0 ? totals.samples * 1e-6 / totals.seconds : 0.0;
    const double would_sample =
        static_cast<double>(totals.samples + totals.skipped);
    layer["render.skip_rate"] =
        would_sample > 0.0 ? totals.skipped / would_sample : 0.0;
    layer["render.bricks_active_frac"] =
        totals.bricks > 0
            ? static_cast<double>(totals.bricks_active) / totals.bricks
            : 0.0;
    layer["render.early_term_frac"] =
        totals.rays > 0 ? static_cast<double>(totals.early) / totals.rays
                        : 0.0;
    const std::vector<double> evaluate = span_ms(spans, "iatf.evaluate");
    layer["iatf.evaluate_ms"] = median(evaluate);
    layer["iatf.evaluate_calls"] = static_cast<double>(evaluate.size());
    layer["iatf.train_s"] = median(train_s);
    layer["stream.fetch_ms"] = mean(span_ms(spans, "stream.fetch"));
    fill_stream_layer(layer, before, after, input.step_bytes);
  } else {
    out.untraced = run_phase(options.seconds, untraced);
  }
  out.peak_rss_mb = peak_rss_mb();

  // Validation: the kept frames re-rendered with empty-space skipping off
  // must be bitwise equal (skipped samples are provably transparent).
  RenderSettings plain = settings;
  plain.empty_space_skipping = false;
  const Raycaster reference(plain);
  for (const Check& check : checks) {
    const ImageRgb8 image = reference.render_step(
        sequence, check.step, iatf.evaluate(check.step), colors,
        orbit_camera(check.azimuth));
    if (crc32(image.pixels.data(), image.pixels.size()) != check.crc) {
      out.ledger.mark_failed(check.op,
                             "frame differs from the skipping-off render");
    }
  }
  out.notes.push_back("sweep: " + std::to_string(frame) + " frames of " +
                      std::to_string(kImageSize) + "^2, " +
                      std::to_string(checks.size()) +
                      " checked against skipping off");
  return out;
}

}  // namespace perfbench
