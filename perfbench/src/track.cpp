// Workload `track`: the paper's Sec 5 feature tracking over the whole step
// window, on the sweep's file and budget. A fixed cycle of queries runs:
// adaptive (IATF) ring tracks and conventional fixed-range tracks over a
// band wide enough that every step's region covers at least a quarter of
// the voxels. Each query (op) is Tracker::track, build_feature_history,
// and one 512^2 overlay render of the seed step.
//
// Why: region growing and feature history dominate, and the stream layer
// is hit as a bidirectional {t-1,t,t+1} pinned window instead of a forward
// scan. Memory grows with the number of steps tracked, so peak_rss_mb is
// measured here.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/track_events.hpp"
#include "core/tracking.hpp"
#include "io/checksum.hpp"
#include "render/raycaster.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace {

using namespace ifet;

/// Adaptive-criterion opacity cut (the library default).
constexpr double kOpacityCut = 0.25;
/// The band query keeps every voxel at or below the value where this
/// cumulative fraction is reached, at whichever step that value is largest.
constexpr double kBandFraction = 0.35;

struct Query {
  bool adaptive = true;  ///< Ring track (IATF) or fixed-range band.
  int step = 0;
  Index3 seed{};
};

/// The fixed band of the conventional queries: [range lo, v] where v is
/// the largest value at kBandFraction over every step, so each step holds
/// at least that fraction of its voxels inside the band.
std::pair<double, double> band_range(const VolumeSequence& sequence) {
  const double lo = sequence.value_range().first;
  double top = lo;
  for (int t = 0; t < sequence.num_steps(); ++t) {
    top = std::max(top, sequence.cumulative_histogram(t).value_at_fraction(
                            kBandFraction));
  }
  return {lo, top};
}

/// The lowest-valued voxel of `volume` (first in linear order): the deepest
/// point of the background band.
Index3 band_seed(const VolumeF& volume) {
  std::size_t best = 0;
  for (std::size_t v = 1; v < volume.size(); ++v) {
    if (volume[v] < volume[best]) best = v;
  }
  return volume.coord_of(best);
}

/// A voxel near `guess` that `criterion` accepts at `step`.
Index3 accepted_near(const VolumeSequence& sequence,
                     const TrackingCriterion& criterion, int step,
                     Index3 guess) {
  const VolumeF& volume = sequence.step(step);
  const Dims d = volume.dims();
  for (int r = 0; r <= 3; ++r) {
    for (int dz = -r; dz <= r; ++dz) {
      for (int dy = -r; dy <= r; ++dy) {
        for (int dx = -r; dx <= r; ++dx) {
          const Index3 p{guess.x + dx, guess.y + dy, guess.z + dz};
          if (d.contains(p) && criterion.accept(step, volume.at(p))) return p;
        }
      }
    }
  }
  throw std::runtime_error("no ring voxel accepted near the analytic seed");
}

std::uint32_t track_digest(const TrackResult& result) {
  std::uint32_t crc = 0;
  for (const auto& [step, mask] : result.masks) {
    crc = crc32(&step, sizeof(step), crc);
    crc = crc32(mask.data().data(), mask.size(), crc);
  }
  return crc;
}

std::size_t mask_voxels(const TrackResult& result) {
  std::size_t total = 0;
  for (const auto& [step, mask] : result.masks) total += mask_count(mask);
  return total;
}

std::size_t history_voxels(const FeatureHistory& history) {
  std::size_t total = 0;
  for (const FeatureNode& node : history.nodes) total += node.info.voxel_count;
  return total;
}

/// Run one query's tracker on `session`.
TrackResult run_query(const StreamSession& session, const Query& query,
                      std::pair<double, double> band) {
  const StreamedSequence& sequence = *session.sequence;
  if (query.adaptive) {
    const AdaptiveTfCriterion criterion(*session.iatf, kOpacityCut,
                                        &sequence.derived_cache());
    return Tracker(sequence, criterion).track(query.seed, query.step);
  }
  const FixedRangeCriterion criterion(band.first, band.second);
  return Tracker(sequence, criterion).track(query.seed, query.step);
}

/// The query cycle: rings seeded at a quarter, a half and three quarters of
/// the window, then a band seeded at the half. Three rings to one band put
/// the median op well inside the ring queries and p90 among the band
/// queries on every run. The steps are fixed, so seeds change only the data
/// and every seed runs the same amount of work.
std::vector<Query> make_queries(const Input& input,
                                const StreamSession& session) {
  const StreamedSequence& sequence = *session.sequence;
  const AdaptiveTfCriterion ring(*session.iatf, kOpacityCut,
                                 &sequence.derived_cache());
  std::vector<Query> queries;
  for (int i = 0; i < 4; ++i) {
    Query q;
    q.adaptive = i < 3;
    q.step = q.adaptive ? (i + 1) * input.steps / 4 : input.steps / 2;
    q.seed = q.adaptive
                 ? accepted_near(sequence, ring, q.step,
                                 ring_voxel(input, q.step))
                 : band_seed(sequence.step(q.step));
    queries.push_back(q);
  }
  return queries;
}

}  // namespace

Outcome run_track(const Options& options, const Input& input,
                  Tracer& tracer) {
  Outcome out;
  std::vector<double> train_s;
  const StreamSession session = timed_stream_setups(input, out.setup_s,
                                                    train_s);
  StreamedSequence& sequence = *session.sequence;
  const Iatf& iatf = *session.iatf;
  const auto band = band_range(sequence);
  const std::vector<Query> queries = make_queries(input, session);

  RenderSettings settings;
  settings.width = kImageSize;
  settings.height = kImageSize;
  const Raycaster caster(settings);
  const ColorMap colors;

  // First result digest of each query, checked against the unlimited-
  // budget reference after the timed phase.
  std::vector<std::uint32_t> digests(queries.size(), 0);
  std::vector<std::int64_t> digest_ops(queries.size(), -1);
  std::vector<double> grow_s, voxels, steps_reached, grow_heap, history_s,
      nodes, events, history_heap, band_cover;
  double traced_voxels = 0.0, traced_grow_s = 0.0;
  std::size_t query_index = 0;
  Tracer untraced(false);

  const auto run_phase = [&](double seconds, Tracer& t) {
    PhaseResult phase_result;
    const double cpu0 = process_cpu_seconds();
    Stopwatch wall;
    // Whole query cycles only, so every phase holds the same query mix.
    while (query_index % queries.size() != 0 || wall.seconds() < seconds) {
      const std::size_t qi = query_index++ % queries.size();
      const Query& query = queries[qi];
      const std::int64_t op = out.ledger.attempt();
      Stopwatch op_watch;
      try {
        Scope root(t, "bench.query", -1, op);
        const double heap0 = heap_in_use_mb();
        Stopwatch grow_watch;
        TrackResult result;
        {
          Scope s(t, "tracking.grow", root.id(), op);
          result = run_query(session, query, band);
        }
        const double grow = grow_watch.seconds();
        const double heap1 = heap_in_use_mb();
        Stopwatch history_watch;
        FeatureHistory history;
        {
          Scope s(t, "history.build", root.id(), op);
          history = build_feature_history(result);
        }
        const double history_time = history_watch.seconds();
        const double heap2 = heap_in_use_mb();

        const std::size_t tracked = mask_voxels(result);
        if (!result.reached(query.step)) {
          out.ledger.mark_failed(op, "seed step not reached");
        } else if (history_voxels(history) != tracked) {
          out.ledger.mark_failed(op, "history voxels differ from masks");
        }
        if (digest_ops[qi] < 0) {
          digests[qi] = track_digest(result);
          digest_ops[qi] = op;
        }

        TransferFunction1D adaptive(0.0, 1.0);
        {
          Scope s(t, "iatf.evaluate", root.id(), op);
          adaptive = iatf.evaluate(query.step);
        }
        const HighlightLayer highlight{&result.masks.at(query.step),
                                       &adaptive};
        {
          Scope s(t, "render.frame", root.id(), op);
          caster.render_step(sequence, query.step,
                             iatf.key_frames().interpolate_at(query.step),
                             colors, Camera(0.6, 0.35, 2.4), &highlight);
        }
        if (t.enabled()) {
          grow_s.push_back(grow);
          voxels.push_back(static_cast<double>(tracked));
          steps_reached.push_back(static_cast<double>(result.masks.size()));
          grow_heap.push_back(heap1 - heap0);
          history_s.push_back(history_time);
          nodes.push_back(static_cast<double>(history.nodes.size()));
          events.push_back(static_cast<double>(history.events.size()));
          history_heap.push_back(heap2 - heap1);
          traced_voxels += static_cast<double>(tracked);
          traced_grow_s += grow;
        }
        if (!query.adaptive) {
          // Smallest share of a step's voxels the band region covers.
          double cover = 1.0;
          for (const auto& [step, mask] : result.masks) {
            cover = std::min(cover, static_cast<double>(mask_count(mask)) /
                                        static_cast<double>(mask.size()));
          }
          band_cover.push_back(cover);
        }
      } catch (const std::exception& e) {
        out.ledger.mark_failed(op, e.what());
      }
      phase_result.op_ms.push_back(op_watch.milliseconds());
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
    const std::vector<double> evaluate = span_ms(spans, "iatf.evaluate");
    layer["iatf.evaluate_ms"] = median(evaluate);
    layer["iatf.evaluate_calls"] = static_cast<double>(evaluate.size());
    layer["iatf.train_s"] = median(train_s);
    fill_stream_layer(layer, before, after, input.step_bytes);
    layer["tracking.grow_s"] = median(grow_s);
    layer["tracking.voxels"] = median(voxels);
    layer["tracking.mvox_per_s"] =
        traced_grow_s > 0.0 ? traced_voxels * 1e-6 / traced_grow_s : 0.0;
    layer["tracking.steps_reached"] = median(steps_reached);
    layer["tracking.rss_growth_mb"] = median(grow_heap);
    layer["history.build_s"] = median(history_s);
    layer["history.nodes"] = median(nodes);
    layer["history.events"] = median(events);
    layer["history.rss_growth_mb"] = median(history_heap);
  } else {
    out.untraced = run_phase(options.seconds, untraced);
  }
  out.peak_rss_mb = peak_rss_mb();

  const double min_cover =
      band_cover.empty()
          ? 0.0
          : *std::min_element(band_cover.begin(), band_cover.end());
  if (min_cover < 0.25) {
    out.ledger.mark_failed(out.ledger.attempt(),
                           "band region covers under a quarter of a step");
  }

  // Validation: each query's first result under the tight budget must
  // equal the same query on a fully resident sequence.
  double train = 0.0;
  const StreamSession resident = open_stream_session(input, 0, train);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    if (digest_ops[qi] < 0) continue;
    if (track_digest(run_query(resident, queries[qi], band)) != digests[qi]) {
      out.ledger.mark_failed(digest_ops[qi],
                             "masks differ from the unlimited-budget run");
    }
  }
  out.notes.push_back(
      "track: " + std::to_string(query_index) + " queries, band [" +
      format_number(band.first) + ", " + format_number(band.second) +
      "], smallest band cover " + format_number(min_cover));
  return out;
}

}  // namespace perfbench
