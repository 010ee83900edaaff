// Out-of-core streaming bench: scan, track, and synthesize TFs over a
// sequence whose decoded size exceeds the cache budget, and verify the
// streamed results are bit-identical to the fully-resident path.
//
// Shape claims (exit nonzero on failure):
//   - a warm CacheManager hit performs zero heap allocations (the shared
//     AllocGuard pins the splice-based LRU refresh);
//   - a sequential scan under a 3-step budget returns exactly the volumes
//     the source decodes, with nonzero evictions and peak residency within
//     the budget;
//   - with lookahead 2 the prefetcher covers every step after the first,
//     so the prefetch hit rate is >= 50%;
//   - IATF transfer functions and 4D region-growing masks are identical
//     between an unlimited-budget and a tight-budget StreamedSequence;
//   - perturbed replay (util/determinism.hpp): Tracker region growing on
//     the argon-bubble sequence digests bitwise identically across pool
//     widths {1, 4, hardware}, cold and warm caches (fresh vs reused
//     tight-budget sequence), and repeated runs — the dynamic half of the
//     IFET_DETERMINISTIC contract on Tracker::grow_step;
//   - fault mode: with every step failing once transiently, the retry
//     layer makes the scan bit-identical to the clean run (with nonzero
//     retries in the stats), and a permanently corrupt step under
//     --fail-policy=skip degrades to a gap instead of an abort.
#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>

#include "bench_util.hpp"
#include "core/iatf.hpp"
#include "core/tracking.hpp"
#include "flowsim/datasets.hpp"
#include "io/compressed.hpp"
#include "math/vec.hpp"
#include "parallel/thread_pool.hpp"
#include "stream/cache_manager.hpp"
#include "stream/fault_injection.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/alloc_guard.hpp"
#include "util/csv.hpp"
#include "util/determinism.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

// Counting operator new/delete for this binary: the warm-hit section below
// asserts the IFET_HOT cache lookup never allocates (the LRU refresh is a
// list splice, not erase+push_front; docs/STATIC_ANALYSIS.md).
IFET_ALLOC_GUARD_INSTALL();

namespace {

using namespace ifet;

bool volumes_equal(const VolumeF& a, const VolumeF& b) {
  if (!(a.dims() == b.dims())) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

bool masks_equal(const TrackResult& a, const TrackResult& b) {
  if (a.masks.size() != b.masks.size()) return false;
  for (const auto& [step, mask] : a.masks) {
    auto it = b.masks.find(step);
    if (it == b.masks.end()) return false;
    if (!(mask.dims() == it->second.dims())) return false;
    for (std::size_t i = 0; i < mask.size(); ++i) {
      if (mask[i] != it->second[i]) return false;
    }
  }
  return true;
}

TransferFunction1D train_iatf_tf(const VolumeSequence& sequence,
                                 int eval_step) {
  Iatf iatf(sequence);
  auto [vlo, vhi] = sequence.value_range();
  TransferFunction1D key(vlo, vhi);
  key.add_band(lerp(vlo, vhi, 0.6), vhi, 0.9, 0.05 * (vhi - vlo));
  iatf.add_key_frame(0, key);
  iatf.add_key_frame(sequence.num_steps() - 1, key);
  iatf.train(40);
  return iatf.evaluate(eval_step);
}

}  // namespace

int main() {
  std::cout << "=== perf: out-of-core streaming vs fully resident ===\n";

  SwirlingFlowConfig cfg;
  cfg.dims = Dims{32, 32, 32};
  cfg.num_steps = 16;
  auto source = std::make_shared<SwirlingFlowSource>(cfg);
  const std::string cvol_path = "/tmp/ifet_bench_stream.cvol";
  write_compressed_sequence(*source, cvol_path);
  auto reader = std::make_shared<CompressedFileSource>(cvol_path);

  const std::size_t step_bytes =
      static_cast<std::size_t>(cfg.dims.count()) * sizeof(float);
  const std::size_t budget = 3 * step_bytes;  // sequence is 16 steps

  bench::ShapeCheck check;

  // --- Steady-state allocation contract on the cache hit path. Run before
  // any StreamedSequence spins up its prefetcher thread, so the only code
  // that could allocate inside the guard is the lookup itself.
  {
    CacheManager cache(budget);
    for (int t = 0; t < 3; ++t) {
      cache.insert(t, reader->generate(t), false);
    }
    (void)cache.lookup(0);  // warm: first hit clears the prefetched flag
    DenyAllocScope guard;
    std::size_t hits = 0;
    for (int pass = 0; pass < 64; ++pass) {
      for (int t = 0; t < 3; ++t) {
        if (cache.lookup(t) != nullptr) ++hits;
      }
    }
    // Snapshot before expect(): its message strings allocate.
    const std::uint64_t hit_allocs = guard.allocations();
    check.expect(hits == 64 * 3, "every warm lookup is a hit");
    check.expect(hit_allocs == 0,
                 "warm CacheManager hits perform zero heap allocations");
  }

  // --- Sequential scan under budget: correctness + eviction + prefetch.
  StreamConfig stream_cfg;
  stream_cfg.budget_bytes = budget;
  stream_cfg.lookahead = 2;
  StreamedSequence streamed(reader, stream_cfg);

  Stopwatch scan_watch;
  bool scan_correct = true;
  for (int t = 0; t < cfg.num_steps; ++t) {
    if (!volumes_equal(streamed.step(t), reader->generate(t))) {
      scan_correct = false;
    }
  }
  const double scan_seconds = scan_watch.seconds();
  const StreamStats scan_stats = streamed.stats();

  Table table({"metric", "value"});
  table.add_row({"budget_steps", "3"});
  table.add_row({"lookahead", "2"});
  table.add_row({"scan_seconds", Table::num(scan_seconds, 4)});
  table.add_row({"evictions", std::to_string(scan_stats.evictions)});
  table.add_row({"prefetch_hit_rate",
                 Table::num(scan_stats.prefetch_hit_rate(), 3)});
  table.add_row({"peak_resident_bytes",
                 std::to_string(scan_stats.peak_bytes_resident)});
  table.print(std::cout);
  std::cout << scan_stats.summary() << "\n\n";

  CsvWriter csv(bench::output_dir() + "/perf_stream.csv",
                {"scan_seconds", "evictions", "prefetch_hit_rate"});
  csv.row(scan_seconds, scan_stats.evictions,
          scan_stats.prefetch_hit_rate());

  check.expect(scan_correct,
               "streamed scan returns the exact volumes the source decodes");
  check.expect(scan_stats.evictions > 0,
               "scanning 16 steps through a 3-step budget evicts");
  check.expect(scan_stats.peak_bytes_resident <= budget,
               "peak residency stays within the byte budget");
  check.expect(scan_stats.prefetch_hit_rate() >= 0.5,
               "prefetch hit rate >= 50% with lookahead 2");

  // --- Equivalence: IATF synthesis and 4D tracking, resident vs streamed.
  StreamedSequence resident(reader);
  StreamConfig tight_cfg;
  tight_cfg.budget_bytes = budget;
  StreamedSequence tight(reader, tight_cfg);

  const int eval_step = cfg.num_steps / 2;
  TransferFunction1D tf_resident = train_iatf_tf(resident, eval_step);
  TransferFunction1D tf_streamed = train_iatf_tf(tight, eval_step);
  bool tf_equal = true;
  for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
    if (tf_resident.opacity_entry(e) != tf_streamed.opacity_entry(e)) {
      tf_equal = false;
    }
  }
  check.expect(tf_equal,
               "IATF TF is identical under unlimited and 3-step budgets");

  FixedRangeCriterion criterion(0.5, 1.0);
  Mask seeds = source->feature_mask(eval_step);
  TrackResult track_resident =
      Tracker(resident, criterion).track_from_mask(seeds, eval_step);
  TrackResult track_streamed =
      Tracker(tight, criterion).track_from_mask(seeds, eval_step);
  check.expect(!track_resident.masks.empty(),
               "tracking from the labeled feature mask reaches some steps");
  check.expect(masks_equal(track_resident, track_streamed),
               "4D region growing is identical under a 3-step budget");
  std::cout << "tracking: " << tight.stats().summary() << "\n";

  // --- Perturbed-replay determinism check on Tracker::grow_step
  // (IFET_DETERMINISTIC): region growing over the argon-bubble sequence,
  // replayed across pool widths, cache temperatures, and repeated runs.
  {
    ArgonBubbleConfig argon_cfg;
    argon_cfg.dims = Dims{32, 32, 32};
    argon_cfg.num_steps = 12;
    auto argon = std::make_shared<ArgonBubbleSource>(argon_cfg);
    const int grow_step = argon_cfg.num_steps / 2;
    const double band_c = argon->ring_band_center(grow_step);
    const double band_h = argon->ring_band_half_width();
    FixedRangeCriterion argon_criterion(band_c - band_h, band_c + band_h);
    const Mask argon_seeds = argon->feature_mask(grow_step);
    const std::size_t argon_budget =
        3 * static_cast<std::size_t>(argon_cfg.dims.count()) * sizeof(float);

    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    ReplayCheck replay("tracker_grow_argon", {1, 4, hw});
    ReplayReport report = replay.run([&](const ReplayTrial& trial) {
      ThreadPool::ScopedGlobalWidth width(trial.threads);
      // A fresh tight-budget sequence per trial starts cold; warm trials
      // track twice through the same cache and digest the second result.
      StreamConfig replay_cfg;
      replay_cfg.budget_bytes = argon_budget;
      StreamedSequence argon_seq(argon, replay_cfg);
      Tracker tracker(argon_seq, argon_criterion);
      TrackResult grown = tracker.track_from_mask(argon_seeds, grow_step);
      if (trial.warm) {
        grown = tracker.track_from_mask(argon_seeds, grow_step);
      }
      DigestSink sink;
      for (const auto& [step, mask] : grown.masks) {  // std::map: sorted
        sink.pod(step);
        sink.span(mask.data().data(), mask.size());
      }
      return sink.value();
    });
    std::cout << report.summary();
    check.expect(report.ok,
                 "tracker grow on argon bubble digests identically across "
                 "pool widths and cache temperatures");
  }

  // --- Fault mode: transient faults are invisible behind the retry layer.
  auto flaky = std::make_shared<FaultInjectingSource>(
      reader, std::vector<FaultSpec>{
                  {FaultSpec::kAllSteps, FaultKind::kTransient, 1}});
  StreamConfig fault_cfg;
  fault_cfg.budget_bytes = budget;
  fault_cfg.lookahead = 2;
  fault_cfg.max_retries = 2;
  StreamedSequence faulted(flaky, fault_cfg);
  bool fault_correct = true;
  for (int t = 0; t < cfg.num_steps; ++t) {
    if (!volumes_equal(faulted.step(t), reader->generate(t))) {
      fault_correct = false;
    }
  }
  const StreamStats fault_stats = faulted.stats();
  std::cout << "faulted scan: " << fault_stats.summary() << "\n";
  check.expect(fault_correct,
               "scan with one transient fault per step is bit-identical");
  check.expect(fault_stats.retries >= static_cast<std::uint64_t>(
                                          cfg.num_steps),
               "every step's transient fault shows up as a retry");
  check.expect(fault_stats.load_failures == 0,
               "no step exhausts its retry budget");

  // --- Fault mode: a permanently corrupt step degrades, not aborts.
  auto corrupt = std::make_shared<FaultInjectingSource>(
      reader, std::vector<FaultSpec>{
                  {cfg.num_steps / 2, FaultKind::kCorrupt, 1}});
  StreamConfig skip_cfg;
  skip_cfg.budget_bytes = budget;
  skip_cfg.lookahead = 2;
  skip_cfg.max_retries = 1;
  skip_cfg.fail_policy = FailPolicy::kSkipStep;
  StreamedSequence degraded(corrupt, skip_cfg);
  bool skip_correct = true;
  int gaps = 0;
  for (int t = 0; t < cfg.num_steps; ++t) {
    const VolumeF* v = degraded.try_step(t);
    if (v == nullptr) {
      ++gaps;
    } else if (!volumes_equal(*v, reader->generate(t))) {
      skip_correct = false;
    }
  }
  const StreamStats skip_stats = degraded.stats();
  std::cout << "degraded scan: " << skip_stats.summary() << "\n";
  std::cout << "degraded scan: " << degraded.store().step_health().summary()
            << "\n";
  check.expect(skip_correct && gaps == 1,
               "skip policy yields exactly one gap, all other steps exact");
  check.expect(skip_stats.quarantined_steps == 1,
               "the corrupt step is quarantined");

  std::remove(cvol_path.c_str());
  return check.exit_code();
}
