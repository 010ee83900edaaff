// Counters surfaced by the out-of-core streaming subsystem.
//
// StreamCounters is the one live counter set of a scope: a stream tier has
// exactly one, which VolumeStore, CacheManager, Prefetcher, DerivedCache
// and SessionManager add into, and each StreamedSequence keeps one more
// for its client view. StreamStats is the value snapshot:
// the counters plus the residency gauges the cache and store hold. It
// answers "is the budget sized right, is prefetch hiding the decode
// latency, and how much is resident right now". ifet_tool prints the
// summary() line after streamed runs; perfbench reports the fields as its
// stream.* metrics. docs/STREAMING.md explains how to read each field.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace ifet {

struct StreamStats {
  // Cache traffic.
  std::uint64_t hits = 0;        ///< Accesses served from resident entries.
  std::uint64_t misses = 0;      ///< Accesses that required a load (demand
                                 ///< or waiting on an in-flight prefetch).
  std::uint64_t evictions = 0;   ///< Entries dropped to respect the budget.

  // Prefetch effectiveness.
  std::uint64_t prefetch_issued = 0;  ///< Async loads scheduled.
  std::uint64_t prefetch_hits = 0;    ///< Misses covered by a prefetch
                                      ///< (completed or awaited in flight).
  std::uint64_t demand_loads = 0;     ///< Misses the caller decoded itself.
  std::uint64_t recycled_loads = 0;   ///< Loads (demand or prefetch) that
                                      ///< decoded into the buffer of an
                                      ///< evicted step instead of a fresh
                                      ///< one.

  // Derived-product memoization (histograms, cumulative histograms,
  // synthesized transfer functions).
  std::uint64_t derived_hits = 0;
  std::uint64_t derived_misses = 0;

  // Residency gauges (bytes of decoded volume payload), read from the
  // cache when the snapshot is taken.
  std::size_t budget_bytes = 0;         ///< 0 = unlimited.
  std::size_t bytes_resident = 0;
  std::size_t peak_bytes_resident = 0;
  std::size_t pinned_steps = 0;

  // Decode latency (seconds spent in VolumeSource::generate / decompress).
  double demand_decode_seconds = 0.0;
  double prefetch_decode_seconds = 0.0;

  // Robustness (docs/ROBUSTNESS.md).
  std::uint64_t retries = 0;            ///< Load attempts repeated after a
                                        ///< retryable IoError.
  std::uint64_t load_failures = 0;      ///< Loads that exhausted retries
                                        ///< (each quarantines its step).
  std::uint64_t prefetch_failures = 0;  ///< Async loads whose error was
                                        ///< captured for the next fetch.
  std::uint64_t checksum_failures = 0;  ///< Load attempts that failed a
                                        ///< CRC (ChecksumMismatchError).
  std::size_t quarantined_steps = 0;    ///< Gauge: steps quarantined now.
  std::uint64_t skipped_fetches = 0;    ///< Quarantined fetches a client's
                                        ///< FailPolicy::kSkipStep answered
                                        ///< with "no data".
  std::uint64_t nearest_good_substitutions = 0;  ///< Quarantined fetches a
                                        ///< client's kNearestGood served
                                        ///< from a healthy neighbour.

  // Overload resilience (docs/ROBUSTNESS.md, "Overload and deadlines").
  std::uint64_t commands_rejected = 0;  ///< Submits refused at a full strand
                                        ///< queue (typed Overloaded).
  std::uint64_t commands_shed = 0;      ///< Queued sheddable commands dropped
                                        ///< to admit newer work (kShedOldest).
  std::uint64_t deadline_exceeded = 0;  ///< Commands that ran out of budget
                                        ///< (typed DeadlineExceeded).

  /// Fraction of accesses served without any load.
  double hit_rate() const {
    const std::uint64_t total = hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(total);
  }

  /// Fraction of non-resident accesses that a prefetch covered — the
  /// headline "is lookahead working" number (acceptance target >= 0.5 for
  /// a sequential scan with lookahead >= 2).
  double prefetch_hit_rate() const {
    const std::uint64_t loads = prefetch_hits + demand_loads;
    return loads == 0 ? 0.0
                      : static_cast<double>(prefetch_hits) /
                            static_cast<double>(loads);
  }

  /// One-line human-readable summary (ifet_tool).
  std::string summary() const;
};

/// One monotonic total: a relaxed atomic, so adding is lock-free and
/// allocation-free from any thread (IFET_HOT paths included).
template <typename T>
class Total {
 public:
  void add(T n = T{1}) { value_.fetch_add(n, std::memory_order_relaxed); }
  T get() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<T> value_{};
};

/// The live counters of one scope (a tier or one client): one Total per
/// counter field of StreamStats, under the same name. Every total is
/// exact, but a snapshot taken while threads add is a set of
/// independently advancing totals, not one instant (hits + misses may
/// lag a concurrent access by one).
struct StreamCounters {
  Total<std::uint64_t> hits, misses, evictions;
  Total<std::uint64_t> prefetch_issued, prefetch_hits, demand_loads;
  Total<std::uint64_t> recycled_loads;
  Total<std::uint64_t> derived_hits, derived_misses;
  Total<double> demand_decode_seconds, prefetch_decode_seconds;
  Total<std::uint64_t> retries, load_failures, prefetch_failures;
  Total<std::uint64_t> checksum_failures;
  Total<std::uint64_t> skipped_fetches, nearest_good_substitutions;
  Total<std::uint64_t> commands_rejected, commands_shed, deadline_exceeded;

  /// Value copy of every counter; the gauges stay zero (the cache and the
  /// store fill theirs into their own stats()).
  StreamStats snapshot() const;
};

}  // namespace ifet
