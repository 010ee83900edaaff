// Counters surfaced by the out-of-core streaming subsystem.
//
// Every layer of src/stream/ feeds one shared StreamStats snapshot so a
// single struct answers "is the budget sized right, is prefetch hiding the
// decode latency, and how much is resident right now". ifet_tool prints
// the summary() line after streamed runs; perfbench reports the fields
// as its stream.* metrics. docs/STREAMING.md explains how to read each
// field.
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
  std::uint64_t inserts = 0;     ///< Entries admitted into the cache.
  std::uint64_t evictions = 0;   ///< Entries dropped to respect the budget.

  // Prefetch effectiveness.
  std::uint64_t prefetch_issued = 0;  ///< Async loads scheduled.
  std::uint64_t prefetch_hits = 0;    ///< Misses covered by a prefetch
                                      ///< (completed or awaited in flight).
  std::uint64_t demand_loads = 0;     ///< Misses the caller decoded itself.

  // Derived-product memoization (histograms, cumulative histograms,
  // synthesized transfer functions).
  std::uint64_t derived_hits = 0;
  std::uint64_t derived_misses = 0;

  // Residency (bytes of decoded volume payload).
  std::size_t budget_bytes = 0;         ///< 0 = unlimited.
  std::size_t bytes_resident = 0;
  std::size_t peak_bytes_resident = 0;
  std::size_t steps_resident = 0;
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
  std::uint64_t checksum_verified = 0;    ///< Payloads with a matching CRC.
  std::uint64_t checksum_unverified = 0;  ///< Legacy checksum-less payloads.
  std::uint64_t checksum_failures = 0;    ///< CRC mismatches observed.
  std::size_t quarantined_steps = 0;      ///< Steps currently quarantined.
  std::uint64_t skipped_fetches = 0;    ///< Quarantined fetches answered with
                                        ///< "no data" (FailPolicy::kSkipStep).
  std::uint64_t nearest_good_substitutions = 0;  ///< Quarantined fetches
                                        ///< served by a healthy neighbour.

  // Overload resilience (docs/ROBUSTNESS.md, "Overload and deadlines").
  std::uint64_t commands_rejected = 0;  ///< Submits refused at a full strand
                                        ///< queue (typed Overloaded).
  std::uint64_t commands_shed = 0;      ///< Queued sheddable commands dropped
                                        ///< to admit newer work (kShedOldest).
  std::uint64_t deadline_exceeded = 0;  ///< Commands that ran out of budget
                                        ///< (typed DeadlineExceeded).
  std::uint64_t pressure_transitions = 0;  ///< PressureMonitor enter+exit
                                           ///< transitions applied.

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

  /// Merge counters from another snapshot (residency fields take the
  /// other's values only when nonzero; used to combine cache + derived
  /// layers into one report).
  StreamStats& merge(const StreamStats& other);
};

/// Concurrently-mutable StreamStats counters for the clients of a
/// StreamTier (docs/SERVER.md).
///
/// The per-layer StreamStats snapshots above are copied under their owning
/// class's mutex, which is correct but gives every reader a lock
/// dependency on every writer. Each StreamedSequence keeps one
/// SharedStreamStats for its client, the tier one aggregate of overload
/// counters, and command threads bump them lock-free: every counter is an
/// independent relaxed atomic, so readers calling snapshot() (and
/// summary(), which is snapshot-based) never observe a torn half-written
/// counter no matter how many threads are mutating concurrently. Counters
/// are monotonic totals; cross-counter exactness (hits+misses == accesses
/// at one instant) is deliberately not promised — each field is exact, the
/// set is a snapshot of independently-advancing totals.
class SharedStreamStats {
 public:
  SharedStreamStats() = default;
  SharedStreamStats(const SharedStreamStats&) = delete;
  SharedStreamStats& operator=(const SharedStreamStats&) = delete;

  /// One sequence access: resident (hit) or loaded/awaited (miss).
  void count_access(bool hit) {
    (hit ? hits_ : misses_).fetch_add(1, std::memory_order_relaxed);
  }
  /// One derived-product request: memoized (hit) or computed (miss).
  void count_derived(bool hit) {
    (hit ? derived_hits_ : derived_misses_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  /// Quarantined fetch answered with "no data" (FailPolicy::kSkipStep).
  void count_skipped_fetch() {
    skipped_fetches_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Quarantined fetch served by a healthy neighbour (kNearestGood).
  void count_substitution() {
    nearest_good_substitutions_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Submit refused at a full strand queue (typed Overloaded response).
  void count_rejected() {
    commands_rejected_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Queued sheddable command dropped to admit newer work (kShedOldest).
  void count_shed() {
    commands_shed_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Command failed with the typed DeadlineExceeded.
  void count_deadline_exceeded() {
    deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
  }
  /// One pressure enter or exit transition applied (process aggregate).
  void count_pressure_transition() {
    pressure_transitions_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Consistent value-copy of the counters; safe to call while any number
  /// of server threads mutate.
  StreamStats snapshot() const;

  /// Snapshot-based one-liner: never reads a live counter twice.
  std::string summary() const { return snapshot().summary(); }

 private:
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> derived_hits_{0};
  std::atomic<std::uint64_t> derived_misses_{0};
  std::atomic<std::uint64_t> skipped_fetches_{0};
  std::atomic<std::uint64_t> nearest_good_substitutions_{0};
  std::atomic<std::uint64_t> commands_rejected_{0};
  std::atomic<std::uint64_t> commands_shed_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> pressure_transitions_{0};
};

}  // namespace ifet
