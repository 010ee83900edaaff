// Memory-pressure monitor for the shared streaming tier (docs/ROBUSTNESS.md,
// "Overload and deadlines").
//
// Under multi-tenant load the quantity eviction cannot relieve is PINNED
// bytes: every client's admitted window is exempt from LRU, so enough
// concurrent wide windows can pin the whole budget and leave demand loads
// thrashing in whatever sliver remains. The monitor watches the ratio of
// pin DEMAND to the cache budget and, past a threshold, renegotiates the
// tier's allocations in a fixed cheapest-first order:
//
//   1. shed non-pinned derived products (recomputable, a few KiB each;
//      the tier histogram hash is exempt — every client shares it),
//   2. clamp every client's AdmissionController quota to 50%, revoking
//      pins center-out-last (each client keeps its current step).
//
// The cache budget itself is never renegotiated: shrinking it evicts,
// which is the bluntest relief and the first to cause reload storms.
//
// Release is HYSTERETIC: pressure engages when the demand reaches 0.85 of
// the budget and releases only at or below 0.65, and the signal is the
// demand at FULL quota — deliberately not the post-clamp pinned bytes,
// which the clamp itself shrinks (a monitor that measured its own relief
// would oscillate). On release quotas return to 100% and the revoked pins
// are re-admitted center-out from each client's remembered window. The
// thresholds and the clamp are constants (pressure.cpp); only `enabled`
// is configurable.
//
// Locking: transitions serialize on a kPressure (rank 15) mutex held
// ACROSS the admission (35) / cache (30) / derived (50) calls they make —
// legal, ascending — so enter/exit are atomic with respect to each other.
// The hot sample() takes no lock of its own: an atomic engaged flag plus
// one admission-leaf read.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "util/hot_path.hpp"
#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ifet {

class AdmissionController;
class CacheManager;
class DerivedCache;
struct StreamCounters;

struct PressureConfig {
  /// Master switch; disabled, the monitor is a cheap no-op and the tier
  /// behaves exactly as before (existing tests and benches stay bitwise).
  bool enabled = false;
};

/// Transition counters and gauges (tests and the overload bench).
struct PressureReport {
  bool engaged = false;
  std::uint64_t enters = 0;
  std::uint64_t exits = 0;
  std::uint64_t derived_shed = 0;    ///< Derived entries dropped on engages.
  std::uint64_t pins_clamped = 0;    ///< Pins revoked by quota clamps.
  std::uint64_t pins_restored = 0;   ///< Pins re-admitted on releases.
};

class PressureMonitor {
 public:
  /// `keep_params` is the derived-product hash shedding must spare (the
  /// tier histogram hash); `budget_bytes` is the tier's configured cache
  /// budget (0 = unlimited, which disables the signal); `step_bytes` the
  /// decoded payload of one step. Each enter or exit adds one
  /// pressure_transitions to `counters` (the tier's set).
  PressureMonitor(CacheManager& cache, AdmissionController& admission,
                  DerivedCache& derived, StreamCounters& counters,
                  std::uint64_t keep_params, std::size_t budget_bytes,
                  std::size_t step_bytes, const PressureConfig& config);

  PressureMonitor(const PressureMonitor&) = delete;
  PressureMonitor& operator=(const PressureMonitor&) = delete;

  /// The hot fast path: compare the current demand ratio against the
  /// hysteresis band. Returns +1 (should engage), -1 (should release) or
  /// 0 (no transition) without taking the transition lock — the common
  /// steady-state answer is 0 and costs one atomic read plus one
  /// admission-leaf lock.
  IFET_HOT int sample() const;

  /// Sample, then apply any indicated transition (the cold path, under
  /// the kPressure mutex). Safe to call from every command-drain loop.
  void poll() IFET_EXCLUDES(mutex_);

  bool engaged() const {
    return engaged_.load(std::memory_order_relaxed);
  }
  PressureReport report() const IFET_EXCLUDES(mutex_);

 private:
  void engage_locked() IFET_REQUIRES(mutex_);
  void release_locked() IFET_REQUIRES(mutex_);

  CacheManager& cache_;
  AdmissionController& admission_;
  DerivedCache& derived_;
  StreamCounters& counters_;
  const std::uint64_t keep_params_;
  const std::size_t budget_bytes_;
  const std::size_t step_bytes_;
  const PressureConfig config_;

  /// Read by the hot sample(); written only inside transitions.
  std::atomic<bool> engaged_{false};

  mutable OrderedMutex mutex_{MutexRank::kPressure};
  PressureReport report_ IFET_GUARDED_BY(mutex_);
};

}  // namespace ifet
