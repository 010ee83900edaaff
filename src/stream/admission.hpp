// Per-client pin admission control for the shared streaming tier.
//
// Every StreamedSequence is a client of a StreamTier and pins a small
// window of steps ({t-1, t, t+1} by default; 4D region growing hints one
// that leans ahead of its sweep) on the tier's ONE CacheManager — the
// multi-tenant server (docs/SERVER.md) runs one client per session on a
// shared tier; a single-user sequence is the only client of a private
// tier with an unlimited quota. Pins are exempt from
// eviction, so without a per-client ceiling a single client hinting a huge
// window would pin the whole budget and starve every other tenant into
// perpetual reload. The AdmissionController is that ceiling: it keeps a
// per-client ledger of pinned steps and admits window pins center-out
// until the client's `pin_quota_bytes` is spent; the rest of the window is
// *denied a pin* — and nothing else. Denied steps still load, still cache,
// still return exact bytes; they are merely evictable. Admission therefore
// shapes residency (performance) and never data (correctness) — the
// property the tight-vs-infinite-budget bitwise equivalence checks in
// tests/server_test.cpp rest on.
//
// The controller also keeps the per-client fairness metrics the eviction
// report is built from: `reloads` counts accesses that found a previously
// loaded step evicted (the price a client actually paid to the sharing),
// `denied_pins` counts quota refusals.
//
// Locking: mutex_ is a leaf at MutexRank::kAdmission — above the
// CacheManager rank, so the hot note_access() is legal on IFET_HOT fetch
// paths, and deliberately never held across CacheManager calls: set_window
// returns the pin/unpin delta for the *caller* to apply, which keeps the
// 35 -> 30 inversion structurally impossible. Deltas computed in one order
// must reach the cache in that order, or a pressure clamp could unpin a
// step whose pin a window move admitted but had not applied yet; every
// caller therefore holds delta_mutex() (MutexRank::kPinDelta, outside the
// cache) from the admission call until its delta is applied.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/hot_path.hpp"
#include "util/ordered_mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ifet {

/// Per-client admission counters (monotonic except the two gauges).
struct AdmissionStats {
  std::uint64_t denied_pins = 0;  ///< Window steps refused a pin by quota.
  std::uint64_t reloads = 0;      ///< Accesses that found a step this client
                                  ///< had loaded before evicted again — the
                                  ///< client's realized eviction cost.
  std::uint64_t pressure_unpins = 0;  ///< Pins revoked by a pressure-driven
                                      ///< quota clamp (set_quota_scale).
  std::size_t pinned_steps = 0;   ///< Gauge: steps currently pinned.
  std::size_t pinned_bytes = 0;   ///< Gauge: bytes currently pinned.
};

/// Pin-set change computed by set_window()/release_client(); the caller
/// applies it to the CacheManager with the admission lock released.
struct WindowDelta {
  std::vector<int> pin;     ///< Newly admitted steps — pin these.
  std::vector<int> unpin;   ///< Steps that left the admitted set — unpin.
  std::vector<int> denied;  ///< Window steps refused by the quota.
};

class AdmissionController {
 public:
  /// `step_bytes` is the decoded payload size of one step (uniform across
  /// the sequence); `pin_quota_bytes` caps each client's pinned bytes
  /// (0 = unlimited); `num_steps` sizes the per-client access bitmaps.
  AdmissionController(std::size_t step_bytes, std::size_t pin_quota_bytes,
                      int num_steps);

  /// Admit a new client; returns its id (dense, never reused-while-active).
  int register_client() IFET_EXCLUDES(mutex_);

  /// Retire a client; returns the steps it still had admitted so the
  /// caller can unpin them.
  std::vector<int> release_client(int client) IFET_EXCLUDES(mutex_);

  /// Replace `client`'s window with [lo, hi], admitting steps nearest
  /// `center` first (ties: the earlier step) until the quota is spent.
  /// Returns the pin/unpin delta against the client's previous admitted
  /// set; `denied` lists the window steps the quota refused.
  WindowDelta set_window(int client, int lo, int hi, int center)
      IFET_EXCLUDES(mutex_);

  /// Hot-path bookkeeping for one fetch: when a previously loaded step is
  /// found non-resident, bumps the reload count. Alloc-free: the `seen`
  /// bitmap was sized at register_client.
  IFET_HOT void note_access(int client, int step, bool resident)
      IFET_EXCLUDES(mutex_);

  AdmissionStats client_stats(int client) const IFET_EXCLUDES(mutex_);

  /// Held by every caller of set_window / set_quota_scale /
  /// release_client until the returned delta is applied to the cache.
  OrderedMutex& delta_mutex() const IFET_RETURN_CAPABILITY(delta_mutex_) {
    return delta_mutex_;
  }

  std::size_t pin_quota_bytes() const { return pin_quota_bytes_; }
  std::size_t step_bytes() const { return step_bytes_; }

  /// Steps the quota admits per client at the CURRENT pressure scale
  /// (never below 1; num_steps when unlimited and unclamped).
  std::size_t quota_steps() const;

  /// The unscaled per-client quota in steps (what 100% restores to).
  std::size_t quota_steps_base() const;

  // --- Pressure coupling (stream/pressure.hpp) -----------------------------

  /// Scale every client's effective quota to `percent` (clamped to
  /// [1, 100]) and recompute each admitted set center-out against the
  /// client's remembered window — the exact set_window order, so restoring
  /// to 100 re-admits the same steps a fresh hint would (center first,
  /// ties to the earlier step). Returns one delta per affected client for
  /// the caller to apply to the CacheManager with the admission lock
  /// released, as always. Idempotent (a repeated scale returns no deltas);
  /// callers serialize scale changes (the one PressureMonitor does, under
  /// its kPressure mutex).
  std::vector<std::pair<int, WindowDelta>> set_quota_scale(int percent)
      IFET_EXCLUDES(mutex_);

  int quota_scale_percent() const {
    return quota_scale_percent_.load(std::memory_order_relaxed);
  }

  /// Pin demand at FULL quota: the steps all remembered windows would pin
  /// at 100%. This is the pressure signal — it deliberately ignores the
  /// live clamp, so clamping can never argue itself back below the exit
  /// threshold and oscillate the hysteresis. Alloc-free.
  IFET_HOT std::size_t demanded_pin_steps() const IFET_EXCLUDES(mutex_);

 private:
  struct Ledger {
    bool active = false;
    std::vector<int> admitted;       ///< Currently admitted (pinned) steps.
    std::vector<std::uint8_t> seen;  ///< step -> this client loaded it once.
    /// Last hinted window (set_window), so a quota rescale can replay the
    /// center-out admission without a fresh hint.
    bool has_window = false;
    int window_lo = 0;
    int window_hi = -1;
    int window_center = 0;
    AdmissionStats stats;
  };

  const std::size_t step_bytes_;
  const std::size_t pin_quota_bytes_;
  const int num_steps_;
  /// Pressure clamp in percent of the base quota (100 = unclamped).
  /// Atomic so the hot fetch path and quota_steps() read it lock-free.
  std::atomic<int> quota_scale_percent_{100};

  mutable OrderedMutex delta_mutex_{MutexRank::kPinDelta};
  mutable OrderedMutex mutex_{MutexRank::kAdmission};
  std::vector<Ledger> clients_ IFET_GUARDED_BY(mutex_);
};

}  // namespace ifet
