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
// 35 -> 30 inversion structurally impossible. A client's deltas reach the
// cache in the order admission computed them because each StreamedSequence
// computes and applies its own under its window mutex (or in its
// destructor); the cache counts pins, so deltas of different clients
// commute.
#pragma once

#include <cstddef>
#include <cstdint>
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

  std::size_t pin_quota_bytes() const { return pin_quota_bytes_; }
  std::size_t step_bytes() const { return step_bytes_; }

 private:
  struct Ledger {
    bool active = false;
    std::vector<int> admitted;       ///< Currently admitted (pinned) steps.
    std::vector<std::uint8_t> seen;  ///< step -> this client loaded it once.
    AdmissionStats stats;
  };

  /// Steps the quota admits per client (num_steps when unlimited).
  std::size_t quota_steps() const;

  const std::size_t step_bytes_;
  const std::size_t pin_quota_bytes_;
  const int num_steps_;
  mutable OrderedMutex mutex_{MutexRank::kAdmission};
  std::vector<Ledger> clients_ IFET_GUARDED_BY(mutex_);
};

}  // namespace ifet
