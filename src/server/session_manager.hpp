// Multi-tenant extraction/tracking service (docs/SERVER.md).
//
// A SessionManager hosts N concurrent client sessions over ONE shared
// streaming tier. Each session owns the full single-user state — a
// StreamedSequence on the tier (its window, its FailPolicy, its stats), a
// PaintingSession (data-space classifier) and a TfSession (IATF) — while
// the volumes, the byte budget, and the derived-product memoization are
// process-wide, so identical requests from different clients deduplicate
// and no client can pin the shared cache out from under the others.
//
// Execution model: each session is a strand — a FIFO command queue
// drained by at most one task at a time on the manager's command pool.
// Commands of one session are serialized (its classifier and IATF are
// single-user mutable state); commands of different sessions run in
// parallel. The command pool is a DEDICATED ThreadPool instance, never
// the global pool: command execution blocks on fetches that wait for
// prefetch loads, and those loads run on the global pool — strands
// occupying the global pool's workers while waiting on tasks queued
// behind them would deadlock. (Per-voxel parallel_for work inside a
// command still fans out on the global pool; nested drains make that
// safe.)
//
// Shared-DerivedCache hygiene: synthesized TFs are memoized under
// Iatf::params_hash(), which hashes the live network weights — so a
// retrained client simply moves to a new key and can never read another
// client's TFs. The manager refcounts the hash across sessions and
// retires a hash's entries from the cache only when the LAST session at
// that state moves away (tests/server_test.cpp pins the scoping). The
// tier histogram hash is never retired: every client shares it by
// construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <thread>
#include <unordered_map>

#include "parallel/thread_pool.hpp"
#include "server/command.hpp"
#include "session/session.hpp"
#include "session/tf_session.hpp"
#include "stream/stream_tier.hpp"
#include "stream/streamed_sequence.hpp"
#include "util/deadline.hpp"
#include "util/ordered_mutex.hpp"

namespace ifet {

/// What a full strand queue does with new work (docs/SERVER.md).
enum class BackpressurePolicy : std::uint8_t {
  kRejectNew,   ///< Refuse the incoming command (typed Overloaded).
  kShedOldest,  ///< Drop the oldest SHEDDABLE queued command to make room;
                ///< reject the incoming command when no queued command is
                ///< sheddable (mutations are never dropped once accepted).
};

/// The admission verdict for one incoming command.
enum class ShedAction : std::uint8_t {
  kAccept,     ///< Enqueue; the bound holds.
  kRejectNew,  ///< Queue full; refuse the incoming command.
  kShedOldest, ///< Queue full; drop the oldest sheddable queued command,
               ///< then enqueue the incoming one.
};

/// The shed/reject decision — a PURE function of queue state (depth,
/// bound, policy, whether a sheddable victim is queued), never wall clock
/// or load averages: under the determinism contract the same submission
/// sequence must shed the same commands on every run. Retry-after hints
/// are computed separately (they are advisory wall-clock estimates and
/// never feed back into this decision).
IFET_DETERMINISTIC ShedAction decide_backpressure(BackpressurePolicy policy,
                                                  std::size_t queue_depth,
                                                  std::size_t max_queue_depth,
                                                  bool queue_has_sheddable);

struct SessionManagerConfig {
  StreamTierConfig tier;
  /// Classifier configuration applied to every session.
  SessionConfig painting;
  /// IATF configuration applied to every session. Identical configs mean
  /// identical initial weights (seeded init), so freshly created sessions
  /// share one params hash until their training diverges.
  TfSessionConfig tf;
  /// Command pool width; 0 = hardware concurrency.
  std::size_t command_threads = 0;

  // --- Overload resilience (docs/ROBUSTNESS.md, "Overload and deadlines").
  /// Strand queue bound; 0 = unbounded (the legacy cooperative mode).
  std::size_t max_queue_depth = 0;
  /// Full-queue policy; only consulted when max_queue_depth > 0.
  BackpressurePolicy backpressure = BackpressurePolicy::kRejectNew;
  /// Budget stamped on commands that carry deadline_ms == 0; 0 = unlimited.
  double default_deadline_ms = 0.0;
  /// Stuck-strand watchdog sampling period; 0 disables the watchdog thread
  /// (watchdog_scan_now() still works for deterministic tests).
  double watchdog_interval_ms = 0.0;
  /// A running command is reported stuck when its elapsed time exceeds
  /// `watchdog_factor` times its deadline budget (unlimited-budget
  /// commands are never reported).
  double watchdog_factor = 4.0;
};

/// Per-session strand queue gauges (the overload flood test in
/// tests/stress/stress_server_test.cpp asserts peak_depth never exceeds
/// the configured bound).
struct SessionQueueStats {
  std::size_t depth = 0;          ///< Commands queued right now.
  std::size_t peak_depth = 0;     ///< High-water mark since creation.
  double ewma_service_ms = 0.0;   ///< Recent service time (the retry-after
                                  ///< hint's base rate).
};

/// Stuck-strand watchdog counters (docs/ROBUSTNESS.md). `stuck_observations`
/// counts scan-sightings, not distinct commands: one command overdue across
/// three scans counts three.
struct WatchdogReport {
  std::uint64_t scans = 0;
  std::uint64_t stuck_observations = 0;
  int last_session = -1;          ///< Session of the most overdue sighting.
  int last_kind = -1;             ///< CommandKind of that sighting.
  double last_overdue_ms = 0.0;   ///< How far past factor x budget it was.
};

class SessionManager {
 public:
  explicit SessionManager(std::shared_ptr<const VolumeSource> source,
                          const SessionManagerConfig& config = {});
  /// Drains every strand, then tears sessions down before the tier.
  ~SessionManager();

  SessionManager(const SessionManager&) = delete;
  SessionManager& operator=(const SessionManager&) = delete;

  /// Create a session with its own fail policy; returns its id.
  int create_session(FailPolicy fail_policy = FailPolicy::kThrow)
      IFET_EXCLUDES(mutex_);

  /// Drain the session's strand, release its derived-cache hash
  /// reference, unpin its window, and forget it.
  void close_session(int id) IFET_EXCLUDES(mutex_);

  /// Run one command synchronously on the calling thread. The
  /// deterministic reference path (isolated runs, tests); must not race
  /// submit() on the SAME session.
  ServerResult execute(int id, const Command& command);

  /// Enqueue a command on the session's strand; `done` (optional) runs on
  /// the command-pool thread right after the command.
  ///
  /// Backpressure contract (docs/SERVER.md): when the strand queue is at
  /// its configured bound the command may be refused — `done` is then
  /// invoked SYNCHRONOUSLY on the calling thread with a typed
  /// ServerStatus::kOverloaded result carrying a retry-after hint. Under
  /// kShedOldest the victim's `done` fires the same way. Every submitted
  /// command therefore gets exactly one completion — never a silent drop.
  /// The command's deadline budget is stamped here (absolute), so queue
  /// time counts against it.
  void submit(int id, Command command,
              std::function<void(const ServerResult&)> done = {});

  /// Block until the session's queue is empty and no command is running.
  void drain(int id);
  /// Drain every session.
  void drain_all();

  StreamTier& tier() { return tier_; }

  /// Per-session client counters (the session sequence's client_stats();
  /// the process-wide view is tier().stats()).
  StreamStats session_stats(int id) const;
  AdmissionStats session_admission(int id) const;
  std::size_t session_count() const IFET_EXCLUDES(mutex_);

  /// The session's strand queue gauges (depth / peak / service EWMA).
  SessionQueueStats session_queue(int id) const;

  /// One synchronous watchdog scan over every session (no lock held while
  /// the per-session execution atomics are sampled — the kWatchdog
  /// contract); returns the cumulative report. The background thread
  /// (watchdog_interval_ms > 0) calls exactly this.
  WatchdogReport watchdog_scan_now() IFET_EXCLUDES(mutex_);
  WatchdogReport watchdog_report() const IFET_EXCLUDES(watchdog_mutex_);

 private:
  struct ServerSession;

  std::shared_ptr<ServerSession> find(int id) const IFET_EXCLUDES(mutex_);
  /// Absolute deadline for `command` under the manager's default budget.
  Deadline stamp_deadline(const Command& command) const;
  ServerResult run_command(ServerSession& s, const Command& command);
  ServerResult run_command_noexcept(ServerSession& s, const Command& command,
                                    const Deadline& deadline);
  /// After a command: if the session's params hash moved, re-home its
  /// refcount and retire the old hash's cache entries when orphaned.
  void reconcile_tf_hash(ServerSession& s) IFET_EXCLUDES(mutex_);
  /// Drop one reference; returns the hash to invalidate (0 = none).
  std::uint64_t release_hash_locked(std::uint64_t hash)
      IFET_REQUIRES(mutex_);
  void drain_session(ServerSession& s);
  static void drain_wait(ServerSession& s);
  void watchdog_loop();
  void stop_watchdog();

  SessionManagerConfig config_;
  /// Declared before sessions_: sequences hold tier references, so the
  /// tier must outlive every session.
  StreamTier tier_;

  mutable OrderedMutex mutex_{MutexRank::kSessionManager};
  int next_id_ IFET_GUARDED_BY(mutex_) = 0;
  std::map<int, std::shared_ptr<ServerSession>> sessions_
      IFET_GUARDED_BY(mutex_);
  /// params_hash -> number of sessions whose IATF is at that state.
  std::unordered_map<std::uint64_t, int> tf_hash_refs_
      IFET_GUARDED_BY(mutex_);

  /// Stuck-strand watchdog (kWatchdog rank — a leaf; the scan samples the
  /// per-session atomics with NO lock held and only takes this mutex to
  /// fold its observations into the report).
  mutable OrderedMutex watchdog_mutex_{MutexRank::kWatchdog};
  std::condition_variable_any watchdog_cv_;
  bool watchdog_stop_ IFET_GUARDED_BY(watchdog_mutex_) = false;
  WatchdogReport watchdog_report_ IFET_GUARDED_BY(watchdog_mutex_);
  std::thread watchdog_thread_;

  /// Declared LAST: its destructor drains queued strand tasks, which
  /// reference sessions_ and tier_ above.
  ThreadPool command_pool_;
};

}  // namespace ifet
