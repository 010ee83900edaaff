#include "server/session_manager.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <utility>
#include <vector>

#include "core/tracking.hpp"
#include "io/checksum.hpp"
#include "render/camera.hpp"
#include "tf/transfer_function.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"
#include "util/timer.hpp"

namespace ifet {

namespace {

IFET_DETERMINISTIC std::uint32_t digest_tf(const TransferFunction1D& tf) {
  std::array<double, TransferFunction1D::kEntries> opacities{};
  for (int e = 0; e < TransferFunction1D::kEntries; ++e) {
    opacities[static_cast<std::size_t>(e)] = tf.opacity_entry(e);
  }
  return crc32(opacities.data(), sizeof(opacities));
}

IFET_DETERMINISTIC std::uint32_t digest_volume(const VolumeF& volume) {
  auto data = volume.data();
  return crc32(data.data(), data.size() * sizeof(float));
}

IFET_DETERMINISTIC std::uint32_t digest_cumhist(const CumulativeHistogram& ch) {
  std::vector<double> fractions;
  fractions.reserve(static_cast<std::size_t>(ch.bins()));
  const double width = (ch.hi() - ch.lo()) / ch.bins();
  for (int b = 0; b < ch.bins(); ++b) {
    fractions.push_back(ch.fraction_at(ch.lo() + (b + 0.5) * width));
  }
  return crc32(fractions.data(), fractions.size() * sizeof(double));
}

IFET_DETERMINISTIC std::uint32_t digest_track(const TrackResult& result) {
  std::uint32_t digest = 0;
  for (const auto& [step, mask] : result.masks) {
    digest = crc32(&step, sizeof(step), digest);
    auto data = mask.data();
    digest = crc32(data.data(), data.size(), digest);
  }
  return digest;
}

/// Steady-clock nanoseconds for the watchdog's busy-window arithmetic.
std::int64_t watchdog_now_ns() {
  IFET_DET_ALLOW("watchdog sampling reads the clock; it only reports "
                 "overdue commands, never alters results");
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

ShedAction decide_backpressure(BackpressurePolicy policy,
                               std::size_t queue_depth,
                               std::size_t max_queue_depth,
                               bool queue_has_sheddable) {
  if (max_queue_depth == 0 || queue_depth < max_queue_depth) {
    return ShedAction::kAccept;
  }
  if (policy == BackpressurePolicy::kShedOldest && queue_has_sheddable) {
    return ShedAction::kShedOldest;
  }
  return ShedAction::kRejectNew;
}

struct SessionManager::ServerSession {
  int id = -1;
  // Declaration order is the lifetime contract: painting/tf hold
  // references into *sequence, so it is declared first (destroyed last).
  std::unique_ptr<StreamedSequence> sequence;
  std::unique_ptr<PaintingSession> painting;
  std::unique_ptr<TfSession> tf;
  /// Params hash this session holds a tf_hash_refs_ reference for.
  /// Written only under the manager's mutex_, and only by this session's
  /// own (serialized) command stream or create/close.
  std::uint64_t tf_hash = 0;

  /// One accepted strand entry: the command, its ABSOLUTE deadline
  /// (stamped at accept, so queue time counts), the relative budget the
  /// watchdog compares elapsed time against, and the completion callback.
  struct QueuedCommand {
    Command command;
    Deadline deadline;
    double budget_ms = 0.0;
    std::function<void(const ServerResult&)> done;
  };

  // The strand: per-session FIFO queue drained by at most one pool task.
  OrderedMutex strand{MutexRank::kServerStrand};
  std::condition_variable_any idle;
  std::deque<QueuedCommand> queue IFET_GUARDED_BY(strand);
  bool running IFET_GUARDED_BY(strand) = false;
  std::size_t peak_depth IFET_GUARDED_BY(strand) = 0;
  /// Recent service time (EWMA, 0.8/0.2) — the retry-after hint's base.
  double ewma_service_ms IFET_GUARDED_BY(strand) = 0.0;

  // Watchdog sampling window, published by the drain loop and read
  // lock-free by watchdog_scan_now(). busy_since_ns is the latch: 0 means
  // idle; kind and budget are stored BEFORE it (release) so a scan that
  // observes a nonzero timestamp sees a consistent triple.
  std::atomic<std::int64_t> busy_since_ns{0};
  std::atomic<std::int64_t> busy_budget_ns{0};  ///< 0 = unlimited budget.
  std::atomic<int> busy_kind{-1};
};

SessionManager::SessionManager(std::shared_ptr<const VolumeSource> source,
                               const SessionManagerConfig& config)
    : config_(config),
      tier_(std::move(source), config.tier),
      command_pool_(config.command_threads) {
  if (config_.watchdog_interval_ms > 0.0) {
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }
}

SessionManager::~SessionManager() {
  // Stop the watchdog before draining: its scan walks sessions_ and must
  // not race the teardown below.
  stop_watchdog();
  drain_all();
  // No strand task can be queued or running past shutdown(); destroying
  // the sessions (and then tier_) is now single-threaded.
  command_pool_.shutdown();
  OrderedMutexLock lock(mutex_);
  sessions_.clear();
}

int SessionManager::create_session(FailPolicy fail_policy) {
  auto session = std::make_shared<ServerSession>();
  session->sequence = std::make_unique<StreamedSequence>(
      tier_, /*pin_radius=*/1, fail_policy);
  session->painting =
      std::make_unique<PaintingSession>(*session->sequence, config_.painting);
  session->tf = std::make_unique<TfSession>(*session->sequence, config_.tf);
  session->tf_hash = session->tf->iatf().params_hash();

  OrderedMutexLock lock(mutex_);
  session->id = next_id_++;
  ++tf_hash_refs_[session->tf_hash];
  const int id = session->id;
  sessions_.emplace(id, std::move(session));
  return id;
}

void SessionManager::close_session(int id) {
  auto session = find(id);
  drain_wait(*session);
  std::uint64_t to_invalidate = 0;
  {
    OrderedMutexLock lock(mutex_);
    sessions_.erase(id);
    to_invalidate = release_hash_locked(session->tf_hash);
  }
  if (to_invalidate != 0) tier_.derived().invalidate(to_invalidate);
  // `session` (usually the last reference) dies here; the sequence
  // destructor unpins the client's window on the shared cache.
}

std::shared_ptr<SessionManager::ServerSession> SessionManager::find(
    int id) const {
  OrderedMutexLock lock(mutex_);
  auto it = sessions_.find(id);
  IFET_REQUIRE(it != sessions_.end(),
               "SessionManager: unknown session id " + std::to_string(id));
  return it->second;
}

std::size_t SessionManager::session_count() const {
  OrderedMutexLock lock(mutex_);
  return sessions_.size();
}

StreamStats SessionManager::session_stats(int id) const {
  return find(id)->sequence->client_stats().snapshot();
}

AdmissionStats SessionManager::session_admission(int id) const {
  return find(id)->sequence->admission_stats();
}

std::uint64_t SessionManager::release_hash_locked(std::uint64_t hash) {
  auto it = tf_hash_refs_.find(hash);
  if (it == tf_hash_refs_.end()) return 0;
  if (--it->second > 0) return 0;
  tf_hash_refs_.erase(it);
  // Another session may still be AT this hash's entries via the tier
  // histogram key — those use hist_params(), which is never a network
  // hash, but guard anyway: retiring the histogram key would drop
  // products every client shares.
  if (hash == tier_.hist_params()) return 0;
  return hash;
}

void SessionManager::reconcile_tf_hash(ServerSession& s) {
  const std::uint64_t now = s.tf->iatf().params_hash();
  if (now == s.tf_hash) return;
  std::uint64_t to_invalidate = 0;
  {
    OrderedMutexLock lock(mutex_);
    // Acquire the new state before releasing the old: if they were equal
    // the refcount must never transiently hit zero (it cannot — equality
    // is checked above — but the order also keeps a concurrent session at
    // the SAME old hash safe from a spurious retirement).
    ++tf_hash_refs_[now];
    to_invalidate = release_hash_locked(s.tf_hash);
    s.tf_hash = now;
  }
  // Invalidation runs with the registry lock released; entries under the
  // retired hash are unreachable (no live session can re-derive the key).
  if (to_invalidate != 0) tier_.derived().invalidate(to_invalidate);
}

ServerResult SessionManager::run_command(ServerSession& s,
                                         const Command& command) {
  ServerResult result;
  switch (command.kind) {
    case CommandKind::kPaint:
      result.value = static_cast<double>(
          s.painting->paint(command.step, command.stroke));
      break;
    case CommandKind::kSelectUnwanted:
      result.value = static_cast<double>(s.painting->select_unwanted_region(
          command.step, command.box_lo, command.box_hi));
      break;
    case CommandKind::kTrainClassifier:
      result.value = s.painting->train_epochs(command.epochs);
      break;
    case CommandKind::kClassify: {
      const VolumeF feedback = s.painting->feedback_volume(command.step);
      result.digest = digest_volume(feedback);
      break;
    }
    case CommandKind::kSetKeyFrame: {
      auto [vlo, vhi] = s.sequence->value_range();
      TransferFunction1D key(vlo, vhi);
      const double span = vhi - vlo;
      key.add_band(vlo + command.band_lo * span, vlo + command.band_hi * span,
                   command.band_peak, command.band_skirt * span);
      s.tf->set_key_frame(command.step, key);
      result.digest = digest_tf(key);
      break;
    }
    case CommandKind::kTrainTf:
      result.value = s.tf->train_epochs(command.epochs);
      break;
    case CommandKind::kQueryTf: {
      // Through the SHARED DerivedCache: identical network states (same
      // params hash) dedup across clients; the client counters pointer
      // attributes the hit/miss to this client too.
      auto tf = tier_.derived().transfer_function(
          command.step, s.tf->iatf().params_hash(),
          [&]() -> TransferFunction1D {
            return s.tf->current_tf(command.step);
          },
          &s.sequence->client_stats());
      result.digest = digest_tf(*tf);
      break;
    }
    case CommandKind::kHistogram: {
      const CumulativeHistogram& ch =
          s.sequence->cumulative_histogram(command.step);
      result.digest = digest_cumhist(ch);
      result.value = static_cast<double>(ch.bins());
      break;
    }
    case CommandKind::kTrack: {
      AdaptiveTfCriterion criterion(s.tf->iatf(), command.opacity_cut,
                                    &tier_.derived());
      TrackerConfig tracker_config;
      tracker_config.min_step = command.track_min_step;
      tracker_config.max_step = command.track_max_step;
      Tracker tracker(*s.sequence, criterion, tracker_config);
      const TrackResult tracked = tracker.track(command.seed, command.step);
      result.digest = digest_track(tracked);
      double voxels = 0.0;
      for (const auto& [step, mask] : tracked.masks) {
        voxels += static_cast<double>(tracked.voxels_at(step));
      }
      result.value = voxels;
      break;
    }
    case CommandKind::kRender: {
      const Camera camera(command.azimuth, command.elevation,
                          command.distance);
      RenderSettings settings;
      settings.width = command.image_size;
      settings.height = command.image_size;
      RenderStats stats;
      const ImageRgb8 frame =
          s.tf->preview(command.step, camera, settings, {}, &stats);
      result.digest = crc32(frame.pixels.data(), frame.pixels.size());
      result.bricks_total = stats.bricks_total;
      result.bricks_active = stats.bricks_active;
      result.skip_rate = stats.skip_rate();
      break;
    }
    case CommandKind::kHintWindow:
      s.sequence->hint_window(command.window_lo, command.window_hi);
      break;
  }
  return result;
}

ServerResult SessionManager::run_command_noexcept(ServerSession& s,
                                                  const Command& command,
                                                  const Deadline& deadline) {
  ServerResult result;
  try {
    // Every blocking wait below (prefetch waits, retry backoffs, demand
    // loads) consults this scope; a command that already waited out its
    // budget in the queue fails typed right here, before any work.
    DeadlineScope scope(deadline);
    deadline.check("command start");
    result = run_command(s, command);
  } catch (const DeadlineExceeded& e) {
    result = ServerResult{};
    result.ok = false;
    result.status = ServerStatus::kDeadlineExceeded;
    result.error = e.what();
    s.sequence->count(&StreamCounters::deadline_exceeded);
  } catch (const std::exception& e) {
    result = ServerResult{};
    result.ok = false;
    result.status = ServerStatus::kError;
    result.error = e.what();
  }
  // Training (or a failed command that got partway) may have moved the
  // session's network state; keep the shared-cache refcounts truthful.
  reconcile_tf_hash(s);
  return result;
}

Deadline SessionManager::stamp_deadline(const Command& command) const {
  const double budget_ms = command.deadline_ms > 0.0
                               ? command.deadline_ms
                               : config_.default_deadline_ms;
  return budget_ms > 0.0 ? Deadline::after_ms(budget_ms)
                         : Deadline::unlimited();
}

ServerResult SessionManager::execute(int id, const Command& command) {
  auto session = find(id);
  return run_command_noexcept(*session, command, stamp_deadline(command));
}

void SessionManager::submit(int id, Command command,
                            std::function<void(const ServerResult&)> done) {
  auto session = find(id);

  ServerSession::QueuedCommand item;
  item.budget_ms = command.deadline_ms > 0.0 ? command.deadline_ms
                                             : config_.default_deadline_ms;
  item.deadline = stamp_deadline(command);
  item.command = std::move(command);
  item.done = std::move(done);

  bool start = false;
  ShedAction action = ShedAction::kAccept;
  double retry_after_ms = 0.0;
  ServerSession::QueuedCommand victim;
  bool have_victim = false;
  {
    OrderedMutexLock lock(session->strand);
    // Oldest sheddable entry, if any (also answers "is one queued" for the
    // pure decision function). An explicit loop, not find_if: the
    // thread-safety analysis must see the guarded queue accessed under
    // the lock, which lambdas hide.
    auto victim_it = session->queue.begin();
    while (victim_it != session->queue.end() &&
           !command_is_sheddable(victim_it->command.kind)) {
      ++victim_it;
    }
    const bool has_sheddable = victim_it != session->queue.end();
    action = decide_backpressure(config_.backpressure, session->queue.size(),
                                 config_.max_queue_depth, has_sheddable);
    if (action != ShedAction::kAccept) {
      // Advisory backlog estimate: depth x recent service time (floored so
      // a cold session still suggests a nonzero backoff). Computed here,
      // OUTSIDE decide_backpressure — hints are wall-clock-ish estimates
      // and must never feed back into the deterministic decision.
      retry_after_ms = static_cast<double>(session->queue.size()) *
                       std::max(session->ewma_service_ms, 1.0);
    }
    if (action == ShedAction::kShedOldest) {
      victim = std::move(*victim_it);
      session->queue.erase(victim_it);
      have_victim = true;
    }
    if (action != ShedAction::kRejectNew) {
      session->queue.push_back(std::move(item));
      session->peak_depth =
          std::max(session->peak_depth, session->queue.size());
      if (!session->running) {
        session->running = true;
        start = true;
      }
    }
  }

  // Completion callbacks run with the strand lock RELEASED: a callback
  // that re-submits (a client retrying immediately) must not re-enter the
  // strand mutex.
  if (have_victim) {
    session->sequence->count(&StreamCounters::commands_shed);
    if (victim.done) {
      ServerResult shed;
      shed.ok = false;
      shed.status = ServerStatus::kOverloaded;
      shed.retry_after_ms = retry_after_ms;
      shed.error = "shed from full strand queue by newer work";
      victim.done(shed);
    }
  }
  if (action == ShedAction::kRejectNew) {
    session->sequence->count(&StreamCounters::commands_rejected);
    if (item.done) {
      ServerResult refused;
      refused.ok = false;
      refused.status = ServerStatus::kOverloaded;
      refused.retry_after_ms = retry_after_ms;
      refused.error = "strand queue full";
      item.done(refused);
    }
    return;
  }

  if (!start) return;
  try {
    // The shared_ptr capture keeps the session alive even across a racing
    // close_session (close drains first, so the queue is empty by then).
    command_pool_.post([this, session] { drain_session(*session); });
  } catch (const PoolShutdownError&) {
    // Submitting while the manager is tearing down: no drain task will
    // run, so the strand must not look busy to drain_wait.
    OrderedMutexLock lock(session->strand);
    session->running = false;
    session->idle.notify_all();
    throw;
  }
}

void SessionManager::drain_session(ServerSession& s) {
  // Runs on a command-pool worker; must not throw (run_command_noexcept
  // absorbs command errors into the result).
  for (;;) {
    ServerSession::QueuedCommand item;
    {
      OrderedMutexLock lock(s.strand);
      if (s.queue.empty()) {
        s.running = false;
        s.idle.notify_all();
        return;
      }
      item = std::move(s.queue.front());
      s.queue.pop_front();
    }
    // Publish the execution window for the watchdog: kind and budget
    // first, then the since-timestamp (release) as the "in progress"
    // latch a scan keys on.
    s.busy_kind.store(static_cast<int>(item.command.kind),
                      std::memory_order_relaxed);
    s.busy_budget_ns.store(
        static_cast<std::int64_t>(item.budget_ms * 1e6),
        std::memory_order_relaxed);
    s.busy_since_ns.store(watchdog_now_ns(), std::memory_order_release);
    Stopwatch watch;
    const ServerResult result =
        run_command_noexcept(s, item.command, item.deadline);
    s.busy_since_ns.store(0, std::memory_order_release);
    const double service_ms = watch.milliseconds();
    {
      OrderedMutexLock lock(s.strand);
      s.ewma_service_ms = s.ewma_service_ms == 0.0
                              ? service_ms
                              : 0.8 * s.ewma_service_ms + 0.2 * service_ms;
    }
    if (item.done) item.done(result);
  }
}

SessionQueueStats SessionManager::session_queue(int id) const {
  auto session = find(id);
  OrderedMutexLock lock(session->strand);
  SessionQueueStats out;
  out.depth = session->queue.size();
  out.peak_depth = session->peak_depth;
  out.ewma_service_ms = session->ewma_service_ms;
  return out;
}

WatchdogReport SessionManager::watchdog_scan_now() {
  std::vector<std::shared_ptr<ServerSession>> all;
  {
    OrderedMutexLock lock(mutex_);
    all.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) all.push_back(session);
  }
  // Sampling runs with NO lock held (the kWatchdog contract): a stuck
  // strand must never be able to stall the scan that would report it.
  const std::int64_t now_ns = watchdog_now_ns();
  std::uint64_t stuck = 0;
  int worst_session = -1;
  int worst_kind = -1;
  double worst_overdue_ms = 0.0;
  for (const auto& session : all) {
    const std::int64_t since =
        session->busy_since_ns.load(std::memory_order_acquire);
    if (since == 0) continue;
    const std::int64_t budget =
        session->busy_budget_ns.load(std::memory_order_relaxed);
    if (budget <= 0) continue;  // Unlimited budgets are never "stuck".
    const double overdue_ms =
        (static_cast<double>(now_ns - since) -
         config_.watchdog_factor * static_cast<double>(budget)) /
        1e6;
    if (overdue_ms <= 0.0) continue;
    ++stuck;
    if (overdue_ms > worst_overdue_ms) {
      worst_overdue_ms = overdue_ms;
      worst_session = session->id;
      worst_kind = session->busy_kind.load(std::memory_order_relaxed);
    }
  }
  OrderedMutexLock lock(watchdog_mutex_);
  ++watchdog_report_.scans;
  watchdog_report_.stuck_observations += stuck;
  if (worst_session != -1) {
    watchdog_report_.last_session = worst_session;
    watchdog_report_.last_kind = worst_kind;
    watchdog_report_.last_overdue_ms = worst_overdue_ms;
  }
  return watchdog_report_;
}

WatchdogReport SessionManager::watchdog_report() const {
  OrderedMutexLock lock(watchdog_mutex_);
  return watchdog_report_;
}

void SessionManager::watchdog_loop() {
  const auto interval =
      std::chrono::duration<double, std::milli>(config_.watchdog_interval_ms);
  for (;;) {
    {
      OrderedMutexLock lock(watchdog_mutex_);
      if (watchdog_stop_) return;
      watchdog_cv_.wait_for(watchdog_mutex_, interval);
      if (watchdog_stop_) return;
    }
    // A spurious early wake just scans early; the report stays monotonic.
    watchdog_scan_now();
  }
}

void SessionManager::stop_watchdog() {
  if (!watchdog_thread_.joinable()) return;
  {
    OrderedMutexLock lock(watchdog_mutex_);
    watchdog_stop_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_thread_.join();
}

void SessionManager::drain_wait(ServerSession& s) {
  OrderedMutexLock lock(s.strand);
  while (s.running || !s.queue.empty()) s.idle.wait(s.strand);
}

void SessionManager::drain(int id) { drain_wait(*find(id)); }

void SessionManager::drain_all() {
  std::vector<std::shared_ptr<ServerSession>> all;
  {
    OrderedMutexLock lock(mutex_);
    all.reserve(sessions_.size());
    for (const auto& [id, session] : sessions_) all.push_back(session);
  }
  for (const auto& session : all) drain_wait(*session);
}

}  // namespace ifet
