// Deadline / cancellation token for the serving tier (docs/ROBUSTNESS.md,
// "Overload and deadlines").
//
// Every server command carries a time budget. The budget is stamped as an
// ABSOLUTE steady_clock point when the command is accepted (submit time),
// so time spent queued on the strand counts against it — a command that
// waited out its whole budget in the queue fails immediately instead of
// starting work it can no longer finish. A wait that runs out of budget
// raises the typed DeadlineExceeded (part of the IoError taxonomy,
// util/io_error.hpp) instead of blocking the strand forever.
//
// Plumbing is by scoped thread-local context, not parameters: the command
// vocabulary reaches blocking waits through interfaces that predate
// deadlines (VolumeSequence::step -> StreamedSequence -> VolumeStore ->
// Prefetcher), and threading a Deadline argument through every pipeline
// in between would churn every caller for a concern only the server has.
// SessionManager installs a DeadlineScope around command execution; any
// blocking wait below it consults Deadline::current(). Threads with no
// scope installed (prefetch workers, single-tenant pipelines, tests that
// never opted in) see the unlimited deadline and behave exactly as before
// — in particular an async prefetch keeps loading after its waiter timed
// out, so the bytes still land in cache for the retry.
//
// Determinism: reading the clock is inherently nondeterministic, which is
// why every clock read below carries an IFET_DET_ALLOW waiver — a
// deadline can change WHETHER a command completes (typed failure), never
// the bytes of a completed result. The shed/backpressure decision in the
// server deliberately does NOT consult Deadline/now(): it is a pure
// function of queue state (see server/session_manager.hpp).
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "util/hot_path.hpp"
#include "util/io_error.hpp"

namespace ifet {

/// Shared cancellation flag: cancel() makes every Deadline carrying the
/// source's token report expired at its next check. Cancellation is
/// checked at command boundaries and before blocking waits; it does not
/// interrupt a wait already in progress (the time budget bounds those).
class CancelSource {
 public:
  CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

  std::shared_ptr<const std::atomic<bool>> token() const { return flag_; }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Value-type budget token: an optional absolute expiry point plus an
/// optional cancellation token. Copyable, cheap, and safe to pass across
/// threads (the cancel flag is a shared atomic).
class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Default-constructed == unlimited: never expires, never cancels.
  Deadline() = default;

  static Deadline unlimited() { return Deadline{}; }

  /// Absolute deadline `ms` from now; ms <= 0 is already expired.
  static Deadline after_ms(double ms) {
    Deadline d;
    d.limited_ = true;
    IFET_DET_ALLOW("deadline stamping reads the clock; budgets gate "
                   "completion, never the bytes of a completed result");
    d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     ms > 0.0 ? ms : 0.0));
    return d;
  }

  static Deadline at(Clock::time_point when) {
    Deadline d;
    d.limited_ = true;
    d.when_ = when;
    return d;
  }

  /// Attach a cancellation token (see CancelSource).
  Deadline with_cancel(std::shared_ptr<const std::atomic<bool>> token) const {
    Deadline d = *this;
    d.cancel_ = std::move(token);
    return d;
  }

  /// Whether this deadline can ever expire (time-limited or cancelable).
  bool limited() const { return limited_ || cancel_ != nullptr; }

  bool cancelled() const {
    return cancel_ != nullptr && cancel_->load(std::memory_order_relaxed);
  }

  bool expired() const {
    if (cancelled()) return true;
    if (!limited_) return false;
    IFET_DET_ALLOW("expiry checks read the clock; a timeout yields a typed "
                   "DeadlineExceeded, never different result bytes");
    return Clock::now() >= when_;
  }

  /// Remaining budget in milliseconds (+inf when unlimited, 0 when
  /// expired or cancelled).
  double remaining_ms() const {
    if (cancelled()) return 0.0;
    if (!limited_) return std::numeric_limits<double>::infinity();
    IFET_DET_ALLOW("remaining-budget reads the clock; used only to cap "
                   "sleeps and waits, never to derive result bytes");
    const auto left = std::chrono::duration<double, std::milli>(
        when_ - Clock::now());
    return left.count() > 0.0 ? left.count() : 0.0;
  }

  Clock::time_point when() const { return when_; }

  /// Raise the typed DeadlineExceeded when the budget is gone. `what`
  /// names the wait that gave up (for the client-visible error text).
  void check(const char* what) const {
    if (!limited()) return;
    if (expired()) {
      throw DeadlineExceeded(std::string("deadline exceeded: ") + what +
                             (cancelled() ? " (cancelled)" : ""));
    }
  }

  /// Perform ONE bounded block on `cv` (the caller re-checks its predicate
  /// in its own loop, where guarded-member access is visible to the
  /// thread-safety analysis). Time-limited deadlines wait until the expiry
  /// point; cancel-only deadlines poll at a coarse period (cancellation is
  /// a teardown courtesy, not a latency contract); unlimited deadlines
  /// block exactly like a plain cv wait.
  template <typename Cv, typename Lockable>
  void wait_once(Cv& cv, Lockable& lock) const {
    if (limited_) {
      cv.wait_until(lock, when_);
    } else if (cancel_ != nullptr) {
      cv.wait_for(lock, std::chrono::milliseconds(50));
    } else {
      cv.wait(lock);
    }
  }

 private:
  Clock::time_point when_{};
  bool limited_ = false;
  std::shared_ptr<const std::atomic<bool>> cancel_;
};

/// RAII thread-local deadline context. The innermost live scope on the
/// current thread is what Deadline::current() answers; scopes nest (an
/// inner scope may tighten, and at destruction the outer one is visible
/// again). The thread-local itself is a raw pointer to the stack frame —
/// trivially destructible, so it is safe through program teardown like
/// detail::held_mutex_ranks().
class DeadlineScope {
 public:
  explicit DeadlineScope(Deadline deadline)
      : deadline_(std::move(deadline)), previous_(top()) {
    top() = this;
  }
  ~DeadlineScope() { top() = previous_; }

  DeadlineScope(const DeadlineScope&) = delete;
  DeadlineScope& operator=(const DeadlineScope&) = delete;

  /// The calling thread's innermost scoped deadline; unlimited when no
  /// scope is installed (prefetch workers, non-server pipelines).
  static Deadline current() {
    const DeadlineScope* scope = top();
    return scope != nullptr ? scope->deadline_ : Deadline::unlimited();
  }

 private:
  static const DeadlineScope*& top() {
    thread_local const DeadlineScope* current_scope = nullptr;
    return current_scope;
  }

  Deadline deadline_;
  const DeadlineScope* previous_;
};

}  // namespace ifet
