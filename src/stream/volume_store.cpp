#include "stream/volume_store.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "util/deadline.hpp"
#include "util/error.hpp"
#include "util/io_error.hpp"
#include "util/timer.hpp"

namespace ifet {

VolumeStore::VolumeStore(std::shared_ptr<const VolumeSource> source,
                         const VolumeStoreConfig& config)
    : source_(std::move(source)),
      config_(config),
      cache_(counters_, config.budget_bytes),
      prefetcher_(ThreadPool::global(), cache_, counters_,
                  [this](int step) {
                    return load_with_retry(step, /*prefetch_context=*/true);
                  }) {
  IFET_REQUIRE(source_ != nullptr, "VolumeStore requires a source");
  IFET_REQUIRE(source_->num_steps() > 0, "VolumeStore: empty source");
  IFET_REQUIRE(config_.lookahead >= 0,
               "VolumeStore: lookahead must be >= 0");
  IFET_REQUIRE(config_.max_retries >= 0,
               "VolumeStore: max_retries must be >= 0");
  IFET_REQUIRE(config_.retry_backoff_ms >= 0.0,
               "VolumeStore: retry_backoff_ms must be >= 0");
}

VolumeF VolumeStore::timed_load(int step, bool prefetch_context) {
  Stopwatch timer;
  // Decode into the buffer of a step nothing references any more, when
  // the cache keeps one and the source can reuse it.
  VolumeF spare = cache_.take_spare();
  const bool offered = !spare.empty();
  VolumeF v = source_->generate_into(step, spare);
  IFET_REQUIRE(v.dims() == source_->dims(),
               "VolumeStore: source produced wrong dimensions");
  const double seconds = timer.seconds();
  if (offered && spare.empty()) counters_.recycled_loads.add();
  if (!prefetch_context) {
    counters_.demand_loads.add();
    counters_.demand_decode_seconds.add(seconds);
  }
  OrderedMutexLock lock(mutex_);
  ++total_loads_;
  return v;
}

VolumeF VolumeStore::load_with_retry(int step, bool prefetch_context) {
  for (int attempt = 0;; ++attempt) {
    try {
      return timed_load(step, prefetch_context);
    } catch (const DeadlineExceeded&) {
      // Ordering contract (util/io_error.hpp): a timeout is NOT a data
      // failure — never retried against the budget that just expired and
      // never quarantines the (healthy) step.
      throw;
    } catch (const NotFoundError&) {
      // A missing step will not appear by retrying.
      note_failure(step, std::current_exception());
      throw;
    } catch (const IoError& error) {
      if (dynamic_cast<const ChecksumMismatchError*>(&error) != nullptr) {
        counters_.checksum_failures.add();
      }
      if (attempt >= config_.max_retries) {
        note_failure(step, std::current_exception());
        throw;
      }
      counters_.retries.add();
      if (config_.retry_backoff_ms > 0.0) {
        // Deterministic exponential backoff, no jitter: base * 2^attempt —
        // capped by the caller's remaining deadline budget (unlimited for
        // prefetch workers and non-server callers), and a spent budget
        // raises the typed DeadlineExceeded instead of sleeping at all.
        const Deadline deadline = DeadlineScope::current();
        deadline.check("VolumeStore retry backoff");
        const double ms = std::min(
            config_.retry_backoff_ms *
                static_cast<double>(std::uint64_t{1} << attempt),
            deadline.remaining_ms());
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(ms));
      }
    }
  }
}

void VolumeStore::note_failure(int step, std::exception_ptr error) {
  counters_.load_failures.add();
  OrderedMutexLock lock(mutex_);
  quarantine_[step] = error;
}

std::shared_ptr<const VolumeF> VolumeStore::fetch(int step) {
  IFET_REQUIRE(step >= 0 && step < num_steps(),
               "VolumeStore::fetch: step out of range");
  const auto rethrow_if_quarantined = [&] {
    std::exception_ptr quarantined;
    {
      OrderedMutexLock lock(mutex_);
      auto it = quarantine_.find(step);
      if (it != quarantine_.end()) quarantined = it->second;
    }
    if (quarantined) std::rethrow_exception(quarantined);
  };
  rethrow_if_quarantined();

  // The caller's scoped deadline (unlimited when no scope is installed —
  // see util/deadline.hpp) bounds both blocking paths: the in-flight
  // prefetch wait and the demand decode below. A timeout is not a data
  // failure: it never quarantines, and the same fetch succeeds later with
  // a fresh budget.
  const Deadline deadline = DeadlineScope::current();
  auto volume = cache_.lookup(step);
  if (!volume && prefetcher_.wait(step, deadline)) {
    // An in-flight prefetch covered this step; don't re-count hit/miss.
    volume = cache_.lookup_quiet(step);
  }
  if (!volume) {
    // Collect (and discard) any captured async-load failure so a stale
    // record cannot shadow this demand attempt — which retries from a
    // fresh budget on the calling thread and reports its own outcome.
    prefetcher_.take_failure(step);
    // A prefetch that exhausted its retries while this fetch looked the
    // step up or waited on it has already fenced the step: report that
    // verdict instead of reading the bad step again.
    rethrow_if_quarantined();
    deadline.check("VolumeStore demand load");
    volume = cache_.insert(step,
                           load_with_retry(step, /*prefetch_context=*/false),
                           /*from_prefetch=*/false);
    // Re-check AFTER the decode: a budget blown inside the load gives up
    // here instead of doing more work on borrowed time. The bytes were
    // inserted first, so a retry with a fresh budget hits the cache.
    deadline.check("VolumeStore demand load (completed late)");
  }

  int direction;
  {
    OrderedMutexLock lock(mutex_);
    direction = step >= last_fetched_step_ ? 1 : -1;
    last_fetched_step_ = step;
  }
  for (int k = 1; k <= config_.lookahead; ++k) {
    // Lookahead is advisory; don't spend a caller's exhausted budget on it
    // (matters on the synchronous prefetch path, which decodes inline).
    if (deadline.expired()) break;
    prefetch(step + direction * k);
  }
  return volume;
}

void VolumeStore::prefetch(int step) {
  if (step < 0 || step >= num_steps()) return;
  if (is_quarantined(step)) return;  // fenced off; don't re-load bad data
  if (config_.async_prefetch) {
    prefetcher_.schedule(step);
    return;
  }
  // Synchronous lookahead: deterministic single-threaded path for tests.
  if (cache_.resident(step)) return;
  try {
    cache_.insert(step, load_with_retry(step, /*prefetch_context=*/true),
                  /*from_prefetch=*/true);
  } catch (const DeadlineExceeded&) {
    // The caller's budget ran out during advisory lookahead: nothing is
    // recorded (the step is healthy); the caller's own next blocking
    // operation reports the timeout.
  } catch (const IoError&) {
    // Lookahead is advisory: the failure is recorded (quarantine + stats)
    // and surfaces when the step is actually fetched.
  }
}

std::shared_ptr<const BrickIndex> VolumeStore::brick_index(int step) {
  IFET_REQUIRE(step >= 0 && step < num_steps(),
               "VolumeStore::brick_index: step out of range");
  {
    OrderedMutexLock lock(mutex_);
    auto it = bricks_.find(step);
    if (it != bricks_.end()) return it->second;
  }
  // Metadata read / fallback build runs outside the mutex — the fallback
  // decodes a whole step. Racing builders for the same step are harmless:
  // first insert wins, the loser's (identical) index is dropped.
  std::shared_ptr<const BrickIndex> index = source_->brick_metadata(step);
  const bool from_container = index != nullptr;
  if (!from_container) {
    index = std::make_shared<const BrickIndex>(BrickIndex::build(*fetch(step)));
  }
  OrderedMutexLock lock(mutex_);
  ++(from_container ? brick_metadata_reads_ : brick_builds_);
  auto [pos, inserted] = bricks_.emplace(step, std::move(index));
  (void)inserted;
  return pos->second;
}

std::uint64_t VolumeStore::brick_metadata_reads() const {
  OrderedMutexLock lock(mutex_);
  return brick_metadata_reads_;
}

std::uint64_t VolumeStore::brick_builds() const {
  OrderedMutexLock lock(mutex_);
  return brick_builds_;
}

std::size_t VolumeStore::load_count() const {
  OrderedMutexLock lock(mutex_);
  return total_loads_;
}

StreamStats VolumeStore::stats() const {
  StreamStats out = cache_.stats();
  OrderedMutexLock lock(mutex_);
  out.quarantined_steps = quarantine_.size();
  return out;
}

std::vector<int> VolumeStore::quarantined_steps() const {
  std::vector<int> steps;
  {
    OrderedMutexLock lock(mutex_);
    steps.reserve(quarantine_.size());
    for (const auto& entry : quarantine_) steps.push_back(entry.first);
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

bool VolumeStore::is_quarantined(int step) const {
  OrderedMutexLock lock(mutex_);
  return quarantine_.count(step) != 0;
}

}  // namespace ifet
