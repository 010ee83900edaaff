// The VolumeSequence every 4D consumer reads through.
//
// IATF synthesis, dataspace classification, 4D region growing, rendering
// and the painting session all ask a StreamedSequence for steps and
// histograms. Each StreamedSequence is one client of a StreamTier
// (stream/stream_tier.hpp), in one of two set-ups that run the same code:
//  * single user — StreamedSequence(source, config) builds a private tier
//    (unlimited pin quota) and is its only client; budget 0
//    is the fully-resident path;
//  * multi-tenant — StreamedSequence(tier, pin_radius, fail_policy) joins a
//    shared tier; the server's SessionManager runs one per session.
// Decoded steps live in the tier's byte-budgeted CacheManager, lookahead
// decodes overlap compute via the Prefetcher, and derived products
// (histograms, cumulative histograms) are memoized in the tier's
// DerivedCache so an evicted volume never has to come back just to answer
// a histogram query. The tier's store is policy-free: this class is the
// one place a FailPolicy is applied to a quarantined step, and it counts
// each outcome once into its client counters and once into the tier's.
//
// Reference validity: step(t) pins a window of `pin_radius` steps around t
// (recentring only when t falls outside the current window, so a
// {t-1, t, t+1} access pattern never thrashes); hint_window() sets the
// window explicitly, as 4D region growing does. Window pins go through the
// tier's AdmissionController, so steps past the client's pin quota are
// denied a pin: they still load and return exact bytes, they are just
// evictable. References returned for steps inside the window stay valid
// until the window moves away from them (held_ keeps the shared_ptr,
// whatever the cache evicts); cumulative-histogram references stay valid
// for the sequence's lifetime.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stream/fail_policy.hpp"
#include "stream/stream_tier.hpp"
#include "util/ordered_mutex.hpp"
#include "volume/sequence.hpp"

namespace ifet {

struct StreamConfig {
  /// Byte budget for decoded steps; 0 = unlimited (fully resident).
  std::size_t budget_bytes = 0;
  /// Steps prefetched ahead of each access in the scan direction.
  int lookahead = 2;
  /// Auto-pinned window half-width around the last accessed step; 1 keeps
  /// {t-1, t, t+1} resident.
  int pin_radius = 1;
  /// Overlap prefetch decode with compute on the shared thread pool; off =
  /// synchronous lookahead (deterministic, for tests). Sources whose
  /// generate() mutates captured state need it off.
  bool async_prefetch = true;
  int histogram_bins = 256;
  /// Retry policy, forwarded to the VolumeStore, and this sequence's
  /// policy for quarantined steps (see docs/ROBUSTNESS.md).
  int max_retries = 2;
  double retry_backoff_ms = 0.0;
  FailPolicy fail_policy = FailPolicy::kThrow;
};

class StreamedSequence final : public VolumeSequence {
 public:
  /// Single user: the only client of a private tier built from `config`.
  StreamedSequence(std::shared_ptr<const VolumeSource> source,
                   const StreamConfig& config = {});

  /// One client of a shared `tier`, pinning `pin_radius` steps around each
  /// access and applying its own `fail_policy` to quarantined steps.
  explicit StreamedSequence(StreamTier& tier, int pin_radius = 1,
                            FailPolicy fail_policy = FailPolicy::kThrow);

  /// Unpins the client's window and retires its admission ledger.
  ~StreamedSequence() override;

  StreamedSequence(const StreamedSequence&) = delete;
  StreamedSequence& operator=(const StreamedSequence&) = delete;

  /// Stream a compressed .cvol sequence from disk.
  static std::unique_ptr<StreamedSequence> open_cvol(
      const std::string& path, const StreamConfig& config = {});

  Dims dims() const override { return tier_.dims(); }
  int num_steps() const override { return tier_.num_steps(); }
  std::pair<double, double> value_range() const override {
    return tier_.value_range();
  }
  int histogram_bins() const override { return tier_.histogram_bins(); }

  const VolumeF& step(int step) const override IFET_EXCLUDES(mutex_);
  /// nullptr for a quarantined step under kSkipStep (step() throws the
  /// CorruptDataError instead): tracking needs the exact voxels or
  /// nothing, so it bridges the gap. Under kNearestGood the nearest
  /// loadable step is returned; under kThrow a CorruptDataError names the
  /// quarantine.
  const VolumeF* try_step(int step) const override IFET_EXCLUDES(mutex_);
  /// Derived products of a quarantined step substitute its nearest
  /// loadable neighbour under every policy, so histogram-driven consumers
  /// (IATF opacity ramps) keep working over gaps and the memoized product
  /// is shareable across clients.
  const CumulativeHistogram& cumulative_histogram(int step) const override
      IFET_EXCLUDES(mutex_);
  Histogram histogram(int step) const override;

  /// Source loads so far on the tier (demand + prefetch).
  std::size_t generation_count() const override {
    return store().load_count();
  }

  /// Brick metadata via the store: ingest-time container section when
  /// present (no payload decode), else built from the decoded step;
  /// memoized in the store. A quarantined step answers under this
  /// client's policy, so the index always describes the voxels step()
  /// serves: the substitute's index under kNearestGood, nullptr under
  /// kSkipStep.
  std::shared_ptr<const BrickIndex> brick_index(int step) const override;

  void hint_window(int lo, int hi) const override IFET_EXCLUDES(mutex_);
  void prefetch_hint(int step) const override { store().prefetch(step); }

  /// The tier's counter snapshot (every client of the tier together).
  StreamStats stats() const { return tier_.stats(); }
  /// This client's counters: accesses, derived products, policy outcomes
  /// and the server's overload outcomes (lock-free to add and snapshot).
  StreamCounters& client_stats() const { return client_counters_; }
  /// Adds one to `field` in this client's counters and in the tier's.
  void count(Total<std::uint64_t> StreamCounters::* field) const {
    (client_counters_.*field).add();
    (tier_.counters().*field).add();
  }
  /// This client's admission ledger snapshot (pins, denials, reloads).
  AdmissionStats admission_stats() const {
    return tier_.admission().client_stats(client_);
  }
  int client_id() const { return client_; }

  VolumeStore& store() const { return tier_.store(); }
  DerivedCache& derived_cache() const { return tier_.derived(); }

 private:
  StreamedSequence(std::unique_ptr<StreamTier> owned, int pin_radius,
                   FailPolicy fail_policy);

  /// The store's fetch, with a quarantined step (retries exhausted) as
  /// nullptr. A timeout is not a data failure: DeadlineExceeded passes.
  std::shared_ptr<const VolumeF> fetch_loadable(int step) const;

  /// Tier fetch + this client's FailPolicy: nullptr only under kSkipStep.
  std::shared_ptr<const VolumeF> fetch_with_policy(int step) const;

  /// The one FailPolicy site: the step that answers for quarantined `step`
  /// and its voxels. Throws under kThrow, {-1, nullptr} under kSkipStep,
  /// the nearest loadable step under kNearestGood.
  std::pair<int, std::shared_ptr<const VolumeF>> resolve_quarantined(
      int step) const;

  /// Nearest loadable neighbour of a quarantined step (step - d before
  /// step + d); serves kNearestGood and the derived products alike.
  std::pair<int, std::shared_ptr<const VolumeF>> nearest_loadable(
      int step) const;

  /// Move the window to [lo, hi] (clamped): drop held references outside
  /// it into `dropped` (declared before the caller's lock guard, so any
  /// final VolumeF deallocation runs after mutex_ is released) and apply
  /// the admission delta to the cache. Returns the newly pinned steps for
  /// the caller to warm AFTER unlocking — a load is a full decode in
  /// synchronous-prefetch mode, and a loader may re-enter this sequence.
  std::vector<int> move_window_locked(
      int lo, int hi, int center,
      std::vector<std::shared_ptr<const VolumeF>>& dropped) const
      IFET_REQUIRES(mutex_);

  /// Declared first so it is destroyed last: the destructor releases this
  /// client's pins on it, and held_ drops its references before it goes.
  /// Null for a shared tier.
  std::unique_ptr<StreamTier> owned_tier_;
  StreamTier& tier_;
  const int pin_radius_;
  const FailPolicy fail_policy_;
  int client_ = -1;
  mutable StreamCounters client_counters_;

  /// Held across the admission (35) and cache (30) calls of a window move,
  /// so racing moves reach the cache in the order admission computed them.
  mutable OrderedMutex mutex_{MutexRank::kStreamedSequence};
  mutable int window_lo_ IFET_GUARDED_BY(mutex_) = 0;
  mutable int window_hi_ IFET_GUARDED_BY(mutex_) = -1;
  /// Steps of the active window whose references callers may hold.
  mutable std::map<int, std::shared_ptr<const VolumeF>> held_
      IFET_GUARDED_BY(mutex_);
  /// Keeps every returned cumulative histogram alive even if the tier's
  /// DerivedCache drops its entry.
  mutable std::map<int, std::shared_ptr<const CumulativeHistogram>>
      cumhists_ IFET_GUARDED_BY(mutex_);
};

}  // namespace ifet
