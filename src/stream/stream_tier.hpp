// The streaming tier every StreamedSequence reads through.
//
// A StreamTier is one VolumeStore + CacheManager (the byte budget and the
// disk choke point), one DerivedCache memoizing histograms / cumulative
// histograms / synthesized transfer functions keyed by (step, params
// hash), and the AdmissionController metering how much of the cache each
// client may pin. Each StreamedSequence registers as one client. The
// multi-tenant server (docs/SERVER.md) shares one tier among all its
// sessions — so two clients at the same training state deduplicate each
// other's work; a single-user sequence builds a private tier (unlimited
// pin quota) and is its only client.
//
// The tier is mechanism: a quarantined step answers its original typed
// error, and the tier takes no position on what a missing step means.
// POLICY is per client: each StreamedSequence applies its own FailPolicy
// (throw / skip / nearest-good), which is how one client choosing `skip`
// can never alter another client's `nearest-good` view of the same
// quarantined step.
//
// Counting: the tier has one StreamCounters set (owned by the store),
// which every layer and the SessionManager add into; stats() is its
// snapshot plus the residency gauges.
#pragma once

#include <cstdint>
#include <memory>

#include "stream/admission.hpp"
#include "stream/derived_cache.hpp"
#include "stream/stream_stats.hpp"
#include "stream/volume_store.hpp"

namespace ifet {

struct StreamTierConfig {
  /// Byte budget of the shared cache; 0 = unlimited (fully resident).
  std::size_t budget_bytes = 0;
  /// Per-client pinned-bytes ceiling; 0 = unlimited. Sized so that
  /// N * pin_quota_bytes <= budget_bytes leaves eviction headroom.
  std::size_t pin_quota_bytes = 0;
  /// Steps prefetched ahead of each fetch in the scan direction.
  int lookahead = 2;
  /// Overlap prefetch decode with compute on the shared thread pool.
  bool async_prefetch = true;
  int max_retries = 2;
  double retry_backoff_ms = 0.0;
  int histogram_bins = 256;
};

class StreamTier {
 public:
  explicit StreamTier(std::shared_ptr<const VolumeSource> source,
                      const StreamTierConfig& config = {});

  StreamTier(const StreamTier&) = delete;
  StreamTier& operator=(const StreamTier&) = delete;

  Dims dims() const { return store_->dims(); }
  int num_steps() const { return store_->num_steps(); }
  std::pair<double, double> value_range() const {
    return store_->value_range();
  }
  int histogram_bins() const { return config_.histogram_bins; }
  const StreamTierConfig& config() const { return config_; }

  VolumeStore& store() { return *store_; }
  const VolumeStore& store() const { return *store_; }
  DerivedCache& derived() { return derived_; }
  AdmissionController& admission() { return admission_; }

  /// The tier's one counter set; each client keeps one more of its own.
  StreamCounters& counters() { return store_->counters(); }

  /// Params hash of the tier's histogram products — shared by every
  /// client (bins and value range are tier-global), hence the one hash
  /// the SessionManager must never retire from the DerivedCache.
  std::uint64_t hist_params() const { return hist_params_; }

  /// Counter snapshot plus residency gauges (process-wide view).
  StreamStats stats() const { return store_->stats(); }

 private:
  StreamTierConfig config_;
  std::unique_ptr<VolumeStore> store_;
  DerivedCache derived_;
  AdmissionController admission_;
  std::uint64_t hist_params_ = 0;
};

}  // namespace ifet
