#include "stream/stream_tier.hpp"

#include "util/error.hpp"
#include "util/hashing.hpp"

namespace ifet {

namespace {
VolumeStoreConfig store_config(const StreamTierConfig& c) {
  return {.budget_bytes = c.budget_bytes,
          .lookahead = c.lookahead,
          .async_prefetch = c.async_prefetch,
          .max_retries = c.max_retries,
          .retry_backoff_ms = c.retry_backoff_ms};
}

std::size_t payload_bytes(const Dims& d) {
  return static_cast<std::size_t>(d.x) * static_cast<std::size_t>(d.y) *
         static_cast<std::size_t>(d.z) * sizeof(float);
}
}  // namespace

StreamTier::StreamTier(std::shared_ptr<const VolumeSource> source,
                       const StreamTierConfig& config)
    : config_(config),
      store_(std::make_unique<VolumeStore>(std::move(source),
                                           store_config(config))),
      derived_(store_->counters()),
      admission_(payload_bytes(store_->dims()), config.pin_quota_bytes,
                 store_->num_steps()) {
  IFET_REQUIRE(config_.histogram_bins > 0, "StreamTier: need histogram bins");
  auto [lo, hi] = store_->value_range();
  hist_params_ = hash_combine(
      hash_combine(static_cast<std::uint64_t>(config_.histogram_bins),
                   hash_double(lo)),
      hash_double(hi));
}

}  // namespace ifet
