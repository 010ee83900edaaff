#include "stream/stream_tier.hpp"

#include "util/error.hpp"
#include "util/hashing.hpp"

namespace ifet {

namespace {
VolumeStoreConfig store_config(const StreamTierConfig& c) {
  VolumeStoreConfig out;
  out.budget_bytes = c.budget_bytes;
  out.lookahead = c.lookahead;
  out.async_prefetch = c.async_prefetch;
  out.max_retries = c.max_retries;
  out.retry_backoff_ms = c.retry_backoff_ms;
  // Mechanism, not policy: the store only ever reports "no data" for a
  // quarantined step; each StreamedSequence layers its own FailPolicy on
  // top (see the header comment).
  out.fail_policy = FailPolicy::kSkipStep;
  return out;
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
      admission_(payload_bytes(store_->dims()), config.pin_quota_bytes,
                 store_->num_steps()) {
  IFET_REQUIRE(config_.histogram_bins > 0, "StreamTier: need histogram bins");
  auto [lo, hi] = store_->value_range();
  hist_params_ = hash_combine(
      hash_combine(static_cast<std::uint64_t>(config_.histogram_bins),
                   hash_double(lo)),
      hash_double(hi));
  pressure_ = std::make_unique<PressureMonitor>(
      store_->cache(), admission_, derived_, aggregate_, hist_params_,
      config_.budget_bytes, step_bytes(), config_.pressure);
}

std::size_t StreamTier::step_bytes() const {
  return payload_bytes(store_->dims());
}

StreamStats StreamTier::stats() const {
  StreamStats out = store_->stats();
  out.merge(derived_.stats());
  // The overload counters live ONLY in the aggregate (the store never
  // counts them); nothing else is written to it.
  const StreamStats agg = aggregate_.snapshot();
  out.commands_rejected += agg.commands_rejected;
  out.commands_shed += agg.commands_shed;
  out.deadline_exceeded += agg.deadline_exceeded;
  out.pressure_transitions += agg.pressure_transitions;
  return out;
}

}  // namespace ifet
