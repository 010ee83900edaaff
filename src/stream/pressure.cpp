#include "stream/pressure.hpp"

#include <utility>
#include <vector>

#include "stream/admission.hpp"
#include "stream/cache_manager.hpp"
#include "stream/derived_cache.hpp"
#include "stream/stream_stats.hpp"

namespace ifet {

namespace {

/// Engage when demanded pin bytes / budget bytes reach this ratio.
constexpr double kEnterRatio = 0.85;
/// Release only when the ratio falls back to this one (the hysteresis
/// band below kEnterRatio).
constexpr double kExitRatio = 0.65;
/// Per-client quota scale applied while engaged, in percent.
constexpr int kQuotaClampPercent = 50;

}  // namespace

PressureMonitor::PressureMonitor(CacheManager& cache,
                                 AdmissionController& admission,
                                 DerivedCache& derived,
                                 StreamCounters& counters,
                                 std::uint64_t keep_params,
                                 std::size_t budget_bytes,
                                 std::size_t step_bytes,
                                 const PressureConfig& config)
    : cache_(cache),
      admission_(admission),
      derived_(derived),
      counters_(counters),
      keep_params_(keep_params),
      budget_bytes_(budget_bytes),
      step_bytes_(step_bytes),
      config_(config) {}

IFET_HOT int PressureMonitor::sample() const {
  if (!config_.enabled || budget_bytes_ == 0) return 0;
  const double demand_bytes =
      static_cast<double>(admission_.demanded_pin_steps()) *
      static_cast<double>(step_bytes_);
  const double ratio = demand_bytes / static_cast<double>(budget_bytes_);
  const bool engaged = engaged_.load(std::memory_order_relaxed);
  if (!engaged && ratio >= kEnterRatio) return 1;
  if (engaged && ratio <= kExitRatio) return -1;
  return 0;
}

void PressureMonitor::poll() {
  if (sample() == 0) return;
  OrderedMutexLock lock(mutex_);
  // Re-decide under the lock: another drain loop may have transitioned
  // between our sample and our acquisition.
  const int want = sample();
  if (want > 0) {
    engage_locked();
  } else if (want < 0) {
    release_locked();
  }
}

void PressureMonitor::engage_locked() {
  engaged_.store(true, std::memory_order_relaxed);
  ++report_.enters;
  report_.engaged = true;

  // Cheapest relief first: derived products are KiBs and recomputable.
  report_.derived_shed += derived_.shed_except(keep_params_);

  // Revoke the outermost window pins (center-out order keeps each
  // client's current step). The admission lock is NOT held across the
  // cache calls — the delta pattern, as everywhere.
  {
    OrderedMutexLock order(admission_.delta_mutex());
    const std::vector<std::pair<int, WindowDelta>> deltas =
        admission_.set_quota_scale(kQuotaClampPercent);
    for (const auto& [client, delta] : deltas) {
      (void)client;
      for (int s : delta.unpin) cache_.unpin(s);
      for (int s : delta.pin) cache_.pin(s);
      report_.pins_clamped += delta.unpin.size();
    }
  }

  counters_.pressure_transitions.add();
}

void PressureMonitor::release_locked() {
  engaged_.store(false, std::memory_order_relaxed);
  ++report_.exits;
  report_.engaged = false;

  // Quotas back to 100% — the deltas re-admit center-out from each
  // client's remembered window (pins on non-resident steps stay pending
  // until the step loads).
  {
    OrderedMutexLock order(admission_.delta_mutex());
    const std::vector<std::pair<int, WindowDelta>> deltas =
        admission_.set_quota_scale(100);
    for (const auto& [client, delta] : deltas) {
      (void)client;
      for (int s : delta.unpin) cache_.unpin(s);
      for (int s : delta.pin) cache_.pin(s);
      report_.pins_restored += delta.pin.size();
    }
  }

  counters_.pressure_transitions.add();
}

PressureReport PressureMonitor::report() const {
  OrderedMutexLock lock(mutex_);
  return report_;
}

}  // namespace ifet
