#include "stream/stream_stats.hpp"

#include <algorithm>
#include <iomanip>
#include <sstream>

namespace ifet {

std::string StreamStats::summary() const {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1);
  os << "stream: " << hits << " hits / " << misses << " misses ("
     << 100.0 * hit_rate() << "% hit rate), " << evictions << " evictions, ";
  if (budget_bytes == 0) {
    os << bytes_resident / 1024 << " KiB resident (unlimited budget), ";
  } else {
    os << bytes_resident / 1024 << " / " << budget_bytes / 1024
       << " KiB resident (peak " << peak_bytes_resident / 1024 << "), ";
  }
  os << "prefetch " << prefetch_hits << "/" << (prefetch_hits + demand_loads)
     << " (" << 100.0 * prefetch_hit_rate() << "% of loads), derived "
     << derived_hits << "/" << (derived_hits + derived_misses) << " memoized";
  if (retries != 0 || load_failures != 0 || checksum_failures != 0 ||
      quarantined_steps != 0 || skipped_fetches != 0 ||
      nearest_good_substitutions != 0) {
    os << ", faults: " << retries << " retries, " << load_failures
       << " exhausted, " << checksum_failures << " checksum failures, "
       << quarantined_steps << " quarantined";
    if (skipped_fetches != 0) os << ", " << skipped_fetches << " skipped";
    if (nearest_good_substitutions != 0) {
      os << ", " << nearest_good_substitutions << " substituted";
    }
  }
  if (checksum_unverified != 0) {
    // Flag legacy unverified payloads loudly: silent corruption is only
    // caught on the checksummed paths.
    os << ", checksums " << checksum_verified << " ok / "
       << checksum_unverified << " UNVERIFIED";
  }
  if (commands_rejected != 0 || commands_shed != 0 ||
      deadline_exceeded != 0 || pressure_transitions != 0) {
    os << ", overload: " << commands_rejected << " rejected, "
       << commands_shed << " shed, " << deadline_exceeded
       << " deadline-exceeded, " << pressure_transitions
       << " pressure transitions";
  }
  return os.str();
}

StreamStats& StreamStats::merge(const StreamStats& other) {
  hits += other.hits;
  misses += other.misses;
  inserts += other.inserts;
  evictions += other.evictions;
  prefetch_issued += other.prefetch_issued;
  prefetch_hits += other.prefetch_hits;
  demand_loads += other.demand_loads;
  derived_hits += other.derived_hits;
  derived_misses += other.derived_misses;
  if (other.budget_bytes != 0) budget_bytes = other.budget_bytes;
  if (other.bytes_resident != 0) bytes_resident = other.bytes_resident;
  peak_bytes_resident = std::max(peak_bytes_resident,
                                 other.peak_bytes_resident);
  if (other.steps_resident != 0) steps_resident = other.steps_resident;
  if (other.pinned_steps != 0) pinned_steps = other.pinned_steps;
  demand_decode_seconds += other.demand_decode_seconds;
  prefetch_decode_seconds += other.prefetch_decode_seconds;
  retries += other.retries;
  load_failures += other.load_failures;
  prefetch_failures += other.prefetch_failures;
  checksum_verified += other.checksum_verified;
  checksum_unverified += other.checksum_unverified;
  checksum_failures += other.checksum_failures;
  // Gauge, not a counter: only the VolumeStore layer reports it.
  if (other.quarantined_steps != 0) quarantined_steps = other.quarantined_steps;
  skipped_fetches += other.skipped_fetches;
  nearest_good_substitutions += other.nearest_good_substitutions;
  commands_rejected += other.commands_rejected;
  commands_shed += other.commands_shed;
  deadline_exceeded += other.deadline_exceeded;
  pressure_transitions += other.pressure_transitions;
  return *this;
}

StreamStats SharedStreamStats::snapshot() const {
  StreamStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.derived_hits = derived_hits_.load(std::memory_order_relaxed);
  out.derived_misses = derived_misses_.load(std::memory_order_relaxed);
  out.skipped_fetches = skipped_fetches_.load(std::memory_order_relaxed);
  out.nearest_good_substitutions =
      nearest_good_substitutions_.load(std::memory_order_relaxed);
  out.commands_rejected = commands_rejected_.load(std::memory_order_relaxed);
  out.commands_shed = commands_shed_.load(std::memory_order_relaxed);
  out.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  out.pressure_transitions =
      pressure_transitions_.load(std::memory_order_relaxed);
  return out;
}

}  // namespace ifet
