#include "stream/stream_stats.hpp"

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
     << " (" << 100.0 * prefetch_hit_rate() << "% of loads), "
     << recycled_loads << " recycled, derived "
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
  if (commands_rejected != 0 || commands_shed != 0 ||
      deadline_exceeded != 0) {
    os << ", overload: " << commands_rejected << " rejected, "
       << commands_shed << " shed, " << deadline_exceeded
       << " deadline-exceeded";
  }
  return os.str();
}

StreamStats StreamCounters::snapshot() const {
  StreamStats out;
  out.hits = hits.get();
  out.misses = misses.get();
  out.evictions = evictions.get();
  out.prefetch_issued = prefetch_issued.get();
  out.prefetch_hits = prefetch_hits.get();
  out.demand_loads = demand_loads.get();
  out.recycled_loads = recycled_loads.get();
  out.derived_hits = derived_hits.get();
  out.derived_misses = derived_misses.get();
  out.demand_decode_seconds = demand_decode_seconds.get();
  out.prefetch_decode_seconds = prefetch_decode_seconds.get();
  out.retries = retries.get();
  out.load_failures = load_failures.get();
  out.prefetch_failures = prefetch_failures.get();
  out.checksum_failures = checksum_failures.get();
  out.skipped_fetches = skipped_fetches.get();
  out.nearest_good_substitutions = nearest_good_substitutions.get();
  out.commands_rejected = commands_rejected.get();
  out.commands_shed = commands_shed.get();
  out.deadline_exceeded = deadline_exceeded.get();
  return out;
}

}  // namespace ifet
