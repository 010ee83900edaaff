// What a consumer sees of a quarantined step.
//
// When a load exhausts its retries the step enters quarantine
// (VolumeStore::quarantined_steps() lists them) and the configured
// FailPolicy decides what consumers see: the original error (kThrow), a
// "no data" answer they can bridge over (kSkipStep), or the nearest
// healthy neighbour (kNearestGood). docs/ROBUSTNESS.md has the full
// policy matrix.
#pragma once

#include <cstdint>
#include <string>

namespace ifet {

/// What a fetch of a quarantined step does (see docs/ROBUSTNESS.md).
enum class FailPolicy : std::uint8_t {
  kThrow,        ///< Rethrow the original load error (default).
  kSkipStep,     ///< Report the step as unavailable (fetch -> nullptr).
  kNearestGood,  ///< Substitute the closest loadable step.
};

/// Human-readable policy name ("throw" / "skip" / "nearest").
const char* fail_policy_name(FailPolicy policy);

/// Parse a policy name as accepted by `ifet_tool track --fail-policy`.
/// Accepts "throw", "skip" (or "skip-step"), "nearest" (or
/// "nearest-good"); throws ifet::Error on anything else.
FailPolicy parse_fail_policy(const std::string& name);

}  // namespace ifet
