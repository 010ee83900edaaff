#include "stream/admission.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <utility>

#include "util/error.hpp"

namespace ifet {

AdmissionController::AdmissionController(std::size_t step_bytes,
                                         std::size_t pin_quota_bytes,
                                         int num_steps)
    : step_bytes_(step_bytes),
      pin_quota_bytes_(pin_quota_bytes),
      num_steps_(num_steps) {
  IFET_REQUIRE(step_bytes_ > 0, "AdmissionController: step_bytes must be > 0");
  IFET_REQUIRE(num_steps_ > 0, "AdmissionController: need at least one step");
}

std::size_t AdmissionController::quota_steps() const {
  if (pin_quota_bytes_ == 0) return static_cast<std::size_t>(num_steps_);
  return std::min(static_cast<std::size_t>(num_steps_),
                  pin_quota_bytes_ / step_bytes_);
}

int AdmissionController::register_client() {
  OrderedMutexLock lock(mutex_);
  // Reuse a retired slot so long-running servers with session churn keep
  // the ledger vector (and note_access's index range) bounded.
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (!clients_[i].active) {
      clients_[i] = Ledger{};
      clients_[i].active = true;
      clients_[i].seen.assign(static_cast<std::size_t>(num_steps_), 0);
      return static_cast<int>(i);
    }
  }
  Ledger ledger;
  ledger.active = true;
  ledger.seen.assign(static_cast<std::size_t>(num_steps_), 0);
  clients_.push_back(std::move(ledger));
  return static_cast<int>(clients_.size() - 1);
}

std::vector<int> AdmissionController::release_client(int client) {
  OrderedMutexLock lock(mutex_);
  IFET_REQUIRE(client >= 0 &&
                   client < static_cast<int>(clients_.size()) &&
                   clients_[static_cast<std::size_t>(client)].active,
               "AdmissionController::release_client: unknown client");
  Ledger& c = clients_[static_cast<std::size_t>(client)];
  std::vector<int> unpin = std::move(c.admitted);
  c = Ledger{};  // active = false; slot reusable
  return unpin;
}

namespace {

/// The canonical admission order: steps of [lo, hi] nearest `center`
/// first (ties: the earlier step), truncated at `quota`. Returns
/// {admitted, denied}, each sorted ascending.
std::pair<std::vector<int>, std::vector<int>> admit_center_out(
    int lo, int hi, int center, std::size_t quota) {
  std::vector<int> desired;
  for (int s = lo; s <= hi; ++s) desired.push_back(s);
  std::stable_sort(desired.begin(), desired.end(), [center](int a, int b) {
    const int da = std::abs(a - center);
    const int db = std::abs(b - center);
    return da != db ? da < db : a < b;
  });
  const std::size_t admit = std::min(desired.size(), quota);
  std::vector<int> denied(desired.begin() + static_cast<std::ptrdiff_t>(admit),
                          desired.end());
  desired.resize(admit);
  std::sort(desired.begin(), desired.end());
  std::sort(denied.begin(), denied.end());
  return {std::move(desired), std::move(denied)};
}

}  // namespace

WindowDelta AdmissionController::set_window(int client, int lo, int hi,
                                            int center) {
  lo = std::max(lo, 0);
  hi = std::min(hi, num_steps_ - 1);
  IFET_REQUIRE(lo <= hi, "AdmissionController::set_window: window misses "
                         "the sequence");
  center = std::clamp(center, lo, hi);

  // Nearest-center first: the current step must be the last pin the quota
  // ever refuses (deterministic order, deterministic admitted set).
  auto [admitted, denied] = admit_center_out(lo, hi, center, quota_steps());
  WindowDelta delta;
  delta.denied = std::move(denied);

  OrderedMutexLock lock(mutex_);
  IFET_REQUIRE(client >= 0 &&
                   client < static_cast<int>(clients_.size()) &&
                   clients_[static_cast<std::size_t>(client)].active,
               "AdmissionController::set_window: unknown client");
  Ledger& c = clients_[static_cast<std::size_t>(client)];
  std::set_difference(admitted.begin(), admitted.end(), c.admitted.begin(),
                      c.admitted.end(), std::back_inserter(delta.pin));
  std::set_difference(c.admitted.begin(), c.admitted.end(), admitted.begin(),
                      admitted.end(), std::back_inserter(delta.unpin));
  c.admitted = std::move(admitted);
  c.stats.denied_pins += delta.denied.size();
  c.stats.pinned_steps = c.admitted.size();
  c.stats.pinned_bytes = c.admitted.size() * step_bytes_;
  return delta;
}

IFET_HOT void AdmissionController::note_access(int client, int step,
                                               bool resident) {
  OrderedMutexLock lock(mutex_);
  IFET_DEBUG_ASSERT(client >= 0 &&
                        client < static_cast<int>(clients_.size()) &&
                        clients_[static_cast<std::size_t>(client)].active,
                    "AdmissionController::note_access: unknown client");
  IFET_DEBUG_ASSERT(step >= 0 && step < num_steps_,
                    "AdmissionController::note_access: step out of range");
  Ledger& c = clients_[static_cast<std::size_t>(client)];
  std::uint8_t& seen = c.seen[static_cast<std::size_t>(step)];
  if (!resident && seen != 0) ++c.stats.reloads;
  seen = 1;
}

AdmissionStats AdmissionController::client_stats(int client) const {
  OrderedMutexLock lock(mutex_);
  IFET_REQUIRE(client >= 0 &&
                   client < static_cast<int>(clients_.size()) &&
                   clients_[static_cast<std::size_t>(client)].active,
               "AdmissionController::client_stats: unknown client");
  return clients_[static_cast<std::size_t>(client)].stats;
}

}  // namespace ifet
