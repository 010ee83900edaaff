// Runtime lock-order validation (docs/STATIC_ANALYSIS.md).
//
// The static lock-order pass of ifet_lint proves there is no cycle in the
// repo's mutex-acquisition graph, but it is a syntactic analysis — it
// cannot see acquisitions hidden behind type-erased callbacks. OrderedMutex
// closes that gap from the runtime side: every concurrency-bearing mutex
// in the tree carries a rank from the table below, and in checked builds
// (IFET_CHECKED_ITERATORS, on in the asan-ubsan and tsan presets) each
// thread keeps a stack of the ranks it holds. Acquiring a mutex whose rank
// is not strictly greater than every held rank throws ifet::Error at the
// site of the inversion — so the existing TSan stress suite doubles as a
// lock-order fuzzer, and a deadlock that would need an unlucky schedule to
// bite becomes a deterministic failure on ANY schedule that merely reaches
// the second acquisition.
//
// Rank discipline (see docs/STATIC_ANALYSIS.md for the full table): ranks
// strictly increase along every legal acquisition chain, and equal ranks
// never nest — which also makes any re-entrant acquisition of the same
// mutex (self-deadlock with std::mutex) a loud error instead of a hang.
// No ifet mutex is held while user callbacks or loaders run, and only
// kStreamedSequence is held across another class's locking methods (the
// admission and cache calls of a window move, both ranked higher). The
// distinct ranks keep the validator meaningful anyway — if a future change
// adds nesting it must follow the table's order or fail immediately in
// checked builds.
#pragma once

#include <mutex>
#include <string>

#include "util/error.hpp"
#include "util/thread_annotations.hpp"

namespace ifet {

/// Acquisition ranks, outermost (lowest) to innermost (highest). Gaps are
/// room for future locks; a new mutex must pick a rank consistent with
/// every acquisition chain it joins and add itself to the table in
/// docs/STATIC_ANALYSIS.md.
enum class MutexRank : int {
  kSessionManager = 4,     ///< SessionManager session registry + hash refs
  kServerStrand = 6,       ///< Per-session command queue (strand) mutex
  kStreamedSequence = 10,  ///< StreamedSequence window/held-refs mutex
                           ///< (held across the admission and cache calls
                           ///< of a window move, both ranked higher)
  kVolumeStore = 20,       ///< VolumeStore load counters
  kCacheManager = 30,      ///< CacheManager residency state
  kAdmission = 35,         ///< AdmissionController per-client pin ledger
  kPrefetcher = 40,        ///< Prefetcher in-flight set
  kDerivedCache = 50,      ///< DerivedCache memo maps
  kFlatMlpCache = 60,      ///< FlatMlpCache rebuild slot
  kWatchdog = 70,          ///< SessionManager watchdog report state (leaf;
                           ///< never held while sampling session atomics)
  kThreadPool = 90,        ///< ThreadPool queue
  kSpareVolumes = 95,      ///< CacheManager's spare step buffers (innermost
                           ///< leaf: an entry's last reference, whose
                           ///< deleter takes it, can drop under any lock)
};

namespace detail {
/// Per-thread stack of held OrderedMutex ranks (checked builds only).
/// Deliberately a trivially-destructible POD, not a std::vector: a vector
/// registers a TLS destructor, which runs BEFORE atexit-time static
/// destructors — and the global ThreadPool locks its OrderedMutex from
/// exactly such a destructor. A POD thread_local has no destructor, so
/// its storage stays valid through program teardown. Capacity 16 is
/// above the deepest legal chain (ranks strictly increase and the rank
/// table has 12 entries).
struct HeldRanks {
  static constexpr int kCapacity = 16;
  int ranks[kCapacity];
  int size;

  bool empty() const { return size == 0; }
  int back() const { return ranks[size - 1]; }
  void push(int rank) {
    IFET_REQUIRE(size < kCapacity,
                 "OrderedMutex: held-rank stack overflow (deeper than any "
                 "legal acquisition chain)");
    ranks[size++] = rank;
  }
  void pop() { --size; }
};

inline HeldRanks& held_mutex_ranks() {
  thread_local HeldRanks held{};
  return held;
}
}  // namespace detail

/// std::mutex + capability annotations + debug rank validation. Drop-in
/// for ifet::Mutex wherever the mutex participates in a documented
/// acquisition order; BasicLockable, so condition_variable_any works.
class IFET_CAPABILITY("mutex") OrderedMutex {
 public:
  explicit OrderedMutex(MutexRank rank) : rank_(static_cast<int>(rank)) {}
  OrderedMutex(const OrderedMutex&) = delete;
  OrderedMutex& operator=(const OrderedMutex&) = delete;

  void lock() IFET_ACQUIRE() {
#if defined(IFET_CHECKED_ITERATORS) && IFET_CHECKED_ITERATORS
    // Validate BEFORE blocking: an inversion must report even on the
    // schedules where it would not happen to deadlock.
    auto& held = detail::held_mutex_ranks();
    IFET_REQUIRE(held.empty() || held.back() < rank_,
                 "OrderedMutex: rank inversion — acquiring rank " +
                     std::to_string(rank_) + " while holding rank " +
                     std::to_string(held.empty() ? -1 : held.back()) +
                     " (see the mutex rank table in "
                     "docs/STATIC_ANALYSIS.md)");
    m_.lock();
    held.push(rank_);
#else
    m_.lock();
#endif
  }

  void unlock() IFET_RELEASE() {
#if defined(IFET_CHECKED_ITERATORS) && IFET_CHECKED_ITERATORS
    auto& held = detail::held_mutex_ranks();
    IFET_REQUIRE(!held.empty() && held.back() == rank_,
                 "OrderedMutex: non-LIFO unlock of rank " +
                     std::to_string(rank_));
    held.pop();
#endif
    m_.unlock();
  }

  MutexRank rank() const { return static_cast<MutexRank>(rank_); }

 private:
  std::mutex m_;
  const int rank_;
};

using OrderedMutexLock = GenericMutexLock<OrderedMutex>;

}  // namespace ifet
