// Process-wide allocation counting for hot-path enforcement
// (docs/STATIC_ANALYSIS.md "Runtime enforcement: AllocGuard").
//
// A binary opts in by placing IFET_ALLOC_GUARD_INSTALL() at namespace
// scope in exactly one TU; that defines replacement global operator
// new/delete which forward to malloc/free and bump process-wide atomic
// counters. Binaries that do not install the guard still compile against
// DenyAllocScope — the counters simply never move.
//
// DenyAllocScope is a snapshot, not a switch: it records the global
// allocation count at construction and reports the delta. Because the
// counters are global atomics, allocations made by other threads —
// including ThreadPool workers servicing a parallel_for dispatched inside
// the scope — are counted too, which is exactly what a steady-state
// "this region allocates nothing anywhere" bench assertion needs.
// Scopes nest trivially (each holds its own snapshot).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace ifet {
namespace alloc_guard {

/// Total operator-new calls observed since process start (0 until a TU
/// installs the guard). Monotonic; never reset.
inline std::atomic<std::uint64_t>& allocation_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

/// Total operator-delete calls observed. Kept for leak-shaped debugging;
/// DenyAllocScope only reads allocation_count().
inline std::atomic<std::uint64_t>& deallocation_count() {
  static std::atomic<std::uint64_t> count{0};
  return count;
}

inline void note_alloc() {
  allocation_count().fetch_add(1, std::memory_order_relaxed);
}

inline void note_free() {
  deallocation_count().fetch_add(1, std::memory_order_relaxed);
}

}  // namespace alloc_guard

/// RAII allocation probe: `allocations()` is the number of operator-new
/// calls (process-wide, all threads) since this scope was constructed.
/// Steady-state sections assert `scope.allocations() == 0` after a
/// warm-up pass.
class DenyAllocScope {
 public:
  DenyAllocScope()
      : start_(alloc_guard::allocation_count().load(
            std::memory_order_relaxed)) {}

  DenyAllocScope(const DenyAllocScope&) = delete;
  DenyAllocScope& operator=(const DenyAllocScope&) = delete;

  std::uint64_t allocations() const {
    return alloc_guard::allocation_count().load(std::memory_order_relaxed) -
           start_;
  }

 private:
  std::uint64_t start_;
};

}  // namespace ifet

// Defines the replacement allocation functions. Use at namespace scope in
// ONE translation unit of the opting-in binary. The nothrow forms are
// replaced too: std::get_temporary_buffer (std::stable_sort) allocates
// with them, and under ASan the sanitizer's own nothrow new would
// otherwise pair with the free() below as an alloc-dealloc mismatch.
// The operators are noinline:
// once GCC inlines a malloc-backed operator new into a caller it pairs the
// malloc against the library operator delete and emits a bogus
// -Wmismatched-new-delete at the (header) call site, where no pragma in
// this TU can reach; keeping the bodies out of line keeps the diagnostic
// silent and the counters honest under any optimization level.
#define IFET_ALLOC_GUARD_INSTALL()                                        \
  __attribute__((noinline)) void* operator new(std::size_t size) {        \
    ::ifet::alloc_guard::note_alloc();                                    \
    if (void* p = std::malloc(size ? size : 1)) return p;                 \
    throw std::bad_alloc();                                               \
  }                                                                       \
  __attribute__((noinline)) void* operator new[](std::size_t size) {      \
    ::ifet::alloc_guard::note_alloc();                                    \
    if (void* p = std::malloc(size ? size : 1)) return p;                 \
    throw std::bad_alloc();                                               \
  }                                                                       \
  __attribute__((noinline)) void operator delete(void* p) noexcept {      \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  __attribute__((noinline)) void operator delete[](void* p) noexcept {    \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  __attribute__((noinline)) void operator delete(void* p,                 \
                                                 std::size_t) noexcept {  \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  __attribute__((noinline)) void operator delete[](                       \
      void* p, std::size_t) noexcept {                                    \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  __attribute__((noinline)) void* operator new(                           \
      std::size_t size, const std::nothrow_t&) noexcept {                 \
    ::ifet::alloc_guard::note_alloc();                                    \
    return std::malloc(size ? size : 1);                                  \
  }                                                                       \
  __attribute__((noinline)) void* operator new[](                         \
      std::size_t size, const std::nothrow_t&) noexcept {                 \
    ::ifet::alloc_guard::note_alloc();                                    \
    return std::malloc(size ? size : 1);                                  \
  }                                                                       \
  __attribute__((noinline)) void operator delete(                         \
      void* p, const std::nothrow_t&) noexcept {                          \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  __attribute__((noinline)) void operator delete[](                       \
      void* p, const std::nothrow_t&) noexcept {                          \
    ::ifet::alloc_guard::note_free();                                     \
    std::free(p);                                                         \
  }                                                                       \
  static_assert(true, "IFET_ALLOC_GUARD_INSTALL requires a semicolon")
