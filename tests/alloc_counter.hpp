// Counts calls to the global operator new while a CountAllocations scope is
// open, on every thread. This header replaces the global allocation
// functions, so include it in exactly one translation unit of a test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace gdvr::test {

inline std::atomic<bool> g_count_allocations{false};
inline std::atomic<std::uint64_t> g_allocations{0};

class CountAllocations {
 public:
  CountAllocations() {
    g_allocations.store(0);
    g_count_allocations.store(true);
  }
  ~CountAllocations() { g_count_allocations.store(false); }
  CountAllocations(const CountAllocations&) = delete;
  CountAllocations& operator=(const CountAllocations&) = delete;

  std::uint64_t count() const { return g_allocations.load(); }
};

}  // namespace gdvr::test

// GCC flags free() in a delete whose matching new it can see inline; these
// two are a pair by construction.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void* operator new(std::size_t size) {
  if (gdvr::test::g_count_allocations.load(std::memory_order_relaxed))
    gdvr::test::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
