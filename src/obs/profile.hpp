// Scoped profiling timers for the simulator's hot kernels.
//
// Each GDVR_PROFILE_SCOPE("name") site owns one statically allocated
// ProfileSite (registered on an intrusive global list at first execution)
// and accumulates call count and total nanoseconds with relaxed atomics, so
// ParallelTrials workers profile concurrently without locks.
//
// Overhead contract: profiling is OFF by default. A disabled scope costs one
// relaxed atomic bool load and a branch -- no clock read, no atomic RMW.
// Enable with set_profiling(true) or by exporting GDVR_PROFILE=1 before the
// process starts (scripts/bench.sh --profile drives this).
#pragma once

#include <atomic>
#include <cstdint>
#include <ostream>

namespace gdvr::obs {

bool profiling_enabled();
void set_profiling(bool on);

struct ProfileSite {
  explicit ProfileSite(const char* site_name);

  void add(std::uint64_t ns) {
    calls.fetch_add(1, std::memory_order_relaxed);
    total_ns.fetch_add(ns, std::memory_order_relaxed);
  }

  const char* name;
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> total_ns{0};
  ProfileSite* next = nullptr;  // intrusive registry list (never unregistered)
};

// Monotonic wall-clock in nanoseconds (steady_clock).
std::uint64_t profile_now_ns();

class ScopedTimer {
 public:
  explicit ScopedTimer(ProfileSite& site)
      : site_(site), start_ns_(profiling_enabled() ? profile_now_ns() : 0) {}
  ~ScopedTimer() {
    if (start_ns_ != 0) site_.add(profile_now_ns() - start_ns_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ProfileSite& site_;
  std::uint64_t start_ns_;
};

// Table of every site that executed at least once: name, calls, total ms,
// mean us per call. Sites sharing a name are summed into one row; rows are
// sorted by total time, descending.
void write_profile_report(std::ostream& os);

// Zeroes every registered site's accumulators (sites stay registered).
void reset_profile();

}  // namespace gdvr::obs

#define GDVR_PROFILE_CONCAT_INNER(a, b) a##b
#define GDVR_PROFILE_CONCAT(a, b) GDVR_PROFILE_CONCAT_INNER(a, b)

// Times the enclosing scope under `name` when profiling is enabled.
#define GDVR_PROFILE_SCOPE(name)                                              \
  static ::gdvr::obs::ProfileSite GDVR_PROFILE_CONCAT(gdvr_profile_site_,     \
                                                      __LINE__){name};        \
  ::gdvr::obs::ScopedTimer GDVR_PROFILE_CONCAT(gdvr_profile_timer_, __LINE__)(\
      GDVR_PROFILE_CONCAT(gdvr_profile_site_, __LINE__))
