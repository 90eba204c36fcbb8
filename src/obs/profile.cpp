#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <vector>

namespace gdvr::obs {

namespace {

std::atomic<ProfileSite*> g_sites{nullptr};

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("GDVR_PROFILE");
    return env != nullptr && env[0] == '1';
  }();
  return flag;
}

}  // namespace

bool profiling_enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_profiling(bool on) { enabled_flag().store(on, std::memory_order_relaxed); }

ProfileSite::ProfileSite(const char* site_name) : name(site_name) {
  ProfileSite* head = g_sites.load(std::memory_order_relaxed);
  do {
    next = head;
  } while (!g_sites.compare_exchange_weak(head, this, std::memory_order_release,
                                          std::memory_order_relaxed));
}

std::uint64_t profile_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void write_profile_report(std::ostream& os) {
  struct Row {
    const char* name;
    std::uint64_t calls;
    std::uint64_t total_ns;
  };
  std::vector<Row> rows;
  for (ProfileSite* s = g_sites.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    const std::uint64_t calls = s->calls.load(std::memory_order_relaxed);
    if (calls == 0) continue;
    rows.push_back({s->name, calls, s->total_ns.load(std::memory_order_relaxed)});
  }
  // Sites sharing a name report as one row: a scope in a template has one
  // site per instantiation, and separate scopes may time one kernel.
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return std::strcmp(a.name, b.name) < 0; });
  std::size_t merged = 0;
  for (const Row& r : rows) {
    if (merged > 0 && std::strcmp(rows[merged - 1].name, r.name) == 0) {
      rows[merged - 1].calls += r.calls;
      rows[merged - 1].total_ns += r.total_ns;
    } else {
      rows[merged++] = r;
    }
  }
  rows.resize(merged);
  std::stable_sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.total_ns > b.total_ns; });

  os << "== profile ==\n";
  os << std::left << std::setw(32) << "scope" << std::right << std::setw(12) << "calls"
     << std::setw(14) << "total_ms" << std::setw(14) << "mean_us" << "\n";
  for (const Row& r : rows) {
    const double total_ms = static_cast<double>(r.total_ns) / 1e6;
    const double mean_us = static_cast<double>(r.total_ns) / 1e3 / static_cast<double>(r.calls);
    os << std::left << std::setw(32) << r.name << std::right << std::setw(12) << r.calls
       << std::setw(14) << std::fixed << std::setprecision(3) << total_ms << std::setw(14)
       << mean_us << "\n";
    os.unsetf(std::ios::fixed);
  }
  if (rows.empty()) os << "(no profiled scopes executed)\n";
}

void reset_profile() {
  for (ProfileSite* s = g_sites.load(std::memory_order_acquire); s != nullptr; s = s->next) {
    s->calls.store(0, std::memory_order_relaxed);
    s->total_ns.store(0, std::memory_order_relaxed);
  }
}

}  // namespace gdvr::obs
