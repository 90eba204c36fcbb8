// Deterministic thread-pool for embarrassingly parallel trials.
//
// Every sweep in bench/ runs many independent trials (one Simulator + NetSim
// per (parameter, run) pair) and aggregates per-trial metrics. ParallelTrials
// fans those trials out over a fixed set of worker threads while preserving
// the determinism contract the figures rely on:
//
//  * each trial derives everything (topology seed, protocol seeds) from its
//    own index, never from shared mutable state or scheduling order;
//  * results land in a vector indexed by trial, so the output is bit-identical
//    to a sequential run no matter how the OS interleaves workers;
//  * aggregation happens on the caller's thread after run() returns.
//
// Trials must not touch shared mutable state. Everything reachable from a
// trial function must be const or trial-local (radio::Topology and its
// metric graphs are read-only once built).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gdvr {

// Resolves the worker count the way every parallel facility in this repo
// does: an explicit positive request wins, then the GDVR_THREADS environment
// variable, then the hardware concurrency, floored at 1.
inline int resolve_thread_count(int threads) {
  if (threads <= 0) {
    if (const char* env = std::getenv("GDVR_THREADS")) threads = std::atoi(env);
    if (threads <= 0) threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  return threads;
}

class ParallelTrials {
 public:
  // threads <= 0 selects automatically: the GDVR_THREADS environment
  // variable if set, otherwise the hardware concurrency. One thread (or a
  // single-CPU machine) degrades to plain sequential execution in the
  // calling thread.
  explicit ParallelTrials(int threads = 0) { threads_ = resolve_thread_count(threads); }

  int threads() const { return threads_; }

  // Runs fn(0), fn(1), ..., fn(count - 1) across the workers and returns the
  // results in index order. The result type must be default-constructible
  // and movable. If any trial throws, the first exception (by completion
  // order) is rethrown after all workers drain. When only one worker would
  // run (one thread, or one trial), the trials run on the calling thread.
  template <typename Fn>
  auto run(int count, Fn&& fn) -> std::vector<decltype(fn(0))> {
    using R = decltype(fn(0));
    std::vector<R> results(static_cast<std::size_t>(count));
    if (count <= 0) return results;

    const int nw = std::min(threads_, count);
    if (nw <= 1) {
      for (int i = 0; i < count; ++i) results[static_cast<std::size_t>(i)] = fn(i);
      return results;
    }

    std::atomic<int> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&] {
      for (;;) {
        const int i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        try {
          results[static_cast<std::size_t>(i)] = fn(i);
        } catch (...) {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(nw));
    for (int t = 0; t < nw; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

 private:
  int threads_ = 1;
};

// One PAUSE-class hint to the core while spinning on an atomic.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Persistent spin-then-park worker pool.
//
// ParallelTrials spawns threads per run() call, which is fine for sweeps
// that fan out a handful of times. The sharded simulator issues one parallel
// burst per lookahead window -- tens of thousands per run, each burst only
// tens to hundreds of microseconds of work -- so the latency of *starting* a
// burst is the whole ballgame. A pool that parks workers on a condition
// variable between bursts loses it: a futex wake takes longer than the
// burst, so the caller thread has drained every index before any worker
// arrives, serializing the "parallel" engine. Workers here spin on the
// generation counter for a short budget (a window's worth of time) before
// parking, which keeps them hot across back-to-back windows and still yields
// the CPU when the simulator goes quiet. parallel_for(count, fn) runs
// fn(0..count-1) across the workers plus the calling thread and returns when
// every index completed.
//
// Determinism contract: like ParallelTrials, work items must not share
// mutable state across indices; which thread runs which index is
// intentionally unobservable.
class WorkerPool {
 public:
  explicit WorkerPool(int threads = 0) : threads_(resolve_thread_count(threads)) {
    for (int t = 0; t < threads_ - 1; ++t)
      workers_.emplace_back([this] { worker_loop(); });
  }

  ~WorkerPool() {
    {
      const std::lock_guard<std::mutex> lock(m_);
      stop_.store(true, std::memory_order_relaxed);
    }
    cv_start_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int threads() const { return threads_; }

  // Blocks until fn has been invoked for every index in [0, count). The
  // first exception (by completion order) is rethrown on the caller. fn must
  // not re-enter the same pool.
  void parallel_for(int count, const std::function<void(int)>& fn) {
    if (count <= 0) return;
    if (threads_ <= 1 || count == 1) {
      for (int i = 0; i < count; ++i) fn(i);
      return;
    }
    {
      // The mutex orders this publication against the predicate check of any
      // parked worker (no lost wakeups); spinning workers see the
      // release-store of generation_ directly.
      const std::lock_guard<std::mutex> lock(m_);
      job_ = &fn;
      count_ = count;
      next_.store(0, std::memory_order_relaxed);
      done_.store(0, std::memory_order_relaxed);
      error_ = nullptr;
      generation_.fetch_add(1, std::memory_order_release);
    }
    cv_start_.notify_all();
    run_indices(fn);
    // Completion: spin briefly (workers finish within the same window
    // timescale), then fall back to a timed wait so a descheduled worker
    // cannot strand the caller in a busy loop.
    const int workers = static_cast<int>(workers_.size());
    for (int spins = 0; done_.load(std::memory_order_acquire) != workers;) {
      if (++spins < spin_budget()) {
        cpu_relax();
      } else {
        std::unique_lock<std::mutex> lock(m_);
        cv_done_.wait_for(lock, std::chrono::microseconds(100), [&] {
          return done_.load(std::memory_order_relaxed) == workers;
        });
      }
    }
    job_ = nullptr;
    if (error_) std::rethrow_exception(error_);
  }

 private:
  // ~tens of microseconds of PAUSE on current hardware: long enough to
  // bridge the gap between back-to-back lookahead windows, short enough to
  // stop burning a core when the simulation is over. On a single-hardware-
  // thread machine spinning is pure sabotage -- the spinner occupies the
  // only core the thread it waits for needs -- so the budget drops to zero
  // and both sides go straight to the futex path.
  static int spin_budget() {
    static const int budget = std::thread::hardware_concurrency() > 1 ? (1 << 15) : 0;
    return budget;
  }

  void run_indices(const std::function<void(int)>& fn) {
    for (;;) {
      const int i = next_.fetch_add(1, std::memory_order_relaxed);
      if (i >= count_) return;
      try {
        fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(m_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  void worker_loop() {
    std::uint64_t seen = 0;
    for (;;) {
      std::uint64_t gen;
      int spins = 0;
      while ((gen = generation_.load(std::memory_order_acquire)) == seen &&
             !stop_.load(std::memory_order_relaxed)) {
        if (++spins < spin_budget()) {
          cpu_relax();
        } else {
          std::unique_lock<std::mutex> lock(m_);
          cv_start_.wait(lock, [&] {
            return stop_.load(std::memory_order_relaxed) ||
                   generation_.load(std::memory_order_relaxed) != seen;
          });
        }
      }
      if (stop_.load(std::memory_order_relaxed)) return;
      seen = gen;
      run_indices(*job_);
      done_.fetch_add(1, std::memory_order_release);
      if (done_.load(std::memory_order_relaxed) == static_cast<int>(workers_.size())) {
        // The caller may have exhausted its spin budget and parked: pairing
        // the notify with the mutex closes the check-then-wait race.
        { const std::lock_guard<std::mutex> lock(m_); }
        cv_done_.notify_one();
      }
    }
  }

  int threads_;
  std::vector<std::thread> workers_;
  std::mutex m_;
  std::condition_variable cv_start_, cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  int count_ = 0;
  std::atomic<int> next_{0};
  std::atomic<int> done_{0};
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<bool> stop_{false};
  std::exception_ptr error_;
};

}  // namespace gdvr
