// Discrete-event simulation engine with two interchangeable executors.
//
// Matches the paper's methodology (Section IV-A): queueing is not modeled;
// each message takes a uniformly random time to cross a link. Events with
// equal timestamps fire in scheduling order (a monotone sequence number
// breaks ties), so runs are fully deterministic for a given seed.
//
// Engines (see DESIGN.md §4g):
//
//  * kSerial  -- the original single event loop. One 4-ary heap, one clock.
//                This is the oracle every other engine is pinned against.
//  * kSharded -- conservative (lookahead-synchronized) parallel execution.
//                Nodes are partitioned into shards; each shard owns a lane
//                (its own heap, slot table, sequence counter and clock) and
//                lanes advance in windows bounded by the minimum cross-node
//                message delay (the lookahead, registered by NetSim).
//                Within a window lanes run concurrently on a persistent
//                WorkerPool; cross-lane schedules are buffered in per-lane
//                outboxes and merged at the window barrier in lane order, so
//                the merge is a pure function of the partition, never of the
//                thread count. Events not owned by any node (fault actions,
//                watchdogs, harness callbacks) live on a global lane that
//                executes serially between windows.
//
// Determinism contract: a sharded run is bit-identical for any GDVR_THREADS
// value, because the shard count and partition are fixed independently of
// the worker count and shards share no mutable state inside a window (the
// protocol layers keep per-node RNG streams and counters for exactly this
// reason). The serial engine stays the behavioral oracle: the same scenario
// produces identical per-node event sequences, RNG draws and counters on
// both engines (golden tests pin this), though trace *ordering* differs --
// the sharded engine flushes per-lane trace buffers at window barriers.
//
// Callback storage is O(pending events), not O(events ever scheduled): each
// event occupies a slot that is reclaimed when the event fires or is
// cancelled, and EventIds carry a per-slot generation counter so a stale id
// (from an already-fired or cancelled event) can never cancel the slot's
// current occupant. The callable lives inline in its slot (EventFn) and runs
// there, so scheduling and running an event allocate nothing once a lane's
// slots are warm.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace gdvr::sim {

using Time = double;  // seconds

enum class SimEngine { kSerial, kSharded };

// Resolves GDVR_SIM_ENGINE ("serial" | "sharded", default serial). This is
// the engine-selection seam the runners consult; low-level Simulator
// construction stays serial unless configure_sharding is called, so unit
// tests that build bare simulators are unaffected by the environment.
SimEngine engine_from_env();
const char* engine_name(SimEngine e);

// 4-ary min-heap keyed on (time, sequence). Half the depth of the binary
// std::priority_queue it replaced, and the four children of a node share a
// cache line: a measurable win on the pop-heavy event loop
// (BM_SimulatorEventLoop). The comparator is a strict total order (seq is
// unique per lane), so pop order -- and therefore every golden digest -- is
// identical to the old binary heap.
class EventHeap {
 public:
  struct Entry {
    Time at;
    std::uint64_t seq;  // monotone per lane: FIFO among equal times
    std::uint64_t id;
  };

  bool empty() const { return h_.empty(); }
  std::size_t size() const { return h_.size(); }
  const Entry& top() const { return h_.front(); }

  void push(Entry e) {
    h_.push_back(e);
    std::size_t i = h_.size() - 1;
    while (i > 0) {
      const std::size_t parent = (i - 1) >> 2;
      if (!less(h_[i], h_[parent])) break;
      std::swap(h_[i], h_[parent]);
      i = parent;
    }
  }

  void pop() {
    GDVR_ASSERT(!h_.empty());
    h_.front() = h_.back();
    h_.pop_back();
    if (h_.empty()) return;
    std::size_t i = 0;
    const std::size_t n = h_.size();
    for (;;) {
      const std::size_t first = (i << 2) + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c)
        if (less(h_[c], h_[best])) best = c;
      if (!less(h_[best], h_[i])) break;
      std::swap(h_[i], h_[best]);
      i = best;
    }
  }

 private:
  static bool less(const Entry& a, const Entry& b) {
    return a.at != b.at ? a.at < b.at : a.seq < b.seq;
  }
  std::vector<Entry> h_;
};

// A move-only `void()` callable stored inline: the event engine's slot and
// outbox payload. Every closure the tree schedules fits kCapacity bytes (the
// largest is NetSim<mdt::Envelope>'s delivery, 336 B; with the ops pointer
// an EventFn is 352 B); a larger one fails the static_assert in emplace(),
// so there is no heap fallback.
class EventFn {
 public:
  static constexpr std::size_t kCapacity = 344;

  EventFn() = default;
  template <typename F>
    requires(!std::is_same_v<std::decay_t<F>, EventFn>)
  explicit EventFn(F&& f) {
    emplace(std::forward<F>(f));
  }
  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  // Constructs the callable in place (an EventFn rvalue is moved from);
  // this EventFn must be empty.
  template <typename F>
  void emplace(F&& f) {
    GDVR_ASSERT(ops_ == nullptr);
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, EventFn>) {
      static_assert(!std::is_lvalue_reference_v<F>, "pass an EventFn as an rvalue");
      take(f);
    } else {
      static_assert(sizeof(Fn) <= kCapacity, "event closure does not fit EventFn::kCapacity");
      static_assert(alignof(Fn) <= alignof(std::max_align_t), "over-aligned event closure");
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kOps<Fn>;
    }
  }

  void operator()() { ops_->invoke(buf_); }

  // Destroys the callable (and everything it captured).
  void reset() {
    if (ops_ == nullptr) return;
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->destroy(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct at dst, destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  static constexpr Ops kOps{
      [](void* p) { (*static_cast<Fn*>(p))(); },
      [](void* dst, void* src) {
        Fn* from = static_cast<Fn*>(src);
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) { static_cast<Fn*>(p)->~Fn(); },
  };

  void take(EventFn& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(buf_, other.buf_);
    ops_ = other.ops_;
    other.ops_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char buf_[kCapacity];
  const Ops* ops_ = nullptr;
};

class Simulator {
 public:
  // Encodes (lane << 48) | (generation << 24) | (slot + 1); 0 is never a
  // valid id, so a zero-initialized EventId is safely cancelable as a no-op.
  // Lane 0 is the global lane (and the only lane of the serial engine);
  // node lanes are 1-based.
  using EventId = std::uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  Simulator();  // out of line: unique_ptr<Sharded> needs the complete type
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimEngine engine() const { return sharded_ ? SimEngine::kSharded : SimEngine::kSerial; }

  // Switches this simulator to the sharded engine. shard_of[u] gives the
  // shard (0-based, contiguous) owning node u; the shard count and partition
  // must not depend on the thread count or the determinism contract breaks.
  // threads <= 0 resolves via GDVR_THREADS / hardware concurrency. Must be
  // called before any node-owned event is scheduled.
  void configure_sharding(std::vector<int> shard_of, int threads = 0);
  int shard_count() const;
  int shard_of_node(int node) const;

  // Lookahead: the minimum delay of any cross-node interaction, i.e. the
  // window length the sharded engine may safely run lanes in parallel for.
  // NetSim registers its minimum per-hop link delay here; when several
  // providers exist the minimum wins. Queried at every window boundary, so
  // fault actions that scale delays are picked up by the next window.
  void add_lookahead_provider(std::function<double()> provider) {
    lookahead_.push_back(std::move(provider));
  }

  // Current simulation time. Inside a sharded window this is the executing
  // lane's clock (the timestamp of the event being processed), which is what
  // protocol code timestamping its own state must see.
  Time now() const { return sharded_ ? sharded_now() : serial_.now; }

  // --- scheduling ----------------------------------------------------------
  // Every schedule call takes any `void()` callable -- a lambda, or a
  // std::function, which is copied when passed as an lvalue -- and stores it
  // inline in the event's slot (EventFn).
  //
  // Global-lane events: fault scripts, watchdogs, harness callbacks --
  // anything that reads or writes state spanning nodes. The sharded engine
  // runs these serially at window barriers.
  template <typename F>
  EventId schedule_at(Time at, F&& fn) {
    if (!sharded_) return serial_schedule(at, std::forward<F>(fn));
    return sharded_schedule(kGlobalLane, at, EventFn(std::forward<F>(fn)));
  }
  template <typename F>
  EventId schedule_in(Time delay, F&& fn) {
    return schedule_at(now() + delay, std::forward<F>(fn));
  }

  // Node-owned events: message deliveries and per-node protocol timers whose
  // callbacks touch only that node's state (plus sends). The serial engine
  // treats these exactly like schedule_at, preserving its global (time,
  // schedule-order) semantics bit-for-bit.
  template <typename F>
  EventId schedule_at_node(int node, Time at, F&& fn) {
    if (!sharded_) return serial_schedule(at, std::forward<F>(fn));
    return sharded_schedule(node_lane(node), at, EventFn(std::forward<F>(fn)));
  }
  template <typename F>
  EventId schedule_in_node(int node, Time delay, F&& fn) {
    return schedule_at_node(node, now() + delay, std::forward<F>(fn));
  }

  // Cancels a pending event; stale ids are no-ops. Inside a sharded window a
  // lane may only cancel its own events (checked); the global phase may
  // cancel anything.
  void cancel(EventId id) {
    if (id == kInvalidEvent) return;
    if (!sharded_) {
      lane_cancel(serial_, id);
      return;
    }
    sharded_cancel(id);
  }

  bool empty() const { return live_count() == 0; }
  // Number of live (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return live_count(); }
  // Storage bound: slots ever allocated across lanes (regression hook --
  // must track peak pending, not total events scheduled).
  std::size_t slot_capacity() const;

  // Sharded-engine allocation counters (zeros on the serial engine). The
  // per-lane outboxes are pooled: clear() at the barrier keeps capacity, so
  // `outbox_grows` -- buffer reallocations while appending -- must stop
  // increasing once a workload reaches steady state (pinned in
  // sharded_engine_test).
  struct ShardedStats {
    std::uint64_t outbox_grows = 0;
    std::uint64_t outbox_peak = 0;  // max cross-lane messages buffered by one lane in one window
  };
  ShardedStats sharded_stats() const;

  // Runs one event; returns false if the queue is empty. Serial engine only
  // (the sharded engine advances in windows, not single events).
  bool step() {
    GDVR_ASSERT_MSG(!sharded_, "step() is serial-only; use run_until");
    return serial_step();
  }

  // Runs all events with time <= t, then advances the clock to exactly t.
  void run_until(Time t) {
    if (sharded_) {
      sharded_run_until(t);
      return;
    }
    while (lane_peek(serial_) <= t) serial_step();
    serial_.now = t;
  }

  // Drains the whole queue (use with care: protocols with periodic timers
  // never drain; prefer run_until). Serial engine only.
  void run_all(std::size_t max_events = SIZE_MAX) {
    GDVR_ASSERT_MSG(!sharded_, "run_all() is serial-only; use run_until");
    for (std::size_t i = 0; i < max_events && serial_step(); ++i) {
    }
  }

 private:
  struct Slot {
    EventFn fn;
    std::uint32_t gen = 0;  // kept within kGenBits, the width an EventId carries
    bool live = false;
  };

  // A lane's slots never move: an event runs in its own slot while its
  // callback schedules more events, and push_back on a std::deque keeps
  // every element where it is. (A std::vector<Slot> would reallocate under
  // the running callable.)
  struct Lane {
    EventHeap queue;
    std::deque<Slot> slots;
    std::vector<std::uint32_t> free;
    std::uint64_t next_seq = 0;
    std::size_t live = 0;
    Time now = 0.0;
  };

  static constexpr int kGlobalLane = 0;
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kGenBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (1ull << kGenBits) - 1;

  static EventId make_id(int lane, std::uint32_t slot, std::uint32_t gen) {
    return (static_cast<EventId>(lane) << (kSlotBits + kGenBits)) |
           (static_cast<EventId>(gen) << kSlotBits) | (static_cast<EventId>(slot) + 1);
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>((id & kSlotMask) - 1);
  }
  static std::uint32_t gen_of(EventId id) {
    return static_cast<std::uint32_t>((id >> kSlotBits) & kGenMask);
  }
  static int lane_of(EventId id) {
    return static_cast<int>(id >> (kSlotBits + kGenBits));
  }
  static bool holds(const Slot& s, EventId id) { return s.live && s.gen == gen_of(id); }

  // --- lane primitives (engine-agnostic) -----------------------------------
  template <typename F>
  static EventId lane_push(Lane& ln, int lane, Time at, F&& fn) {
    std::uint32_t slot;
    if (!ln.free.empty()) {
      slot = ln.free.back();
      ln.free.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(ln.slots.size());
      GDVR_ASSERT_MSG(slot < kSlotMask, "event slot space exhausted");
      ln.slots.emplace_back();
    }
    Slot& s = ln.slots[slot];
    s.fn.emplace(std::forward<F>(fn));
    s.live = true;
    const EventId id = make_id(lane, slot, s.gen);
    ln.queue.push({at, ln.next_seq++, id});
    ++ln.live;
    return id;
  }

  // Ends the slot's current event: no longer live, and every EventId issued
  // for it is stale from here on. The generation wraps inside kGenMask, so it
  // keeps matching the ids make_id issues however often the slot is reused.
  static void lane_retire(Lane& ln, Slot& s) {
    s.live = false;
    s.gen = (s.gen + 1) & static_cast<std::uint32_t>(kGenMask);
    GDVR_ASSERT(ln.live > 0);
    --ln.live;
  }

  static void lane_cancel(Lane& ln, EventId id) {
    const std::uint32_t slot = slot_of(id);
    GDVR_ASSERT(slot < ln.slots.size());
    Slot& s = ln.slots[slot];
    if (!holds(s, id)) return;  // already fired, running or cancelled
    lane_retire(ln, s);         // its heap entry becomes a tombstone
    s.fn.reset();
    ln.free.push_back(slot);
  }

  // Runs a live event in place: retire its id first (a cancel from inside
  // the callback is then a no-op), invoke the callable where it lies, then
  // destroy it and free the slot. The slot is not on the free list while
  // the callback runs, so nothing the callback schedules can land in it.
  static void lane_run(Lane& ln, const EventHeap::Entry& e) {
    const std::uint32_t slot = slot_of(e.id);
    Slot& s = ln.slots[slot];
    ln.now = e.at;
    lane_retire(ln, s);
    s.fn();
    s.fn.reset();
    ln.free.push_back(slot);
  }

  // Earliest live event time of a lane, popping tombstones; +inf when empty.
  static Time lane_peek(Lane& ln) {
    while (!ln.queue.empty()) {
      const EventHeap::Entry& e = ln.queue.top();
      if (holds(ln.slots[slot_of(e.id)], e.id)) return e.at;
      ln.queue.pop();
    }
    return kInfTime;
  }

  static constexpr Time kInfTime = 1e300;

  // --- serial engine -------------------------------------------------------
  template <typename F>
  EventId serial_schedule(Time at, F&& fn) {
    GDVR_ASSERT_MSG(at >= serial_.now, "cannot schedule in the past");
    return lane_push(serial_, kGlobalLane, at, std::forward<F>(fn));
  }

  bool serial_step() {
    Lane& ln = serial_;
    while (!ln.queue.empty()) {
      const EventHeap::Entry e = ln.queue.top();
      ln.queue.pop();
      if (!holds(ln.slots[slot_of(e.id)], e.id)) continue;  // cancelled tombstone
      lane_run(ln, e);
      return true;
    }
    GDVR_ASSERT(ln.live == 0);
    return false;
  }

  // --- sharded engine (src/sim/engine.cpp) ---------------------------------
  struct Sharded;
  int node_lane(int node) const;
  EventId sharded_schedule(int lane, Time at, EventFn&& fn);
  void sharded_cancel(EventId id);
  void sharded_run_until(Time t);
  static void run_lane(Lane& ln, Time cap);
  Time sharded_now() const;
  std::size_t sharded_live() const;
  double lookahead() const;

  std::size_t live_count() const { return sharded_ ? sharded_live() : serial_.live; }

  Lane serial_;  // the serial engine's only lane; the global lane when sharded
  std::vector<std::function<double()>> lookahead_;
  std::unique_ptr<Sharded> sharded_;
};

}  // namespace gdvr::sim
