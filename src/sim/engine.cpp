// Sharded conservative-parallel executor for Simulator (DESIGN.md §4g).
//
// Execution alternates between two phases:
//
//  * global phase (main thread): runs every pending global-lane event whose
//    time precedes the earliest node-lane event, one at a time. Fault
//    scripts, watchdogs and harness callbacks mutate cross-node state here,
//    with no node lane in flight.
//
//  * parallel window: all node lanes advance concurrently up to a cap
//        cap = min(t_limit, pred(tn + L), pred(tg))
//    where tn is the earliest node-lane event, tg the earliest global event,
//    L the lookahead (minimum cross-node interaction delay, registered by
//    NetSim) and pred() the next-smaller double. Any cross-lane message
//    created inside the window arrives no earlier than its send time plus L,
//    hence strictly after the cap: no lane can affect another lane within
//    the same window, so lanes share no mutable state and may run on any
//    number of threads.
//
// Cross-lane schedules issued inside a window are buffered in the sending
// lane's outbox and merged into the target lanes at the barrier, iterating
// outboxes in lane order. The merge order -- like the shard count and the
// partition -- is a pure function of the scenario, never of the thread
// count, which is the whole determinism argument: a sharded run is
// bit-identical at GDVR_THREADS=1 and N.
#include "sim/simulator.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>

#include "common/parallel.hpp"
#include "obs/trace.hpp"

namespace gdvr::sim {

namespace {

// Lane executing on this thread during a parallel window: -1 in the global
// phase (and on every thread of a serial simulator). Drives the lane-local
// now() and the own-lane-only scheduling/cancel rules.
thread_local int g_current_lane = -1;

}  // namespace

SimEngine engine_from_env() {
  if (const char* env = std::getenv("GDVR_SIM_ENGINE")) {
    if (std::strcmp(env, "sharded") == 0) return SimEngine::kSharded;
    GDVR_ASSERT_MSG(std::strcmp(env, "serial") == 0 || env[0] == '\0',
                    "GDVR_SIM_ENGINE must be 'serial' or 'sharded'");
  }
  return SimEngine::kSerial;
}

const char* engine_name(SimEngine e) {
  return e == SimEngine::kSharded ? "sharded" : "serial";
}

struct Simulator::Sharded {
  // A cross-lane schedule buffered until the window barrier.
  struct Pending {
    int lane;
    Time at;
    EventFn fn;
  };

  // Pooled per-source-lane buffer of cross-lane schedules: cleared (capacity
  // kept) at every barrier, so appends stop allocating once the workload's
  // per-window fan-out peaks. Each lane writes only its own counters inside
  // a window -- no races.
  struct Outbox {
    std::vector<Pending> buf;
    std::uint64_t grows = 0;  // reallocations caused by push_back
    std::uint64_t peak = 0;   // largest single-window size
  };

  std::vector<int> shard_of;             // node -> shard (lane = shard + 1)
  std::vector<Lane> lanes;               // node lanes; lanes[i] is lane i+1
  std::vector<Outbox> outbox;            // per source node lane
  std::vector<obs::TraceSink> sinks;     // per-lane trace buffers
  WorkerPool pool;

  Sharded(std::vector<int> so, int shards, int threads)
      : shard_of(std::move(so)),
        lanes(static_cast<std::size_t>(shards)),
        outbox(static_cast<std::size_t>(shards)),
        sinks(static_cast<std::size_t>(shards)),
        pool(threads) {
    // Warm start: one cache-page worth of slots per lane keeps typical
    // control-plane scenarios from logging the first few doublings as
    // growth in every run.
    for (Outbox& b : outbox) b.buf.reserve(64);
  }
};

Simulator::Simulator() = default;
Simulator::~Simulator() = default;

void Simulator::configure_sharding(std::vector<int> shard_of, int threads) {
  GDVR_ASSERT_MSG(!sharded_, "configure_sharding called twice");
  GDVR_ASSERT_MSG(serial_.now == 0.0, "configure_sharding must precede run_until");
  int shards = 0;
  for (int s : shard_of) {
    GDVR_ASSERT_MSG(s >= 0, "negative shard index");
    shards = std::max(shards, s + 1);
  }
  GDVR_ASSERT_MSG(shards >= 1, "empty shard partition");
  GDVR_ASSERT_MSG(shards < (1 << 16) - 1, "too many shards for the lane field");
  sharded_ = std::make_unique<Sharded>(std::move(shard_of), shards,
                                       resolve_thread_count(threads));
}

int Simulator::shard_count() const {
  return sharded_ ? static_cast<int>(sharded_->lanes.size()) : 1;
}

int Simulator::shard_of_node(int node) const {
  if (!sharded_) return 0;
  GDVR_ASSERT(node >= 0 &&
              node < static_cast<int>(sharded_->shard_of.size()));
  return sharded_->shard_of[static_cast<std::size_t>(node)];
}

int Simulator::node_lane(int node) const { return shard_of_node(node) + 1; }

Time Simulator::sharded_now() const {
  const int cl = g_current_lane;
  if (cl >= 1) return sharded_->lanes[static_cast<std::size_t>(cl - 1)].now;
  return serial_.now;
}

double Simulator::lookahead() const {
  double min_delay = kInfTime;
  for (const auto& provider : lookahead_)
    min_delay = std::min(min_delay, provider());
  return min_delay;
}

Simulator::EventId Simulator::sharded_schedule(int lane, Time at, EventFn&& fn) {
  Sharded& sh = *sharded_;
  const int cl = g_current_lane;
  if (cl < 0) {
    // Global phase: no lane is in flight, direct push anywhere is safe.
    GDVR_ASSERT_MSG(at >= serial_.now, "cannot schedule in the past");
    Lane& ln = lane == kGlobalLane ? serial_
                                   : sh.lanes[static_cast<std::size_t>(lane - 1)];
    return lane_push(ln, lane, at, std::move(fn));
  }
  if (lane == cl) {
    // Own lane: runs later in this very window if at <= cap.
    Lane& ln = sh.lanes[static_cast<std::size_t>(cl - 1)];
    GDVR_ASSERT_MSG(at >= ln.now, "cannot schedule in the past");
    return lane_push(ln, lane, at, std::move(fn));
  }
  // Cross-lane from inside a window: buffer until the barrier. These are
  // fire-and-forget (message deliveries); the id cannot be handed out before
  // the merge, so they are not cancelable.
  Sharded::Outbox& box = sh.outbox[static_cast<std::size_t>(cl - 1)];
  if (box.buf.size() == box.buf.capacity()) ++box.grows;
  box.buf.push_back({lane, at, std::move(fn)});
  box.peak = std::max<std::uint64_t>(box.peak, box.buf.size());
  return kInvalidEvent;
}

void Simulator::sharded_cancel(EventId id) {
  const int lane = lane_of(id);
  const int cl = g_current_lane;
  GDVR_ASSERT_MSG(cl < 0 || cl == lane,
                  "cross-lane cancel inside a parallel window");
  Lane& ln = lane == kGlobalLane
                 ? serial_
                 : sharded_->lanes[static_cast<std::size_t>(lane - 1)];
  lane_cancel(ln, id);
}

void Simulator::sharded_run_until(Time t) {
  GDVR_ASSERT_MSG(g_current_lane < 0, "run_until re-entered from an event");
  Sharded& sh = *sharded_;
  const int nlanes = static_cast<int>(sh.lanes.size());
  // The caller's sink (if any) receives global-phase events directly and
  // absorbs the per-lane buffers at each barrier.
  obs::TraceSink* main_sink = obs::trace_sink();

  for (;;) {
    const Time tg = lane_peek(serial_);
    Time tn = kInfTime;
    for (Lane& ln : sh.lanes) tn = std::min(tn, lane_peek(ln));

    if (tg <= t && tg <= tn) {  // global-first on exact-time ties
      serial_step();
      continue;
    }
    if (tn > t) break;

    const double look = lookahead();
    GDVR_ASSERT_MSG(look > 0.0,
                    "sharded engine requires a positive lookahead "
                    "(is a NetSim attached with delay_min > 0?)");
    Time cap = t;
    if (tn + look < kInfTime)
      cap = std::min(cap, std::nextafter(tn + look, -kInfTime));
    if (tg < kInfTime) cap = std::min(cap, std::nextafter(tg, -kInfTime));
    GDVR_ASSERT(cap >= tn);  // at least one event per window: progress

    // The lane body captures one reference, so the std::function that
    // parallel_for takes keeps it inline: a window allocates nothing.
    const struct {
      Sharded& sh;
      obs::TraceSink* main_sink;
      Time cap;
    } w{sh, main_sink, cap};
    sh.pool.parallel_for(nlanes, [&w](int i) {
      Lane& ln = w.sh.lanes[static_cast<std::size_t>(i)];
      g_current_lane = i + 1;
      if (w.main_sink) {
        obs::TraceSink& sink = w.sh.sinks[static_cast<std::size_t>(i)];
        sink.set_trace_control(w.main_sink->trace_control());
        const obs::ScopedTrace scoped(sink);
        run_lane(ln, w.cap);
      } else {
        run_lane(ln, w.cap);
      }
      g_current_lane = -1;
    });

    // Barrier: merge outboxes and trace buffers in lane order. Both merges
    // depend only on the partition and the scenario, not the thread count.
    for (int i = 0; i < nlanes; ++i) {
      auto& box = sh.outbox[static_cast<std::size_t>(i)].buf;
      for (Sharded::Pending& p : box) {
        if (p.lane == kGlobalLane) {
          // No lookahead guarantee toward the global lane: run it as soon
          // as causally possible, i.e. strictly after this window.
          const Time at = std::max(p.at, std::nextafter(cap, kInfTime));
          lane_push(serial_, kGlobalLane, at, std::move(p.fn));
        } else {
          GDVR_ASSERT_MSG(p.at > cap, "cross-lane message inside the window");
          lane_push(sh.lanes[static_cast<std::size_t>(p.lane - 1)], p.lane,
                    p.at, std::move(p.fn));
        }
      }
      box.clear();
    }
    if (main_sink)
      for (int i = 0; i < nlanes; ++i)
        main_sink->absorb(sh.sinks[static_cast<std::size_t>(i)]);
  }

  serial_.now = t;
  for (Lane& ln : sh.lanes) ln.now = t;
}

void Simulator::run_lane(Lane& ln, Time cap) {
  while (lane_peek(ln) <= cap) {
    const EventHeap::Entry e = ln.queue.top();
    ln.queue.pop();
    lane_run(ln, e);
  }
  ln.now = cap;
}

Simulator::ShardedStats Simulator::sharded_stats() const {
  ShardedStats s;
  if (!sharded_) return s;
  for (const Sharded::Outbox& b : sharded_->outbox) {
    s.outbox_grows += b.grows;
    s.outbox_peak = std::max(s.outbox_peak, b.peak);
  }
  return s;
}

std::size_t Simulator::sharded_live() const {
  std::size_t n = serial_.live;
  for (const Lane& ln : sharded_->lanes) n += ln.live;
  return n;
}

std::size_t Simulator::slot_capacity() const {
  std::size_t n = serial_.slots.size();
  if (sharded_)
    for (const Lane& ln : sharded_->lanes) n += ln.slots.size();
  return n;
}

}  // namespace gdvr::sim
