// Checks of the event engine's run-in-place rules (DESIGN.md §4g), written
// once against sim::Simulator and run on the serial engine (sim_test) and on
// the sharded one (sharded_engine_test). Each schedules node-owned events for
// `node`; on the serial engine those are plain events.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"

namespace gdvr::test {

// A callback schedules enough events to grow its lane's slot storage, then
// reads its own captures. An event that ran inside storage which moves on
// growth would read freed memory here (ASan reports it).
inline void expect_callback_outlives_slot_growth(sim::Simulator& sim, int node) {
  const std::vector<int> payload{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> seen;
  int spawned = 0;
  sim.schedule_at_node(node, 1.0, [&sim, &seen, &spawned, node, payload] {
    for (int i = 0; i < 1000; ++i) sim.schedule_in_node(node, 1.0, [&spawned] { ++spawned; });
    seen = payload;
  });
  sim.run_until(5.0);
  EXPECT_EQ(seen, payload);
  EXPECT_EQ(spawned, 1000);
  EXPECT_GE(sim.slot_capacity(), 1001u);
  EXPECT_EQ(sim.pending(), 0u);
}

// A callback cancels its own id: the id was retired before the call, so the
// cancel is a no-op -- it neither cancels the event the callback just
// scheduled nor disturbs the live count.
inline void expect_self_cancel_is_a_no_op(sim::Simulator& sim, int node) {
  sim::Simulator::EventId self = sim::Simulator::kInvalidEvent;
  int fired = 0;
  std::size_t pending_after_cancel = 0;
  self = sim.schedule_at_node(node, 1.0, [&] {
    ++fired;
    sim.schedule_in_node(node, 1.0, [&fired] { ++fired; });
    sim.cancel(self);
    pending_after_cancel = sim.pending();
  });
  sim.run_until(5.0);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(pending_after_cancel, 1u);
  EXPECT_EQ(sim.pending(), 0u);
  sim.cancel(self);  // stale after the run as well
  EXPECT_EQ(sim.pending(), 0u);
}

// A captured shared_ptr is released exactly once: after its event fires,
// when the event is cancelled, and when the simulator is destroyed with the
// event still pending. `make` returns a fresh simulator.
template <typename MakeSim>
void expect_captures_released_once(MakeSim make, int node) {
  const auto token = std::make_shared<int>(7);
  {
    const std::unique_ptr<sim::Simulator> sim = make();
    int fired = 0;
    sim->schedule_at_node(node, 1.0, [token, &fired] { fired += *token; });
    EXPECT_EQ(token.use_count(), 2);
    sim->run_until(2.0);
    EXPECT_EQ(fired, 7);
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
  {
    const std::unique_ptr<sim::Simulator> sim = make();
    const sim::Simulator::EventId id = sim->schedule_at_node(node, 1.0, [token] {});
    sim->cancel(id);
    EXPECT_EQ(token.use_count(), 1);
    sim->run_until(2.0);
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
  {
    const std::unique_ptr<sim::Simulator> sim = make();
    sim->schedule_at_node(node, 1.0, [token] {});
    EXPECT_EQ(token.use_count(), 2);
  }
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace gdvr::test
