// Tests for the adaptive (phi-accrual) failure detector: the suspicion
// math on known sample streams, the bootstrap fallback, and -- on a live
// overlay -- the two acceptance bounds: a crashed multi-hop DT neighbor is
// evicted within 15 s (a third of the fixed 45 s soft-state timeout), and a
// 4x delay spike causes zero false evictions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "mdt/failure_detector.hpp"
#include "mdt/overlay.hpp"
#include "radio/topology.hpp"
#include "sim/simulator.hpp"

namespace gdvr::mdt {
namespace {

FailureDetectorConfig test_config() {
  FailureDetectorConfig c;
  c.enabled = true;
  return c;
}

TEST(PhiAccrual, PhiIsZeroAfterHeartbeatAndGrowsThroughSilence) {
  PhiAccrualDetector d(test_config(), 0.0);
  for (int i = 1; i <= 8; ++i) d.heartbeat(3.0 * i);  // clean 3 s cadence
  EXPECT_EQ(d.samples(), 8);
  EXPECT_NEAR(d.mean_interval(), 3.0, 1e-9);
  const double t_last = 24.0;
  EXPECT_LT(d.phi(t_last + 0.1), 0.1);
  const double p1 = d.phi(t_last + 4.0);
  const double p2 = d.phi(t_last + 8.0);
  const double p3 = d.phi(t_last + 16.0);
  EXPECT_LT(p1, p2);
  EXPECT_LT(p2, p3);
  EXPECT_GT(p3, 9.0);
}

TEST(PhiAccrual, SingleMissedHeartbeatStaysBelowThreshold) {
  // The min_stddev floor is sized so one lost heartbeat (one extra period of
  // silence) does not cross the threshold, while two consecutive losses do.
  const FailureDetectorConfig c = test_config();
  PhiAccrualDetector d(c, 0.0);
  for (int i = 1; i <= 10; ++i) d.heartbeat(c.heartbeat_period_s * i);
  const double t_last = c.heartbeat_period_s * 10;
  EXPECT_FALSE(d.suspect(t_last + 2.0 * c.heartbeat_period_s));  // one loss
  EXPECT_TRUE(d.suspect(t_last + 3.5 * c.heartbeat_period_s));   // two losses
}

TEST(PhiAccrual, BootstrapFallsBackToFixedTimeout) {
  const FailureDetectorConfig c = test_config();
  PhiAccrualDetector d(c, 0.0);
  d.heartbeat(3.0);
  d.heartbeat(6.0);  // 2 samples < min_samples: the normal model is not used
  ASSERT_LT(d.samples(), c.min_samples);
  // Thin statistics never evict early, even after many silent periods...
  EXPECT_FALSE(d.suspect(6.0 + 0.9 * c.bootstrap_stale_s));
  // ...but the legacy staleness bound still applies.
  EXPECT_TRUE(d.suspect(6.0 + 1.1 * c.bootstrap_stale_s));
}

TEST(PhiAccrual, LearnsTheObservedCadence) {
  // A neighbor heartbeating at 9 s (three times the configured period, e.g.
  // over a congested path) must be judged against its own cadence: silence
  // that would damn a 3 s neighbor is routine here.
  PhiAccrualDetector d(test_config(), 0.0);
  for (int i = 1; i <= 8; ++i) d.heartbeat(9.0 * i);
  EXPECT_NEAR(d.mean_interval(), 9.0, 1e-9);
  EXPECT_FALSE(d.suspect(72.0 + 10.0));
  EXPECT_TRUE(d.suspect(72.0 + 30.0));
}

TEST(PhiAccrual, WindowSlidesOldSamplesOut) {
  FailureDetectorConfig c = test_config();
  c.window = 4;
  PhiAccrualDetector d(c, 0.0);
  double t = 0.0;
  for (int i = 0; i < 4; ++i) d.heartbeat(t += 10.0);
  for (int i = 0; i < 4; ++i) d.heartbeat(t += 2.0);  // cadence shifts
  EXPECT_NEAR(d.mean_interval(), 2.0, 1e-9);  // the 10 s samples aged out
  EXPECT_EQ(d.samples(), 4);
}

TEST(PhiAccrual, VarianceTracksNoisySamples) {
  PhiAccrualDetector d(test_config(), 0.0);
  d.heartbeat(2.0);   // intervals: 2, 4
  d.heartbeat(6.0);
  EXPECT_NEAR(d.mean_interval(), 3.0, 1e-9);
  EXPECT_NEAR(d.stddev_interval(), 1.0, 1e-9);
}

// --------------------------------------------------------------------------
// Live-overlay acceptance bounds, on a star topology (hub 0, leaves around
// it): leaves are multi-hop DT neighbors of each other through the hub, so
// their liveness tracking runs entirely on heartbeats + phi.

struct Star {
  radio::Topology topo;
  sim::Simulator sim;
  std::unique_ptr<Net> net;
  std::unique_ptr<MdtOverlay> overlay;
  int leaves;

  explicit Star(int leaf_count) : leaves(leaf_count) {
    graph::GraphBuilder gb(leaves + 1);
    topo.positions.push_back(Vec{0.0, 0.0});
    for (int i = 0; i < leaves; ++i) {
      const double angle = 2.0 * 3.14159265358979 * i / leaves;
      topo.positions.push_back(Vec{std::cos(angle), std::sin(angle)});
      gb.add_bidirectional(0, i + 1, 1.0, 1.0);
    }
    topo.etx = gb.build();
    topo.hops = topo.etx.with_unit_costs();
    net = std::make_unique<Net>(sim, topo.etx, 0.01, 0.1, 3);
    MdtConfig mc;
    mc.dim = 2;
    mc.fd.enabled = true;
    overlay = std::make_unique<MdtOverlay>(*net, mc);
    overlay->attach();
    for (int u = 0; u <= leaves; ++u)
      overlay->activate(u, topo.positions[static_cast<std::size_t>(u)], u == 0);
    for (int u = 1; u <= leaves; ++u) sim.schedule_at(0.1 * u, [this, u] { overlay->start_join(u); });
    sim.run_until(15.0);
    for (int u = 0; u <= leaves; ++u) overlay->run_maintenance_round(u);
    sim.run_until(25.0);
    for (int u = 0; u <= leaves; ++u) overlay->run_maintenance_round(u);
    // Long steady stretch: every leaf-leaf detector accumulates well past
    // min_samples heartbeat inter-arrivals.
    sim.run_until(60.0);
  }

  // Leaves (multi-hop relationships only) currently holding y as DT neighbor.
  std::vector<int> watchers_of(int y) const {
    std::vector<int> out;
    for (int u = 1; u <= leaves; ++u) {
      if (u == y) continue;
      const auto nbrs = overlay->dt_neighbors(u);
      if (std::find(nbrs.begin(), nbrs.end(), y) != nbrs.end()) out.push_back(u);
    }
    return out;
  }
};

TEST(FailureDetectorLive, CrashedMultiHopNeighborEvictedWithin15s) {
  Star star(6);
  const int victim = 2;
  const auto watchers = star.watchers_of(victim);
  ASSERT_FALSE(watchers.empty());  // leaves really are DT neighbors via the hub
  ASSERT_GT(star.overlay->fd_stats().heartbeats_sent, 0u);
  ASSERT_EQ(star.overlay->fd_stats().evictions, 0u);  // steady state: no false evictions

  const sim::Time t_crash = star.sim.now();
  star.overlay->deactivate(victim);

  // One missed heartbeat is not proof of death: shortly after the crash the
  // victim must still be held (phi below threshold).
  star.sim.run_until(t_crash + 3.0);
  EXPECT_EQ(star.overlay->fd_stats().evictions, 0u);

  // A third of the fixed 45 s soft-state timeout: every watcher has evicted.
  star.sim.run_until(t_crash + 15.0);
  EXPECT_GE(star.overlay->fd_stats().evictions, watchers.size());
  EXPECT_GE(star.overlay->fd_stats().tombstones_created, watchers.size());
  for (int u : watchers) {
    const auto nbrs = star.overlay->dt_neighbors(u);
    EXPECT_EQ(std::find(nbrs.begin(), nbrs.end(), victim), nbrs.end())
        << "watcher " << u << " still holds the crashed neighbor";
  }
}

TEST(FailureDetectorLive, FourXDelaySpikeCausesNoFalseEvictions) {
  Star star(6);
  std::vector<std::vector<NodeId>> before;
  for (int u = 0; u <= star.leaves; ++u) before.push_back(star.overlay->dt_neighbors(u));
  ASSERT_EQ(star.overlay->fd_stats().evictions, 0u);

  star.net->set_delay_factor(4.0);
  star.sim.run_until(star.sim.now() + 30.0);  // ten heartbeat periods under the spike
  EXPECT_EQ(star.overlay->fd_stats().evictions, 0u);

  star.net->set_delay_factor(1.0);
  star.sim.run_until(star.sim.now() + 10.0);
  EXPECT_EQ(star.overlay->fd_stats().evictions, 0u);
  for (int u = 0; u <= star.leaves; ++u)
    EXPECT_EQ(star.overlay->dt_neighbors(u), before[static_cast<std::size_t>(u)]) << u;
}

TEST(FailureDetectorLive, FalseEvictionHealsThroughDirectContact) {
  // Force a false eviction by hand and verify the tombstone does not pin the
  // live neighbor out forever: its next heartbeat (same incarnation, direct
  // contact) clears the tombstone and gossip re-teaches the candidate.
  Star star(6);
  const int victim = 3;
  const auto watchers = star.watchers_of(victim);
  ASSERT_FALSE(watchers.empty());
  const int watcher = watchers.front();

  star.overlay->evict_for_test(watcher, victim);
  star.sim.run_until(star.sim.now() + 1.0);  // coalesced recompute fires
  {
    const auto nbrs = star.overlay->dt_neighbors(watcher);
    ASSERT_EQ(std::find(nbrs.begin(), nbrs.end(), victim), nbrs.end());
  }
  // The victim is alive and still heartbeating this watcher; within a few
  // periods (plus a maintenance round to re-sync) the edge is restored.
  for (int round = 0; round < 4; ++round) {
    for (int u = 0; u <= star.leaves; ++u) star.overlay->run_maintenance_round(u);
    star.sim.run_until(star.sim.now() + 8.0);
  }
  const auto nbrs = star.overlay->dt_neighbors(watcher);
  EXPECT_NE(std::find(nbrs.begin(), nbrs.end(), victim), nbrs.end());
}

}  // namespace
}  // namespace gdvr::mdt
