// Tests for the fault-injection subsystem: schedule construction,
// seed-determinism of random chaos, windowed-knob nesting, and partitions.
#include <gtest/gtest.h>

#include <cmath>
#include <queue>
#include <set>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "sim/faults.hpp"
#include "sim/netsim.hpp"
#include "sim/simulator.hpp"

namespace gdvr::sim {
namespace {

struct NoMsg {};

// A NetSim-backed world the injector drives; crash/recover map straight to
// node liveness (protocol-level hooks are exercised by the chaos test).
struct World {
  Simulator sim;
  graph::Graph g;
  NetSim<NoMsg> net;
  std::vector<std::pair<int, int>> edge_list;

  explicit World(int n, const std::vector<std::pair<int, int>>& edges)
      : g([&] {
          graph::GraphBuilder gb(n);
          for (const auto& [u, v] : edges) gb.add_bidirectional(u, v, 1.0, 1.0);
          return gb.build();
        }()),
        net(sim, g, 0.01, 0.05, 7),
        edge_list(edges) {}

  FaultActions actions() {
    FaultActions a;
    a.crash = [this](int u) { net.set_alive(u, false); };
    a.recover = [this](int u) { net.set_alive(u, true); };
    a.set_link_up = [this](int u, int v, bool up) { net.set_link_up(u, v, up); };
    a.set_loss = [this](double p) { net.set_fault_loss(p); };
    a.set_duplication = [this](double p) { net.set_duplication(p); };
    a.set_delay_factor = [this](double f) { net.set_delay_factor(f); };
    a.node_count = [this] { return net.size(); };
    a.edges = [this] { return edge_list; };
    a.is_alive = [this](int u) { return net.alive(u); };
    return a;
  }

  // Connectivity over usable links and alive nodes, from node 0.
  int reachable_from(int s) {
    std::vector<char> seen(static_cast<std::size_t>(net.size()), 0);
    std::queue<int> q;
    q.push(s);
    seen[static_cast<std::size_t>(s)] = 1;
    int count = 1;
    while (!q.empty()) {
      const int u = q.front();
      q.pop();
      net.for_each_alive_neighbor(u, [&](const graph::Edge& e) {
        if (seen[static_cast<std::size_t>(e.to)]) return;
        seen[static_cast<std::size_t>(e.to)] = 1;
        ++count;
        q.push(e.to);
      });
    }
    return count;
  }
};

std::vector<std::pair<int, int>> ring_edges(int n) {
  std::vector<std::pair<int, int>> e;
  for (int i = 0; i < n; ++i) e.emplace_back(std::min(i, (i + 1) % n), std::max(i, (i + 1) % n));
  return e;
}

TEST(FaultSchedule, ScriptedActionsAreInspectable) {
  FaultSchedule s;
  s.crash_cycle(10.0, 3, 5.0).link_flap(12.0, 1, 2, 2.0).loss_burst(20.0, 4.0, 0.25);
  EXPECT_EQ(s.actions().size(), 6u);
  EXPECT_DOUBLE_EQ(s.quiesce_time(), 24.0);
  const std::string text = s.describe();
  EXPECT_NE(text.find("crash"), std::string::npos);
  EXPECT_NE(text.find("recover"), std::string::npos);
  EXPECT_NE(text.find("loss-start"), std::string::npos);
}

TEST(FaultSchedule, RandomChaosIsSeedDeterministic) {
  ChaosConfig cfg;
  cfg.t_begin = 5.0;
  cfg.t_end = 105.0;
  const auto edges = ring_edges(20);
  const FaultSchedule a = FaultSchedule::random_chaos(cfg, 42, 20, edges);
  const FaultSchedule b = FaultSchedule::random_chaos(cfg, 42, 20, edges);
  const FaultSchedule c = FaultSchedule::random_chaos(cfg, 43, 20, edges);
  EXPECT_EQ(a.describe(), b.describe());
  EXPECT_NE(a.describe(), c.describe());
}

TEST(FaultSchedule, RandomChaosStaysInWindowAndSparesProtectedNode) {
  ChaosConfig cfg;
  cfg.t_begin = 10.0;
  cfg.t_end = 60.0;
  cfg.protected_node = 4;
  const auto edges = ring_edges(12);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const FaultSchedule s = FaultSchedule::random_chaos(cfg, seed, 12, edges);
    for (const FaultAction& a : s.actions()) {
      EXPECT_GE(a.at, cfg.t_begin);
      EXPECT_LE(a.at, cfg.t_end);
      if (a.kind == FaultKind::kCrash) {
        EXPECT_NE(a.node, cfg.protected_node);
      }
    }
    EXPECT_LE(s.quiesce_time(), cfg.t_end);
  }
}

TEST(FaultSchedule, MergeRetagsWindows) {
  FaultSchedule a;
  a.loss_burst(1.0, 2.0, 0.5);
  FaultSchedule b;
  b.loss_burst(1.5, 2.0, 0.9);
  a.merge(b);
  ASSERT_EQ(a.actions().size(), 4u);
  // Tags of the merged burst must not collide with the original's.
  std::set<std::uint64_t> tags;
  for (const FaultAction& act : a.actions()) tags.insert(act.tag);
  EXPECT_EQ(tags.size(), 2u);
}

TEST(FaultInjector, CrashRecoverDrivesLiveness) {
  World w(6, ring_edges(6));
  FaultInjector inj(w.sim, w.actions());
  FaultSchedule s;
  s.crash_cycle(1.0, 2, 3.0);
  inj.install(s);
  w.sim.run_until(2.0);
  EXPECT_FALSE(w.net.alive(2));
  w.sim.run_until(5.0);
  EXPECT_TRUE(w.net.alive(2));
  EXPECT_EQ(inj.crashes_injected(), 1);
  EXPECT_EQ(inj.recoveries_injected(), 1);
}

TEST(FaultInjector, NestedWindowsMostRecentWinsAndRestores) {
  World w(4, ring_edges(4));
  FaultInjector inj(w.sim, w.actions());
  FaultSchedule s;
  s.loss_burst(1.0, 10.0, 0.2);  // outer: [1, 11]
  s.loss_burst(3.0, 4.0, 0.8);   // inner: [3, 7] overrides
  inj.install(s);
  w.sim.run_until(2.0);
  EXPECT_DOUBLE_EQ(w.net.fault_loss(), 0.2);
  w.sim.run_until(4.0);
  EXPECT_DOUBLE_EQ(w.net.fault_loss(), 0.8);  // most recent window wins
  w.sim.run_until(8.0);
  EXPECT_DOUBLE_EQ(w.net.fault_loss(), 0.2);  // inner closed: outer restored
  w.sim.run_until(12.0);
  EXPECT_DOUBLE_EQ(w.net.fault_loss(), 0.0);  // all closed: neutral
  EXPECT_EQ(inj.windows_opened(), 2);
}

TEST(FaultInjector, DelayWindowRestoresToUnity) {
  World w(4, ring_edges(4));
  FaultInjector inj(w.sim, w.actions());
  FaultSchedule s;
  s.delay_spike(1.0, 2.0, 8.0).dup_burst(1.0, 2.0, 0.3);
  inj.install(s);
  w.sim.run_until(1.5);
  EXPECT_DOUBLE_EQ(w.net.delay_factor(), 8.0);
  EXPECT_DOUBLE_EQ(w.net.duplication(), 0.3);
  w.sim.run_until(4.0);
  EXPECT_DOUBLE_EQ(w.net.delay_factor(), 1.0);  // neutral for delay is 1, not 0
  EXPECT_DOUBLE_EQ(w.net.duplication(), 0.0);
}

TEST(FaultInjector, PartitionCutsAndRestoresConnectivity) {
  // 2x10 grid-ish ring: a genuine bipartition must reduce what node 0 reaches,
  // and the PartitionEnd must restore full connectivity.
  const int n = 20;
  World w(n, ring_edges(n));
  FaultInjector inj(w.sim, w.actions());
  FaultSchedule s;
  s.partition(1.0, 5.0, 0.5);
  inj.install(s);

  EXPECT_EQ(w.reachable_from(0), n);
  w.sim.run_until(2.0);
  const int during = w.reachable_from(0);
  EXPECT_LT(during, n);       // genuinely disconnected
  EXPECT_GE(during, n / 4);   // but a real split, not node isolation
  EXPECT_EQ(inj.partitions_injected(), 1);
  w.sim.run_until(7.0);
  EXPECT_EQ(w.reachable_from(0), n);  // cut links restored
}

TEST(FaultInjector, PartitionsResolveAgainstCurrentLiveness) {
  // With a dead BFS seed candidate the partition still forms from an alive
  // node; the restore only touches the edges it actually cut.
  const int n = 10;
  World w(n, ring_edges(n));
  w.net.set_alive(3, false);
  FaultInjector inj(w.sim, w.actions());
  FaultSchedule s;
  s.partition(1.0, 2.0, 0.4);
  inj.install(s);
  w.sim.run_until(1.5);
  EXPECT_EQ(inj.partitions_injected(), 1);
  w.sim.run_until(4.0);
  w.net.set_alive(3, true);
  EXPECT_EQ(w.reachable_from(0), n);
}

TEST(FaultInjector, PartitionSplitsTheLiveComponent) {
  // With a contiguous stretch of crashed nodes, the ring's live component is
  // a path. The partition must bipartition *that* -- seeding and growing its
  // BFS over live nodes only -- rather than wasting the cut on the dead
  // region (which would leave the live side fully connected).
  const int n = 20;
  World w(n, ring_edges(n));
  for (int u : {12, 13, 14, 15}) w.net.set_alive(u, false);
  const int live = n - 4;
  FaultInjector inj(w.sim, w.actions());
  FaultSchedule s;
  s.partition(1.0, 4.0, 0.5);
  inj.install(s);

  w.sim.run_until(2.0);
  EXPECT_EQ(inj.partitions_injected(), 1);
  const int during = w.reachable_from(0);
  EXPECT_LT(during, live);      // the live component is genuinely split
  EXPECT_GE(during, live / 4);  // into two real sides, not an isolated node

  w.sim.run_until(6.0);
  for (int u : {12, 13, 14, 15}) w.net.set_alive(u, true);
  EXPECT_EQ(w.reachable_from(0), n);  // heal + revive restores everything
}

TEST(FaultInjector, ComposedSchedulesInstallIncrementally) {
  World w(6, ring_edges(6));
  FaultInjector inj(w.sim, w.actions());
  FaultSchedule first;
  first.crash_cycle(1.0, 1, 1.0);
  inj.install(first);
  w.sim.run_until(3.0);
  FaultSchedule second;
  second.crash_cycle(4.0, 2, 1.0);
  inj.install(second);  // composing at runtime, relative to current time
  w.sim.run_until(10.0);
  EXPECT_EQ(inj.crashes_injected(), 2);
  EXPECT_EQ(inj.recoveries_injected(), 2);
  EXPECT_TRUE(w.net.alive(1));
  EXPECT_TRUE(w.net.alive(2));
}

}  // namespace
}  // namespace gdvr::sim
