// Tests for the routers: GDV, GDV_basic, MDT-greedy, NADV, GPSR, and the
// Gabriel-graph planarization / face-routing machinery.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "radio/topology.hpp"
#include "routing/mdt_view.hpp"
#include "routing/planar.hpp"
#include "routing/routers.hpp"

namespace gdvr::routing {
namespace {

radio::Topology dense_topo(int n, std::uint64_t seed, int obstacles = 0) {
  radio::TopologyConfig tc;
  tc.n = n;
  tc.seed = seed;
  tc.num_obstacles = obstacles;
  tc.target_avg_degree = 14.5;
  return radio::make_random_topology(tc);
}

// ---------- MdtView construction ----------

TEST(MdtView, CentralizedHasValidVirtualLinks) {
  const radio::Topology topo = dense_topo(80, 2);
  const MdtView view = centralized_mdt(topo.positions, topo.etx);
  ASSERT_EQ(view.size(), topo.size());
  for (int u = 0; u < view.size(); ++u) {
    for (const MdtView::DtNbr& d : view.dt[static_cast<std::size_t>(u)]) {
      EXPECT_FALSE(topo.etx.has_edge(u, d.id));  // only non-physical DT edges
      ASSERT_GE(d.path.size(), 2u);
      EXPECT_EQ(d.path.front(), u);
      EXPECT_EQ(d.path.back(), d.id);
      double cost = 0.0;
      for (std::size_t i = 0; i + 1 < d.path.size(); ++i) {
        ASSERT_TRUE(topo.etx.has_edge(d.path[i], d.path[i + 1]));
        cost += topo.etx.link_cost(d.path[i], d.path[i + 1]);
      }
      EXPECT_NEAR(cost, d.cost, 1e-9);
    }
  }
}

// ---------- GDV ----------

TEST(Gdv, GuaranteedDeliveryOnCorrectMdt) {
  for (std::uint64_t seed : {1u, 5u, 9u}) {
    const radio::Topology topo = dense_topo(100, seed);
    const MdtView view = centralized_mdt(topo.positions, topo.hops);
    Rng rng(seed);
    for (int trial = 0; trial < 300; ++trial) {
      const int s = rng.uniform_index(topo.size());
      int t = rng.uniform_index(topo.size() - 1);
      if (t >= s) ++t;
      const RouteResult r = route_gdv(view, s, t);
      EXPECT_TRUE(r.success) << "seed=" << seed << " " << s << "->" << t;
    }
  }
}

TEST(Gdv, CostAtLeastOptimal) {
  const radio::Topology topo = dense_topo(80, 3);
  const MdtView view = centralized_mdt(topo.positions, topo.etx);
  Rng rng(4);
  for (int trial = 0; trial < 100; ++trial) {
    const int s = rng.uniform_index(topo.size());
    int t = rng.uniform_index(topo.size() - 1);
    if (t >= s) ++t;
    const RouteResult r = route_gdv(view, s, t);
    ASSERT_TRUE(r.success);
    const auto sp = graph::dijkstra(topo.etx, s);
    EXPECT_GE(r.cost, sp.dist[static_cast<std::size_t>(t)] - 1e-9);
  }
}

TEST(Gdv, PerfectEmbeddingGivesNearOptimalPaths) {
  // Line network where virtual distance exactly equals routing cost: GDV
  // must follow the optimal path.
  const int n = 12;
  graph::GraphBuilder gb(n);
  std::vector<Vec> pos;
  for (int i = 0; i < n; ++i) pos.push_back(Vec{static_cast<double>(i), 0.0});
  for (int i = 0; i + 1 < n; ++i) gb.add_bidirectional(i, i + 1, 1.0, 1.0);
  const graph::Graph metric = gb.build();
  const MdtView view = centralized_mdt(pos, metric);
  const RouteResult r = route_gdv(view, 0, n - 1);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.transmissions, n - 1);
  EXPECT_DOUBLE_EQ(r.cost, static_cast<double>(n - 1));
}

TEST(Gdv, TrivialRoutes) {
  const radio::Topology topo = dense_topo(40, 6);
  const MdtView view = centralized_mdt(topo.positions, topo.hops);
  const RouteResult self = route_gdv(view, 3, 3);
  EXPECT_TRUE(self.success);
  EXPECT_EQ(self.transmissions, 0);
  // Direct neighbor.
  const int nbr = topo.hops.neighbors(3)[0].to;
  const RouteResult one = route_gdv(view, 3, nbr);
  EXPECT_TRUE(one.success);
  EXPECT_GE(one.transmissions, 1);
}

TEST(Gdv, RespectsAliveMask) {
  const radio::Topology topo = dense_topo(60, 7);
  MdtView view = centralized_mdt(topo.positions, topo.hops);
  // Kill the destination's neighbors' neighborhood so it is unreachable.
  const int t = 10;
  for (const graph::Edge& e : topo.hops.neighbors(t))
    view.alive[static_cast<std::size_t>(e.to)] = 0;
  int s = 0;
  while (s == t || !view.is_alive(s)) ++s;
  const RouteResult r = route_gdv(view, s, t);
  EXPECT_FALSE(r.success);  // fails cleanly, no infinite loop
}

TEST(Gdv, BasicVariantDeliversOnDenseNetworks) {
  const radio::Topology topo = dense_topo(80, 11);
  const MdtView view = centralized_mdt(topo.positions, topo.hops);
  const PlanarGraph planar(topo.positions, topo.hops);
  Rng rng(8);
  int delivered = 0;
  const int trials = 200;
  for (int trial = 0; trial < trials; ++trial) {
    const int s = rng.uniform_index(topo.size());
    int t = rng.uniform_index(topo.size() - 1);
    if (t >= s) ++t;
    if (route_gdv_basic(view, s, t, &planar).success) ++delivered;
  }
  EXPECT_GT(static_cast<double>(delivered) / trials, 0.9);
}

// ---------- MDT-greedy ----------

TEST(MdtGreedy, GuaranteedDeliveryAndLowStretch) {
  const radio::Topology topo = dense_topo(100, 13);
  const MdtView view = centralized_mdt(topo.positions, topo.hops);
  Rng rng(9);
  double stretch_sum = 0.0;
  int count = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const int s = rng.uniform_index(topo.size());
    int t = rng.uniform_index(topo.size() - 1);
    if (t >= s) ++t;
    const RouteResult r = route_mdt_greedy(view, s, t);
    ASSERT_TRUE(r.success);
    const auto hops = graph::bfs_hops(topo.hops, s);
    if (hops[static_cast<std::size_t>(t)] > 0) {
      stretch_sum += static_cast<double>(r.transmissions) / hops[static_cast<std::size_t>(t)];
      ++count;
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_LT(stretch_sum / count, 1.6);  // paper: MDT stretch is low (~1.1-1.3)
}

TEST(MdtGreedy, DeliveryWithObstacles) {
  const radio::Topology topo = dense_topo(100, 17, /*obstacles=*/4);
  const MdtView view = centralized_mdt(topo.positions, topo.hops);
  Rng rng(10);
  for (int trial = 0; trial < 150; ++trial) {
    const int s = rng.uniform_index(topo.size());
    int t = rng.uniform_index(topo.size() - 1);
    if (t >= s) ++t;
    EXPECT_TRUE(route_mdt_greedy(view, s, t).success);
  }
}

// ---------- planarization ----------

TEST(Planar, GabrielIsSubgraphAndSymmetric) {
  const radio::Topology topo = dense_topo(80, 19);
  const PlanarGraph pg(topo.positions, topo.hops);
  for (int u = 0; u < topo.size(); ++u) {
    for (int v : pg.neighbors(u)) {
      EXPECT_TRUE(topo.hops.has_edge(u, v));
      EXPECT_TRUE(pg.has_edge(v, u));
    }
  }
}

TEST(Planar, GabrielRemovesWitnessedEdges) {
  // Three nodes: w sits inside the circle with diameter (u, v).
  std::vector<Vec> pos{Vec{0, 0}, Vec{10, 0}, Vec{5, 1}};
  graph::GraphBuilder gb(3);
  gb.add_bidirectional(0, 1, 1, 1);
  gb.add_bidirectional(0, 2, 1, 1);
  gb.add_bidirectional(1, 2, 1, 1);
  const graph::Graph links = gb.build();
  const PlanarGraph pg(pos, links);
  EXPECT_FALSE(pg.has_edge(0, 1));  // witnessed by node 2
  EXPECT_TRUE(pg.has_edge(0, 2));
  EXPECT_TRUE(pg.has_edge(1, 2));
}

TEST(Planar, AngleOrdering) {
  std::vector<Vec> pos{Vec{0, 0}, Vec{1, 0}, Vec{0, 1}, Vec{-1, 0}, Vec{0, -1}};
  graph::GraphBuilder gb(5);
  for (int v = 1; v <= 4; ++v) gb.add_bidirectional(0, v, 1, 1);
  const graph::Graph links = gb.build();
  const PlanarGraph pg(pos, links);
  // next_ccw from angle just below 0 should be node 1 (angle 0).
  EXPECT_EQ(pg.next_ccw(0, -0.01), 1);
  EXPECT_EQ(pg.next_ccw(0, 0.01), 2);   // next after 0 rad is pi/2
  EXPECT_EQ(pg.next_ccw(0, 3.0), 3);    // next after 3.0 rad is pi
  EXPECT_EQ(pg.next_ccw(0, 3.1416), 4);  // past pi: wraps to -pi/2
}

// ---------- NADV / GPSR ----------

TEST(Nadv, DeliversOnDenseNetwork) {
  const radio::Topology topo = dense_topo(100, 23);
  const PlanarGraph pg(topo.positions, topo.hops);
  Rng rng(11);
  int delivered = 0;
  const int trials = 300;
  for (int trial = 0; trial < trials; ++trial) {
    const int s = rng.uniform_index(topo.size());
    int t = rng.uniform_index(topo.size() - 1);
    if (t >= s) ++t;
    if (route_nadv(topo.positions, topo.etx, pg, s, t).success) ++delivered;
  }
  // NADV mostly delivers, but its recovery is imperfect on general
  // connectivity graphs (paper Fig. 16b shows < 100%).
  EXPECT_GT(static_cast<double>(delivered) / trials, 0.85);
}

TEST(Nadv, PrefersCheapLinks) {
  // Two-hop network: direct expensive link vs a cheap relay. NADV weighs
  // advance per cost and takes the relay.
  std::vector<Vec> pos{Vec{0, 0}, Vec{5, 2}, Vec{10, 0}};
  graph::GraphBuilder gb(3);
  gb.add_bidirectional(0, 2, 10.0, 10.0);  // lossy direct link
  gb.add_bidirectional(0, 1, 1.2, 1.2);
  gb.add_bidirectional(1, 2, 1.2, 1.2);
  const graph::Graph metric = gb.build();
  const PlanarGraph pg(pos, metric.with_unit_costs());
  const RouteResult r = route_nadv(pos, metric, pg, 0, 2);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.transmissions, 2);  // went through the relay
  EXPECT_NEAR(r.cost, 2.4, 1e-9);
}

TEST(Gpsr, RecoversAroundVoid) {
  // A "U" shaped topology: greedy from the left arm toward the right arm
  // dead-ends at the void; perimeter routing must go around the bottom.
  std::vector<Vec> pos;
  graph::GraphBuilder gb(9);
  // left arm (top to bottom), bottom, right arm (bottom to top)
  pos.push_back(Vec{0, 10});  // 0 source
  pos.push_back(Vec{0, 7});
  pos.push_back(Vec{0, 4});
  pos.push_back(Vec{0, 0});   // bottom-left
  pos.push_back(Vec{4, 0});   // bottom-middle
  pos.push_back(Vec{8, 0});   // bottom-right
  pos.push_back(Vec{8, 4});
  pos.push_back(Vec{8, 7});
  pos.push_back(Vec{8, 10});  // 8 destination
  for (int i = 0; i + 1 < 9; ++i) gb.add_bidirectional(i, i + 1, 1, 1);
  const graph::Graph links = gb.build();
  const PlanarGraph pg(pos, links);
  const RouteResult r = route_gpsr(pos, links, pg, 0, 8);
  ASSERT_TRUE(r.success);
  EXPECT_EQ(r.transmissions, 8);  // the only path: all the way around
}

TEST(Gpsr, FailsCleanlyWhenDisconnected) {
  std::vector<Vec> pos{Vec{0, 0}, Vec{1, 0}, Vec{10, 0}, Vec{11, 0}};
  graph::GraphBuilder gb(4);
  gb.add_bidirectional(0, 1, 1, 1);
  gb.add_bidirectional(2, 3, 1, 1);
  const graph::Graph links = gb.build();
  const PlanarGraph pg(pos, links);
  const RouteResult r = route_gpsr(pos, links, pg, 0, 3);
  EXPECT_FALSE(r.success);
}

TEST(Routers, TransmissionsMatchCostForUnitMetric) {
  const radio::Topology topo = dense_topo(60, 29);
  const MdtView view = centralized_mdt(topo.positions, topo.hops);
  Rng rng(12);
  for (int trial = 0; trial < 50; ++trial) {
    const int s = rng.uniform_index(topo.size());
    int t = rng.uniform_index(topo.size() - 1);
    if (t >= s) ++t;
    const RouteResult r = route_gdv(view, s, t);
    ASSERT_TRUE(r.success);
    EXPECT_DOUBLE_EQ(r.cost, static_cast<double>(r.transmissions));
  }
}

}  // namespace
}  // namespace gdvr::routing
