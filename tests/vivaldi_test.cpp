// Tests for the 2-hop Vivaldi baseline.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/embedding.hpp"
#include "eval/protocol_runner.hpp"
#include "radio/topology.hpp"
#include "vivaldi/vivaldi.hpp"

namespace gdvr::vivaldi {
namespace {

TEST(Vivaldi, LocalDistancesConvergeOnLine) {
  // 8-node line, hop metric: after enough periods, 1-hop pairs should sit at
  // distance ~1 in the virtual space (local relationships preserved).
  const int n = 8;
  graph::GraphBuilder gb(n);
  for (int i = 0; i + 1 < n; ++i) gb.add_bidirectional(i, i + 1, 1.0, 1.0);
  sim::Simulator sim;
  const graph::Graph links = gb.build();
  sim::NetSim<VivMsg> net(sim, links, 0.001, 0.01, 1);
  VivaldiConfig vc;
  vc.dim = 2;
  vc.period_s = 5.0;
  TwoHopVivaldi viv(net, vc);
  viv.start();
  sim.run_until(1.0 + 20 * vc.period_s);
  for (int i = 0; i + 1 < n; ++i) {
    const double d = viv.position(i).distance(viv.position(i + 1));
    EXPECT_NEAR(d, 1.0, 0.45) << "pair " << i;
  }
}

TEST(Vivaldi, TwoHopSetsAreCorrect) {
  // Star-of-line: 0-1-2; node 0's only 2-hop target is 2.
  graph::GraphBuilder gb(3);
  gb.add_bidirectional(0, 1, 1, 1);
  gb.add_bidirectional(1, 2, 1, 1);
  const graph::Graph links = gb.build();
  sim::Simulator sim;
  sim::NetSim<VivMsg> net(sim, links, 0.001, 0.01, 2);
  VivaldiConfig vc;
  vc.dim = 2;
  vc.period_s = 5.0;
  TwoHopVivaldi viv(net, vc);
  viv.start();
  sim.run_until(8.0);
  EXPECT_EQ(viv.distinct_nodes_stored(0), 2);  // 1-hop {1} + 2-hop {2}
  EXPECT_EQ(viv.distinct_nodes_stored(1), 2);  // 1-hop {0, 2}
  EXPECT_EQ(viv.distinct_nodes_stored(2), 2);
}

TEST(Vivaldi, StorageMatchesTwoHopNeighborhood) {
  radio::TopologyConfig tc;
  tc.n = 80;
  tc.seed = 5;
  tc.target_avg_degree = 14.5;
  const radio::Topology topo = radio::make_random_topology(tc);
  eval::VivaldiRunner runner(topo, false, VivaldiConfig{});
  runner.run_to_period(2);
  // Ground truth: |{v : hops(u, v) <= 2}| - 1.
  for (int u = 0; u < std::min(topo.size(), 20); ++u) {
    const auto hops = graph::bfs_hops(topo.hops, u);
    int expect = 0;
    for (int v = 0; v < topo.size(); ++v)
      if (v != u && hops[static_cast<std::size_t>(v)] >= 1 && hops[static_cast<std::size_t>(v)] <= 2)
        ++expect;
    EXPECT_EQ(runner.protocol().distinct_nodes_stored(u), expect) << "u=" << u;
  }
}

TEST(Vivaldi, GlobalRelationshipsCollapseOnGrid) {
  // The paper's Figure 2 observation: on the 121-node grid, 2-hop Vivaldi
  // preserves local relationships but fails global ones -- distant pairs end
  // up far too close in the virtual space.
  const radio::Topology grid = radio::make_grid(11, 11, 1.0);
  eval::VivaldiRunner runner(grid, /*use_etx=*/false, VivaldiConfig{});
  runner.run_to_period(20);
  const analysis::Matrix costs = analysis::cost_matrix(grid.hops);
  const auto q = analysis::embedding_quality(runner.positions(), costs);
  // Local pairs fit decently, global pairs are far off -- the defining gap.
  EXPECT_GT(q.global_rel_error, 0.35);
  EXPECT_GT(q.global_rel_error, 1.5 * q.local_rel_error);
}

TEST(Vivaldi, MessageCostScalesWithSamples) {
  radio::TopologyConfig tc;
  tc.n = 60;
  tc.seed = 7;
  tc.target_avg_degree = 14.5;
  const radio::Topology topo = radio::make_random_topology(tc);
  eval::VivaldiRunner runner(topo, false, VivaldiConfig{});
  runner.run_to_period(1);
  runner.messages_per_node_since_mark();
  runner.run_to_period(2);
  const double per_period = runner.messages_per_node_since_mark();
  // 200 samples/period, most requiring >= 2 transmissions (request + reply),
  // 2-hop ones 4: several hundred messages per node per period, far more
  // than VPoD uses (paper Fig. 14b).
  EXPECT_GT(per_period, 300.0);
  EXPECT_LT(per_period, 1200.0);
}

TEST(Vivaldi, ErrorsDecrease) {
  radio::TopologyConfig tc;
  tc.n = 60;
  tc.seed = 9;
  tc.target_avg_degree = 14.5;
  const radio::Topology topo = radio::make_random_topology(tc);
  eval::VivaldiRunner runner(topo, false, VivaldiConfig{});
  runner.run_to_period(12);
  double avg = 0.0;
  for (int u = 0; u < topo.size(); ++u) avg += runner.protocol().error(u);
  avg /= topo.size();
  EXPECT_LT(avg, 0.6);  // started at 1.0
}

}  // namespace
}  // namespace gdvr::vivaldi
