// Tests for the graph substrate: adjacency, Dijkstra, BFS, components.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "graph/graph.hpp"

namespace gdvr::graph {
namespace {

Graph line_graph(int n, double cost = 1.0) {
  GraphBuilder b(n);
  for (int i = 0; i + 1 < n; ++i) b.add_bidirectional(i, i + 1, cost, cost);
  return b.build();
}

Graph random_graph(int n, double p, std::uint64_t seed) {
  Rng rng(seed);
  GraphBuilder b(n);
  for (int u = 0; u < n; ++u)
    for (int v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) b.add_bidirectional(u, v, rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0));
  return b.build();
}

TEST(Graph, BasicAccessors) {
  GraphBuilder b(3);
  b.add_bidirectional(0, 1, 2.0, 3.0);
  const Graph g = b.build();
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.degree(0), 1);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_DOUBLE_EQ(g.link_cost(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(g.link_cost(1, 0), 3.0);  // asymmetric costs preserved
  EXPECT_EQ(g.link_cost(2, 0), kInf);
  EXPECT_DOUBLE_EQ(g.average_degree(), 2.0 / 3.0);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Graph, UnitCostView) {
  GraphBuilder b(3);
  b.add_bidirectional(0, 1, 5.0, 7.0);
  const Graph g = b.build();
  const Graph u = g.with_unit_costs();
  EXPECT_DOUBLE_EQ(u.link_cost(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(u.link_cost(1, 0), 1.0);
  EXPECT_EQ(u.edge_count(), g.edge_count());
}

TEST(Graph, DijkstraLine) {
  const Graph g = line_graph(5, 2.0);
  const auto sp = dijkstra(g, 0);
  for (int i = 0; i < 5; ++i) EXPECT_DOUBLE_EQ(sp.dist[static_cast<std::size_t>(i)], 2.0 * i);
  const auto path = extract_path(sp, 4);
  EXPECT_EQ(path, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Graph, DijkstraPrefersCheaperDetour) {
  GraphBuilder b(4);
  b.add_bidirectional(0, 1, 10.0, 10.0);
  b.add_bidirectional(0, 2, 1.0, 1.0);
  b.add_bidirectional(2, 3, 1.0, 1.0);
  b.add_bidirectional(3, 1, 1.0, 1.0);
  const Graph g = b.build();
  const auto sp = dijkstra(g, 0);
  EXPECT_DOUBLE_EQ(sp.dist[1], 3.0);
  EXPECT_EQ(extract_path(sp, 1), (std::vector<int>{0, 2, 3, 1}));
}

TEST(Graph, DijkstraUnreachable) {
  GraphBuilder b(3);
  b.add_bidirectional(0, 1, 1.0, 1.0);
  const Graph g = b.build();
  const auto sp = dijkstra(g, 0);
  EXPECT_EQ(sp.dist[2], kInf);
  EXPECT_TRUE(extract_path(sp, 2).empty());
}

TEST(Graph, DijkstraRespectsAsymmetry) {
  GraphBuilder b(2);
  b.add_edge(0, 1, 1.0);
  b.add_edge(1, 0, 9.0);
  const Graph g = b.build();
  EXPECT_DOUBLE_EQ(dijkstra(g, 0).dist[1], 1.0);
  EXPECT_DOUBLE_EQ(dijkstra(g, 1).dist[0], 9.0);
}

TEST(Graph, BfsHops) {
  const Graph g = line_graph(6, 3.5);
  const auto hops = bfs_hops(g, 2);
  EXPECT_EQ(hops[0], 2);
  EXPECT_EQ(hops[2], 0);
  EXPECT_EQ(hops[5], 3);
}

TEST(Graph, BfsUnreachableIsMinusOne) {
  GraphBuilder b(4);
  b.add_bidirectional(0, 1, 1, 1);
  b.add_bidirectional(2, 3, 1, 1);
  const Graph g = b.build();
  const auto hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[1], 1);
  EXPECT_EQ(hops[2], -1);
}

TEST(Graph, DijkstraMatchesBfsOnUnitCosts) {
  const Graph g = random_graph(60, 0.08, 3).with_unit_costs();
  for (int src : {0, 10, 30}) {
    const auto sp = dijkstra(g, src);
    const auto hops = bfs_hops(g, src);
    for (int v = 0; v < g.size(); ++v) {
      if (hops[static_cast<std::size_t>(v)] < 0)
        EXPECT_EQ(sp.dist[static_cast<std::size_t>(v)], kInf);
      else
        EXPECT_DOUBLE_EQ(sp.dist[static_cast<std::size_t>(v)],
                         static_cast<double>(hops[static_cast<std::size_t>(v)]));
    }
  }
}

TEST(Graph, DijkstraTriangleInequalityProperty) {
  // d(s, v) <= d(s, u) + c(u, v) for every edge (u, v).
  const Graph g = random_graph(50, 0.1, 7);
  const auto sp = dijkstra(g, 0);
  for (int u = 0; u < g.size(); ++u) {
    if (sp.dist[static_cast<std::size_t>(u)] == kInf) continue;
    for (const Edge& e : g.neighbors(u))
      EXPECT_LE(sp.dist[static_cast<std::size_t>(e.to)],
                sp.dist[static_cast<std::size_t>(u)] + e.cost + 1e-9);
  }
}

TEST(Graph, LargestComponent) {
  GraphBuilder b(7);
  b.add_bidirectional(0, 1, 1, 1);
  b.add_bidirectional(1, 2, 1, 1);
  b.add_bidirectional(3, 4, 1, 1);
  // node 5, 6 isolated
  const Graph g = b.build();
  const auto comp = largest_component(g);
  EXPECT_EQ(comp, (std::vector<int>{0, 1, 2}));
}

TEST(Graph, InducedSubgraph) {
  GraphBuilder b(5);
  b.add_bidirectional(0, 1, 1.0, 2.0);
  b.add_bidirectional(1, 2, 3.0, 4.0);
  b.add_bidirectional(3, 4, 9.0, 9.0);
  const Graph g = b.build();
  std::vector<int> keep{1, 2, 3};
  std::vector<int> old_ids;
  const Graph sub = g.induced_subgraph(keep, &old_ids);
  EXPECT_EQ(sub.size(), 3);
  EXPECT_EQ(old_ids, keep);
  EXPECT_DOUBLE_EQ(sub.link_cost(0, 1), 3.0);  // 1 -> 2 in old ids
  EXPECT_DOUBLE_EQ(sub.link_cost(1, 0), 4.0);
  EXPECT_FALSE(sub.has_edge(2, 0));  // 3 lost its partner 4
}

TEST(Graph, ExtractPathSourceOnly) {
  const Graph g = line_graph(3);
  const auto sp = dijkstra(g, 1);
  EXPECT_EQ(extract_path(sp, 1), (std::vector<int>{1}));
}

TEST(Graph, LargestComponentTreatsOneWayArcsAsUndirected) {
  GraphBuilder b(6);
  b.add_edge(1, 0, 1.0);  // one-way arc into node 0
  b.add_bidirectional(1, 2, 1.0, 1.0);
  b.add_edge(3, 4, 1.0);  // {3, 4, 5} joined only by one-way arcs
  b.add_edge(5, 4, 1.0);
  const Graph g = b.build();
  // Two components of three; the one holding the smallest id wins.
  EXPECT_EQ(largest_component(g), (std::vector<int>{0, 1, 2}));
}

TEST(Graph, BuilderSortsRunsByTargetKeepingParallelArcsInOrder) {
  GraphBuilder b(6);
  b.add_edge(0, 4, 4.0);
  b.add_edge(0, 1, 1.0);
  b.add_edge(0, 4, 40.0);  // parallel arc: stays after the first 0 -> 4
  b.add_edge(0, 2, 2.0);
  b.add_edge(3, 0, 3.0);
  const Graph g = b.build();
  const auto nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 4u);
  const std::vector<std::pair<int, double>> want{{1, 1.0}, {2, 2.0}, {4, 4.0}, {4, 40.0}};
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(nb[k].to, want[k].first) << k;
    EXPECT_EQ(nb[k].cost, want[k].second) << k;
  }
  EXPECT_EQ(g.link_cost(0, 4), 4.0);   // first of the parallel arcs
  EXPECT_EQ(g.link_cost(0, 3), kInf);  // between two present targets
  EXPECT_EQ(g.link_cost(0, 5), kInf);  // past the last target
  EXPECT_EQ(g.link_cost(0, 0), kInf);  // before the first target
  EXPECT_EQ(g.link_cost(3, 0), 3.0);
  EXPECT_EQ(g.degree(1), 0);
  EXPECT_EQ(g.edge_count(), 5u);
}

// ---------- CSR storage ----------

TEST(Csr, LinkCostMatchesIncludingAsymmetryAndAbsence) {
  GraphBuilder b(4);
  b.add_bidirectional(0, 1, 1.5, 2.5);  // asymmetric pair
  b.add_bidirectional(1, 2, 3.0, 3.0);
  const Graph g = b.build();
  const double want[4][4] = {{kInf, 1.5, kInf, kInf},
                             {2.5, kInf, 3.0, kInf},
                             {kInf, 3.0, kInf, kInf},
                             {kInf, kInf, kInf, kInf}};  // node 3 is isolated
  for (int u = 0; u < g.size(); ++u)
    for (int v = 0; v < g.size(); ++v) {
      EXPECT_EQ(g.link_cost(u, v), want[u][v]) << u << "->" << v;
      EXPECT_EQ(g.has_edge(u, v), want[u][v] < kInf) << u << "->" << v;
    }
}

TEST(Csr, DijkstraHandlesIsolatedNodes) {
  GraphBuilder b(5);
  b.add_bidirectional(0, 1, 1.0, 1.0);
  b.add_bidirectional(1, 2, 1.0, 1.0);
  // nodes 3 and 4 isolated
  const Graph g = b.build();
  DijkstraWorkspace ws;
  const ShortestPaths& sp = dijkstra(g, 0, ws);
  EXPECT_EQ(sp.dist[2], 2.0);
  EXPECT_EQ(sp.dist[3], kInf);
  EXPECT_EQ(sp.dist[4], kInf);
  const ShortestPaths from_isolated = dijkstra(g, 3);
  EXPECT_EQ(from_isolated.dist[3], 0.0);
  EXPECT_EQ(from_isolated.dist[0], kInf);
}

TEST(Csr, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.size(), 0);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_EQ(g.average_degree(), 0.0);
  const Graph from_builder = GraphBuilder(0).build();
  EXPECT_EQ(from_builder.size(), 0);
  EXPECT_TRUE(all_pairs_distances(from_builder).empty());
}

TEST(Csr, AllPairsMatchesPerSourceDijkstraAtAnyThreadCount) {
  const Graph g = random_graph(30, 0.2, 5);
  const int n = g.size();
  const std::vector<double> seq = all_pairs_distances(g, 1);
  const std::vector<double> par = all_pairs_distances(g, 4);
  ASSERT_EQ(seq.size(), static_cast<std::size_t>(n) * static_cast<std::size_t>(n));
  // Parallel sweep is bit-identical to sequential (disjoint row writes, fixed
  // chunking), and both match a plain per-source Dijkstra.
  EXPECT_EQ(seq, par);
  for (int s = 0; s < n; ++s) {
    const ShortestPaths sp = dijkstra(g, s);
    for (int t = 0; t < n; ++t)
      EXPECT_EQ(seq[static_cast<std::size_t>(s) * static_cast<std::size_t>(n) +
                    static_cast<std::size_t>(t)],
                sp.dist[static_cast<std::size_t>(t)])
          << s << "->" << t;
  }
}

}  // namespace
}  // namespace gdvr::graph
