// Directed weighted connectivity graph plus shortest-path utilities.
//
// Link costs are per-direction (the paper's metrics may be asymmetric, e.g.
// ETX measured separately for each direction). Hop count is modeled as a
// unit-cost view of the same adjacency.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/assert.hpp"

namespace gdvr::graph {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Edge {
  int to = -1;
  double cost = 1.0;  // cost of the directed link (from, to)
};

// Frozen CSR (compressed sparse row) graph: node u's out-edges are
// edges[offsets[u] .. offsets[u + 1]). Nothing changes a graph after it is
// built, and every consumer -- NetSim's per-send link check, the routers'
// hot loops, all-pairs sweeps -- only reads it, so the adjacency lives in
// two flat arrays.
//
// Order contract: each node's run is sorted by target id. The constructor
// sorts stably, so parallel arcs (a multigraph built edge at a time) keep
// their insertion order. Neighbor order is what fixes Dijkstra's and the
// routers' tie-breaking, hence every trace digest.
class Graph {
 public:
  Graph() = default;
  // Takes ownership of the arrays: `offsets` has n + 1 entries starting at 0
  // and ending at edges.size(). Checks every target is in range and not a
  // self-loop and every cost is positive, then sorts each run by target.
  Graph(std::vector<std::size_t> offsets, std::vector<Edge> edges);

  int size() const { return offsets_.empty() ? 0 : static_cast<int>(offsets_.size()) - 1; }

  std::span<const Edge> neighbors(int u) const {
    const std::size_t lo = offsets_[static_cast<std::size_t>(u)];
    const std::size_t hi = offsets_[static_cast<std::size_t>(u) + 1];
    return {edges_.data() + lo, hi - lo};
  }

  // Directed cost of link (u, v); kInf if absent. A scan of u's run that
  // stops at the first larger target: runs are a few dozen edges, and a
  // binary search measured slower end to end on this per-send probe.
  double link_cost(int u, int v) const {
    for (const Edge& e : neighbors(u))
      if (e.to >= v) return e.to == v ? e.cost : kInf;
    return kInf;
  }

  bool has_edge(int u, int v) const { return link_cost(u, v) < kInf; }

  int degree(int u) const { return static_cast<int>(neighbors(u).size()); }

  double average_degree() const {
    return size() == 0 ? 0.0 : static_cast<double>(edge_count()) / static_cast<double>(size());
  }

  std::size_t edge_count() const { return edges_.size(); }

  // Same adjacency with every cost replaced by 1 (hop-count metric).
  Graph with_unit_costs() const;

  // Keeps only the listed nodes (compacted ids in list order). Used by the
  // topology generator to restrict to the largest connected component and by
  // churn experiments. `old_ids` returns the original id of each new node.
  Graph induced_subgraph(std::span<const int> keep, std::vector<int>* old_ids = nullptr) const;

 private:
  std::vector<std::size_t> offsets_;  // size() + 1 entries; empty when default
  std::vector<Edge> edges_;
};

// Builds a Graph one edge at a time (grids, the geo-WAN backbone, hand-made
// test graphs). Arcs may arrive in any order; build() groups them by source
// and the Graph constructor sorts each run by target.
class GraphBuilder {
 public:
  explicit GraphBuilder(int n) : n_(n) { GDVR_ASSERT(n >= 0); }

  // The source indexes build()'s counting sort; the Graph constructor checks
  // the target and the cost.
  void add_edge(int from, int to, double cost) {
    GDVR_ASSERT(from >= 0 && from < n_);
    arcs_.emplace_back(from, Edge{to, cost});
  }

  // Adds both directions with (possibly different) costs.
  void add_bidirectional(int u, int v, double cost_uv, double cost_vu) {
    add_edge(u, v, cost_uv);
    add_edge(v, u, cost_vu);
  }

  Graph build() const;

 private:
  int n_;
  std::vector<std::pair<int, Edge>> arcs_;  // (from, edge) in insertion order
};

struct ShortestPaths {
  std::vector<double> dist;    // kInf when unreachable
  std::vector<int> parent;     // -1 for source / unreachable
};

// Dijkstra from `src` over directed costs.
ShortestPaths dijkstra(const Graph& g, int src);

// Reusable storage for repeated dijkstra runs. All-pairs loops (centralized
// MDT views, ETX stretch baselines, embedding cost matrices) call dijkstra
// once per source; reusing the dist/parent arrays and the heap buffer avoids
// three allocations per call.
struct DijkstraWorkspace {
  ShortestPaths sp;
  std::vector<std::pair<double, int>> heap;
};

// Workspace overload: runs dijkstra from `src`, leaving the result in
// `ws.sp` and returning a reference to it. The returned reference is
// invalidated by the next call with the same workspace.
const ShortestPaths& dijkstra(const Graph& g, int src, DijkstraWorkspace& ws);

// Row-major n x n matrix of shortest-path costs: entry [src * n + dst] is the
// cost of the cheapest src -> dst path, kInf when unreachable. One Dijkstra
// per source, fanned over ParallelTrials workers (GDVR_THREADS) in fixed
// chunks; every row is an independent computation written to its own slice,
// so the result is bit-identical to a sequential sweep at any thread count.
// This is the backbone of the embedding cost matrices and the ETX-stretch
// baselines, whose all-pairs loops dominate large-N analysis runs.
std::vector<double> all_pairs_distances(const Graph& g, int threads = 0);

// Minimum hop counts from `src` (BFS); -1 when unreachable.
std::vector<int> bfs_hops(const Graph& g, int src);

// Reconstructs the path src -> dst from a parent array; empty if unreachable.
std::vector<int> extract_path(const ShortestPaths& sp, int dst);

// Node ids (ascending) of the largest connected component, treating every
// arc as undirected; ties go to the component holding the smallest id.
std::vector<int> largest_component(const Graph& g);

}  // namespace gdvr::graph
