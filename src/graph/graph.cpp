#include "graph/graph.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <queue>

#include "common/parallel.hpp"
#include "obs/profile.hpp"

namespace gdvr::graph {

Graph::Graph(std::vector<std::size_t> offsets, std::vector<Edge> edges)
    : offsets_(std::move(offsets)), edges_(std::move(edges)) {
  GDVR_ASSERT(!offsets_.empty() && offsets_.front() == 0 && offsets_.back() == edges_.size());
  const int n = size();
  const auto by_target = [](const Edge& a, const Edge& b) { return a.to < b.to; };
  for (int u = 0; u < n; ++u) {
    const std::size_t lo = offsets_[static_cast<std::size_t>(u)];
    const std::size_t hi = offsets_[static_cast<std::size_t>(u) + 1];
    GDVR_ASSERT(lo <= hi);
    for (std::size_t k = lo; k < hi; ++k) {
      const Edge& e = edges_[k];
      GDVR_ASSERT(e.to >= 0 && e.to < n && e.to != u);
      GDVR_ASSERT_MSG(e.cost > 0.0, "routing metrics must be positive");
    }
    // Every generator emits ascending runs already; is_sorted is then one
    // linear pass and the sort never runs.
    Edge* run = edges_.data() + lo;
    if (!std::is_sorted(run, run + (hi - lo), by_target))
      std::stable_sort(run, run + (hi - lo), by_target);
  }
}

Graph Graph::with_unit_costs() const {
  std::vector<Edge> edges = edges_;
  for (Edge& e : edges) e.cost = 1.0;
  return Graph(offsets_, std::move(edges));
}

Graph Graph::induced_subgraph(std::span<const int> keep, std::vector<int>* old_ids) const {
  std::vector<int> remap(static_cast<std::size_t>(size()), -1);
  for (std::size_t i = 0; i < keep.size(); ++i) remap[static_cast<std::size_t>(keep[i])] = static_cast<int>(i);
  std::vector<std::size_t> offsets{0};
  offsets.reserve(keep.size() + 1);
  std::vector<Edge> edges;
  for (int u : keep) {
    for (const Edge& e : neighbors(u)) {
      const int nv = remap[static_cast<std::size_t>(e.to)];
      if (nv >= 0) edges.push_back({nv, e.cost});
    }
    offsets.push_back(edges.size());
  }
  if (old_ids) old_ids->assign(keep.begin(), keep.end());
  return Graph(std::move(offsets), std::move(edges));
}

Graph GraphBuilder::build() const {
  // Counting sort by source; stable, so each run keeps insertion order until
  // the Graph constructor sorts it by target.
  const std::size_t n = static_cast<std::size_t>(n_);
  std::vector<std::size_t> offsets(n + 1, 0);
  for (const auto& [from, e] : arcs_) ++offsets[static_cast<std::size_t>(from) + 1];
  std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
  std::vector<Edge> edges(arcs_.size());
  std::vector<std::size_t> cur(offsets.begin(), offsets.end() - 1);
  for (const auto& [from, e] : arcs_) edges[cur[static_cast<std::size_t>(from)]++] = e;
  return Graph(std::move(offsets), std::move(edges));
}

const ShortestPaths& dijkstra(const Graph& g, int src, DijkstraWorkspace& ws) {
  GDVR_PROFILE_SCOPE("graph.dijkstra");
  const int n = g.size();
  ShortestPaths& sp = ws.sp;
  sp.dist.assign(static_cast<std::size_t>(n), kInf);
  sp.parent.assign(static_cast<std::size_t>(n), -1);
  // Manual binary heap on the reused buffer: std::priority_queue owns its
  // container, so its storage cannot survive across calls.
  auto& heap = ws.heap;
  heap.clear();
  const auto cmp = [](const std::pair<double, int>& a, const std::pair<double, int>& b) {
    return a.first > b.first;
  };
  sp.dist[static_cast<std::size_t>(src)] = 0.0;
  heap.emplace_back(0.0, src);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), cmp);
    const auto [d, u] = heap.back();
    heap.pop_back();
    if (d > sp.dist[static_cast<std::size_t>(u)]) continue;
    for (const Edge& e : g.neighbors(u)) {
      const double nd = d + e.cost;
      if (nd < sp.dist[static_cast<std::size_t>(e.to)]) {
        sp.dist[static_cast<std::size_t>(e.to)] = nd;
        sp.parent[static_cast<std::size_t>(e.to)] = u;
        heap.emplace_back(nd, e.to);
        std::push_heap(heap.begin(), heap.end(), cmp);
      }
    }
  }
  return sp;
}

ShortestPaths dijkstra(const Graph& g, int src) {
  DijkstraWorkspace ws;
  dijkstra(g, src, ws);
  return std::move(ws.sp);
}

std::vector<double> all_pairs_distances(const Graph& g, int threads) {
  const int n = g.size();
  std::vector<double> out(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), kInf);
  if (n == 0) return out;
  // Fixed-size source chunks keep the fan-out deterministic (chunk c always
  // covers the same sources) and amortize per-task overhead. Workers write
  // disjoint row slices of the shared output, so there is no aggregation
  // step and no ordering hazard.
  constexpr int kSourcesPerChunk = 16;
  const int chunks = (n + kSourcesPerChunk - 1) / kSourcesPerChunk;
  ParallelTrials pool(threads);
  pool.run(chunks, [&](int c) {
    DijkstraWorkspace ws;
    const int lo = c * kSourcesPerChunk;
    const int hi = std::min(n, lo + kSourcesPerChunk);
    for (int src = lo; src < hi; ++src) {
      const ShortestPaths& sp = dijkstra(g, src, ws);
      std::memcpy(out.data() + static_cast<std::size_t>(src) * static_cast<std::size_t>(n),
                  sp.dist.data(), static_cast<std::size_t>(n) * sizeof(double));
    }
    return 0;
  });
  return out;
}

std::vector<int> bfs_hops(const Graph& g, int src) {
  std::vector<int> hops(static_cast<std::size_t>(g.size()), -1);
  std::queue<int> q;
  hops[static_cast<std::size_t>(src)] = 0;
  q.push(src);
  while (!q.empty()) {
    const int u = q.front();
    q.pop();
    for (const Edge& e : g.neighbors(u)) {
      if (hops[static_cast<std::size_t>(e.to)] < 0) {
        hops[static_cast<std::size_t>(e.to)] = hops[static_cast<std::size_t>(u)] + 1;
        q.push(e.to);
      }
    }
  }
  return hops;
}

std::vector<int> extract_path(const ShortestPaths& sp, int dst) {
  std::vector<int> path;
  if (dst < 0 || dst >= static_cast<int>(sp.dist.size()) ||
      sp.dist[static_cast<std::size_t>(dst)] == kInf)
    return path;
  for (int u = dst; u >= 0; u = sp.parent[static_cast<std::size_t>(u)]) path.push_back(u);
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<int> largest_component(const Graph& g) {
  // Union-find over every arc, so a one-way arc joins its endpoints just as
  // a two-way link does.
  const int n = g.size();
  std::vector<int> root(static_cast<std::size_t>(n));
  std::iota(root.begin(), root.end(), 0);
  const auto parent = [&](int u) -> int& { return root[static_cast<std::size_t>(u)]; };
  const auto find = [&](int u) {
    while (parent(u) != u) {
      parent(u) = parent(parent(u));  // path halving
      u = parent(u);
    }
    return u;
  };
  for (int u = 0; u < n; ++u)
    for (const Edge& e : g.neighbors(u)) {
      const int a = find(u), b = find(e.to);
      if (a != b) parent(std::max(a, b)) = std::min(a, b);
    }
  std::vector<std::size_t> count(static_cast<std::size_t>(n), 0);
  for (int u = 0; u < n; ++u) ++count[static_cast<std::size_t>(find(u))];
  // Every root is its component's smallest id (a union keeps the smaller
  // root), so a strict > in id order keeps the tie rule.
  int best = -1;
  for (int r = 0; r < n; ++r)
    if (parent(r) == r &&
        (best < 0 || count[static_cast<std::size_t>(r)] > count[static_cast<std::size_t>(best)]))
      best = r;
  std::vector<int> nodes;
  for (int u = 0; u < n; ++u)
    if (find(u) == best) nodes.push_back(u);
  return nodes;
}

}  // namespace gdvr::graph
