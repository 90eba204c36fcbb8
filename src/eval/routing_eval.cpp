#include "eval/routing_eval.hpp"

#include <algorithm>
#include <map>

namespace gdvr::eval {

std::vector<std::pair<int, int>> sample_pairs(const std::vector<int>& eligible, int count,
                                              std::uint64_t seed) {
  std::vector<std::pair<int, int>> pairs;
  const int n = static_cast<int>(eligible.size());
  if (n < 2) return pairs;
  if (count <= 0 || static_cast<long>(count) >= static_cast<long>(n) * (n - 1)) {
    for (int i = 0; i < n; ++i)
      for (int j = 0; j < n; ++j)
        if (i != j) pairs.emplace_back(eligible[static_cast<std::size_t>(i)],
                                       eligible[static_cast<std::size_t>(j)]);
    return pairs;
  }
  Rng rng(seed);
  pairs.reserve(static_cast<std::size_t>(count));
  for (int k = 0; k < count; ++k) {
    const int i = rng.uniform_index(n);
    int j = rng.uniform_index(n - 1);
    if (j >= i) ++j;
    pairs.emplace_back(eligible[static_cast<std::size_t>(i)], eligible[static_cast<std::size_t>(j)]);
  }
  return pairs;
}

void export_routing_stats(obs::Registry& reg, const std::string& prefix,
                          const RoutingStats& stats) {
  reg.gauge(prefix + ".delivery_rate").set(stats.success_rate);
  reg.gauge(prefix + ".stretch").set(stats.stretch);
  reg.gauge(prefix + ".transmissions").set(stats.transmissions);
  reg.gauge(prefix + ".optimal_transmissions").set(stats.optimal_transmissions);
  reg.gauge(prefix + ".pairs").set(static_cast<double>(stats.pairs_evaluated));
}

std::vector<int> alive_nodes(const routing::MdtView& view) {
  std::vector<int> ids;
  for (int u = 0; u < view.size(); ++u)
    if (view.is_alive(u)) ids.push_back(u);
  return ids;
}

std::vector<int> largest_alive_component(const routing::MdtView& view) {
  // BFS over alive nodes only.
  const graph::Graph& g = *view.metric;
  std::vector<int> comp(static_cast<std::size_t>(g.size()), -1);
  std::vector<int> best;
  for (int s = 0; s < g.size(); ++s) {
    if (!view.is_alive(s) || comp[static_cast<std::size_t>(s)] >= 0) continue;
    std::vector<int> members{s};
    comp[static_cast<std::size_t>(s)] = s;
    for (std::size_t i = 0; i < members.size(); ++i)
      for (const graph::Edge& e : g.neighbors(members[i]))
        if (view.is_alive(e.to) && comp[static_cast<std::size_t>(e.to)] < 0) {
          comp[static_cast<std::size_t>(e.to)] = s;
          members.push_back(e.to);
        }
    if (members.size() > best.size()) best = std::move(members);
  }
  std::sort(best.begin(), best.end());
  return best;
}

RoutingStats evaluate_router(const RouteFn& route, const graph::Graph& metric,
                             const graph::Graph& hops, bool use_etx,
                             const std::vector<std::pair<int, int>>& pairs) {
  RoutingStats stats;
  if (pairs.empty()) return stats;

  // Cache optimal distances per source (hops for stretch, ETX for optimal
  // transmissions).
  std::map<int, std::vector<int>> hop_cache;
  std::map<int, std::vector<double>> etx_cache;
  graph::DijkstraWorkspace dijkstra_ws;

  double stretch_sum = 0.0, tx_sum = 0.0, opt_sum = 0.0;
  int delivered = 0, opt_count = 0;
  for (const auto& [s, t] : pairs) {
    ++stats.pairs_evaluated;
    if (use_etx) {
      auto it = etx_cache.find(s);
      if (it == etx_cache.end())
        it = etx_cache.emplace(s, graph::dijkstra(metric, s, dijkstra_ws).dist).first;
      const double opt = it->second[static_cast<std::size_t>(t)];
      if (opt < graph::kInf) {
        opt_sum += opt;
        ++opt_count;
      }
    } else {
      auto it = hop_cache.find(s);
      if (it == hop_cache.end()) it = hop_cache.emplace(s, graph::bfs_hops(hops, s)).first;
    }

    const routing::RouteResult r = route(s, t);
    if (!r.success) continue;
    ++delivered;
    if (use_etx) {
      tx_sum += r.cost;
    } else {
      const int opt_hops = hop_cache[s][static_cast<std::size_t>(t)];
      if (opt_hops > 0) stretch_sum += static_cast<double>(r.transmissions) / opt_hops;
    }
  }

  stats.success_rate =
      static_cast<double>(delivered) / static_cast<double>(stats.pairs_evaluated);
  if (delivered > 0) {
    stats.stretch = stretch_sum / delivered;
    stats.transmissions = tx_sum / delivered;
  }
  if (opt_count > 0) stats.optimal_transmissions = opt_sum / opt_count;
  return stats;
}

namespace {

RoutingStats eval_view(const routing::MdtView& view, const radio::Topology& topo,
                       const EvalOptions& opts, bool basic) {
  const auto pairs = sample_pairs(opts.eligible.empty() ? alive_nodes(view) : opts.eligible,
                                  opts.pair_samples, opts.seed);
  const graph::Graph& metric = topo.metric_graph(opts.use_etx);
  RouteFn fn;
  if (basic)
    fn = [&](int s, int t) { return routing::route_gdv_basic(view, s, t); };
  else
    fn = [&](int s, int t) { return routing::route_gdv(view, s, t); };
  return evaluate_router(fn, metric, topo.hops, opts.use_etx, pairs);
}

}  // namespace

RoutingStats eval_gdv(const routing::MdtView& view, const radio::Topology& topo,
                      const EvalOptions& opts) {
  return eval_view(view, topo, opts, /*basic=*/false);
}

RoutingStats eval_gdv_basic(const routing::MdtView& view, const radio::Topology& topo,
                            const EvalOptions& opts) {
  return eval_view(view, topo, opts, /*basic=*/true);
}

RoutingStats eval_mdt_actual(const radio::Topology& topo, const EvalOptions& opts) {
  const graph::Graph& metric = topo.metric_graph(opts.use_etx);
  const routing::MdtView view = routing::centralized_mdt(topo.positions, metric);
  const auto pairs = sample_pairs(alive_nodes(view), opts.pair_samples, opts.seed);
  return evaluate_router([&](int s, int t) { return routing::route_mdt_greedy(view, s, t); },
                         metric, topo.hops, opts.use_etx, pairs);
}

RoutingStats eval_nadv_actual(const radio::Topology& topo, const EvalOptions& opts) {
  const graph::Graph& metric = topo.metric_graph(opts.use_etx);
  const routing::PlanarGraph planar(topo.positions, topo.hops);
  std::vector<int> ids(static_cast<std::size_t>(topo.size()));
  for (int i = 0; i < topo.size(); ++i) ids[static_cast<std::size_t>(i)] = i;
  const auto pairs = sample_pairs(ids, opts.pair_samples, opts.seed);
  return evaluate_router(
      [&](int s, int t) { return routing::route_nadv(topo.positions, metric, planar, s, t); },
      metric, topo.hops, opts.use_etx, pairs);
}

RoutingStats eval_gdv_on_positions(std::span<const Vec> positions, const radio::Topology& topo,
                                   const EvalOptions& opts) {
  const graph::Graph& metric = topo.metric_graph(opts.use_etx);
  const routing::MdtView view = routing::centralized_mdt(positions, metric);
  const auto pairs = sample_pairs(alive_nodes(view), opts.pair_samples, opts.seed);
  return evaluate_router([&](int s, int t) { return routing::route_gdv(view, s, t); }, metric,
                         topo.hops, opts.use_etx, pairs);
}

}  // namespace gdvr::eval
