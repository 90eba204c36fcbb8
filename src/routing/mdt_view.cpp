#include "routing/mdt_view.hpp"

#include <algorithm>

#include "geom/delaunay.hpp"
#include "obs/profile.hpp"

namespace gdvr::routing {

MdtView snapshot_overlay(const mdt::MdtOverlay& overlay, const graph::Graph& metric) {
  MdtView view;
  const int n = metric.size();
  view.metric = &metric;
  view.pos.resize(static_cast<std::size_t>(n));
  view.dt.resize(static_cast<std::size_t>(n));
  view.alive.resize(static_cast<std::size_t>(n), 1);
  for (int u = 0; u < n; ++u) {
    view.alive[static_cast<std::size_t>(u)] =
        overlay.active(u) && overlay.net().alive(u) ? 1 : 0;
    view.pos[static_cast<std::size_t>(u)] = overlay.position(u);
    if (!view.alive[static_cast<std::size_t>(u)]) continue;
    overlay.for_each_neighbor(u, [&](const mdt::NeighborView& nv) {
      if (!nv.is_phys)
        view.dt[static_cast<std::size_t>(u)].push_back(MdtView::DtNbr{nv.id, nv.cost, nv.path});
    });
  }
  return view;
}

MdtView centralized_mdt(std::span<const Vec> positions, const graph::Graph& metric) {
  GDVR_PROFILE_SCOPE("routing.centralized_mdt");
  MdtView view;
  const int n = metric.size();
  GDVR_ASSERT(static_cast<int>(positions.size()) == n);
  view.metric = &metric;
  view.pos.assign(positions.begin(), positions.end());
  view.dt.resize(static_cast<std::size_t>(n));
  view.alive.assign(static_cast<std::size_t>(n), 1);

  const geom::DelaunayGraph dtg = geom::delaunay_graph(positions);
  // Sources that own at least one non-physical DT edge need a shortest-path
  // tree to extract virtual-link paths and costs.
  graph::DijkstraWorkspace ws;
  for (int u = 0; u < n; ++u) {
    bool needs_tree = false;
    for (int v : dtg.nbrs[static_cast<std::size_t>(u)])
      if (!metric.has_edge(u, v)) needs_tree = true;
    if (!needs_tree) continue;
    const graph::ShortestPaths& sp = graph::dijkstra(metric, u, ws);
    for (int v : dtg.nbrs[static_cast<std::size_t>(u)]) {
      if (metric.has_edge(u, v)) continue;
      if (sp.dist[static_cast<std::size_t>(v)] == graph::kInf) continue;
      MdtView::DtNbr d;
      d.id = v;
      d.cost = sp.dist[static_cast<std::size_t>(v)];
      d.path = graph::extract_path(sp, v);
      view.dt[static_cast<std::size_t>(u)].push_back(std::move(d));
    }
  }
  return view;
}

}  // namespace gdvr::routing
