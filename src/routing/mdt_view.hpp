// A routing-time snapshot of per-node MDT state: positions, DT neighbor sets
// with routing costs, and the physical paths of virtual links.
//
// Two producers:
//  * snapshot_overlay -- extracts the state the distributed MDT/VPoD
//    protocols actually built (what "GDV on VPoD" routes with);
//  * centralized_mdt -- builds the same view offline from a set of positions
//    (used for the "MDT on actual locations" baseline and for "GDV on
//    Vivaldi", where no distributed MDT ran over those coordinates).
#pragma once

#include <span>
#include <vector>

#include "common/vec.hpp"
#include "graph/graph.hpp"
#include "mdt/overlay.hpp"

namespace gdvr::routing {

struct MdtView {
  struct DtNbr {
    int id = -1;
    double cost = 0.0;          // D(u, id): routing cost over the virtual link
    std::vector<int> path;      // physical route u -> ... -> id (empty if physical)
  };

  std::vector<Vec> pos;              // per-node positions (virtual or actual)
  // Physical links with metric costs; the routers walk it, so the graph
  // handed to a producer must outlive the view.
  const graph::Graph* metric = nullptr;
  std::vector<std::vector<DtNbr>> dt;    // per-node multi-hop DT neighbors
  std::vector<char> alive;

  int size() const { return static_cast<int>(pos.size()); }
  bool is_alive(int u) const { return alive.empty() || alive[static_cast<std::size_t>(u)]; }
};

// Snapshot of the distributed overlay: each node's multi-hop DT neighbors
// with a finite cost, as for_each_neighbor hands them out, with their stored
// paths (physical DT neighbors are reachable via the metric graph directly).
MdtView snapshot_overlay(const mdt::MdtOverlay& overlay, const graph::Graph& metric);

// Offline construction: Delaunay graph of `positions`; every non-physical DT
// edge becomes a virtual link along the metric-shortest path.
MdtView centralized_mdt(std::span<const Vec> positions, const graph::Graph& metric);

}  // namespace gdvr::routing
