// Classic distributed Distance Vector routing -- the protocol GDV's name and
// forwarding rule come from (paper Section I).
//
// Every node maintains a full routing table (cost + next hop per
// destination) and advertises its distance vector to physical neighbors,
// periodically and on change (triggered updates). With positive additive
// costs and a static topology this converges to the Dijkstra optimum; the
// price is Theta(N) state per node and Theta(N)-sized update messages --
// exactly the costs GDV avoids by computing distance vectors locally from
// virtual positions. bench/ablation_dv_vs_gdv quantifies the trade.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "routing/routers.hpp"
#include "sim/netsim.hpp"

namespace gdvr::routing {

using NodeId = int;

struct DvMsg {
  NodeId origin = -1;
  // The sender's current view: (destination, cost-from-sender).
  std::vector<std::pair<NodeId, double>> vector;
};

// Triggered updates carry only the entries whose (cost, next hop) changed
// since the node last advertised, not the full Theta(N) table. The periodic
// advertisement stays full-table and doubles as anti-entropy, so a neighbor
// that missed a delta (fresh link, reboot, lost message) converges within one
// period; dv_test pins convergence to Dijkstra under message loss.
struct DvConfig {
  double advertise_period_s = 5.0;  // periodic full-table advertisement
  double triggered_delay_s = 0.2;   // coalescing delay for triggered updates
};

class DistanceVector {
 public:
  DistanceVector(sim::NetSim<DvMsg>& net, const DvConfig& config = {});

  // Installs the receiver and starts periodic advertising at every alive
  // node (staggered within the first advertise period).
  void start();

  // Routing-table queries.
  double cost(NodeId u, NodeId t) const;
  NodeId next_hop(NodeId u, NodeId t) const;
  int table_size(NodeId u) const {
    return static_cast<int>(tables_[static_cast<std::size_t>(u)].size());
  }
  // Storage metric comparable to MdtOverlay::distinct_nodes_stored: number
  // of distinct remote nodes in the routing table.
  int distinct_nodes_stored(NodeId u) const { return table_size(u) - 1; }

  // Follows next-hop pointers from s to t, accumulating real link costs.
  RouteResult route(NodeId s, NodeId t) const;

  // True iff every alive node's table matches its Dijkstra distances.
  // Diagnostic for *static* topologies (O(N * E log N)).
  bool converged() const;

  // Update-traffic counters, summed over nodes: full_* count the periodic
  // full tables, delta_* the triggered deltas; entries_* measure the
  // advertised (dest, cost) pairs -- the Theta(N)-vs-O(changed) message-size
  // trade the deltas buy.
  struct DvStats {
    std::uint64_t full_adverts = 0;
    std::uint64_t delta_adverts = 0;
    std::uint64_t entries_full = 0;
    std::uint64_t entries_delta = 0;
  };
  DvStats dv_stats() const {
    DvStats total;
    for (const DvStats& s : stats_) {
      total.full_adverts += s.full_adverts;
      total.delta_adverts += s.delta_adverts;
      total.entries_full += s.entries_full;
      total.entries_delta += s.entries_delta;
    }
    return total;
  }

 private:
  struct Entry {
    double cost = 0.0;
    NodeId next = -1;
  };

  void advertise(NodeId u);
  void schedule_triggered(NodeId u);
  void on_message(NodeId to, NodeId from, const DvMsg& msg);

  sim::NetSim<DvMsg>& net_;
  DvConfig config_;
  std::vector<std::map<NodeId, Entry>> tables_;
  // Per-node triggered-update flag. char, not bool: std::vector<bool> packs
  // neighbouring nodes into one word, and sharded-engine lanes write the
  // flags of their own nodes concurrently.
  std::vector<char> dirty_;
  // Destinations whose entry changed since this node's last advertisement;
  // a triggered delta update floods exactly these. Cleared by every
  // advertisement (a full table trivially covers the set).
  std::vector<std::set<NodeId>> changed_;
  std::vector<DvStats> stats_;  // per-node slots: writes stay lane-local
  Rng rng_;
};

}  // namespace gdvr::routing
