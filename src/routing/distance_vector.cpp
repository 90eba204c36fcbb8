#include "routing/distance_vector.hpp"

#include <cmath>

#include "graph/graph.hpp"
#include "obs/trace.hpp"

namespace gdvr::routing {

DistanceVector::DistanceVector(sim::NetSim<DvMsg>& net, const DvConfig& config)
    : net_(net),
      config_(config),
      tables_(static_cast<std::size_t>(net.size())),
      dirty_(static_cast<std::size_t>(net.size()), 0),
      changed_(static_cast<std::size_t>(net.size())),
      stats_(static_cast<std::size_t>(net.size())),
      rng_(0xD57A7ull) {}

void DistanceVector::start() {
  net_.set_receiver([this](NodeId to, NodeId from, DvMsg m) { on_message(to, from, m); });
  for (NodeId u = 0; u < net_.size(); ++u) {
    if (!net_.alive(u)) continue;
    tables_[static_cast<std::size_t>(u)][u] = Entry{0.0, u};
    // Stagger initial advertisements, then advertise periodically.
    const double offset = rng_.uniform(0.0, config_.advertise_period_s);
    net_.simulator().schedule_in_node(u, offset, [this, u] { advertise(u); });
  }
}

void DistanceVector::advertise(NodeId u) {
  if (!net_.alive(u)) return;
  DvMsg m;
  m.origin = u;
  for (const auto& [dest, entry] : tables_[static_cast<std::size_t>(u)])
    m.vector.emplace_back(dest, entry.cost);
  net_.for_each_alive_neighbor(u, [&](const graph::Edge& e) { net_.send(u, e.to, m); });
  dirty_[static_cast<std::size_t>(u)] = false;
  changed_[static_cast<std::size_t>(u)].clear();  // the full table covers everything
  ++stats_[static_cast<std::size_t>(u)].full_adverts;
  stats_[static_cast<std::size_t>(u)].entries_full += m.vector.size();
  net_.simulator().schedule_in_node(u, config_.advertise_period_s, [this, u] { advertise(u); });
}

void DistanceVector::schedule_triggered(NodeId u) {
  if (dirty_[static_cast<std::size_t>(u)]) return;
  dirty_[static_cast<std::size_t>(u)] = true;
  net_.simulator().schedule_in_node(u, config_.triggered_delay_s, [this, u] {
    if (!dirty_[static_cast<std::size_t>(u)] || !net_.alive(u)) return;
    // Triggered advertisement (does not reset the periodic timer chain; the
    // duplicate periodic send is the protocol's normal redundancy): only the
    // entries that changed since the last advertisement -- O(changed)
    // instead of Theta(N). Absence of a destination never carries meaning
    // for the receiver, so a delta and a full table are interchangeable on
    // the wire.
    DvMsg m;
    m.origin = u;
    const auto& table = tables_[static_cast<std::size_t>(u)];
    std::set<NodeId>& changed = changed_[static_cast<std::size_t>(u)];
    for (NodeId dest : changed) {
      const auto it = table.find(dest);
      if (it != table.end()) m.vector.emplace_back(dest, it->second.cost);
    }
    ++stats_[static_cast<std::size_t>(u)].delta_adverts;
    stats_[static_cast<std::size_t>(u)].entries_delta += m.vector.size();
    changed.clear();
    if (!m.vector.empty())
      net_.for_each_alive_neighbor(u, [&](const graph::Edge& e) { net_.send(u, e.to, m); });
    dirty_[static_cast<std::size_t>(u)] = false;
  });
}

void DistanceVector::on_message(NodeId to, NodeId from, const DvMsg& msg) {
  if (!net_.alive(to)) return;
  const double link = net_.link_cost(to, from);
  if (!(link < graph::kInf)) return;
  auto& table = tables_[static_cast<std::size_t>(to)];
  bool changed = false;
  for (const auto& [dest, remote_cost] : msg.vector) {
    if (dest == to) continue;
    const double candidate = link + remote_cost;
    auto it = table.find(dest);
    if (it == table.end() || candidate < it->second.cost - 1e-12 ||
        (it->second.next == from && candidate > it->second.cost + 1e-12)) {
      // Better path, or our current path through `from` got worse.
      table[dest] = Entry{candidate, from};
      changed_[static_cast<std::size_t>(to)].insert(dest);
      changed = true;
    }
  }
  if (changed) schedule_triggered(to);
}

double DistanceVector::cost(NodeId u, NodeId t) const {
  const auto& table = tables_[static_cast<std::size_t>(u)];
  auto it = table.find(t);
  return it == table.end() ? graph::kInf : it->second.cost;
}

NodeId DistanceVector::next_hop(NodeId u, NodeId t) const {
  const auto& table = tables_[static_cast<std::size_t>(u)];
  auto it = table.find(t);
  return it == table.end() ? -1 : it->second.next;
}

RouteResult DistanceVector::route(NodeId s, NodeId t) const {
  RouteResult res;
  obs::PacketTrace trace(s, t, &res.success);
  int cur = s;
  const int budget = 4 * net_.size() + 16;
  while (cur != t) {
    if (res.transmissions >= budget) return res;
    const NodeId next = next_hop(cur, t);
    if (next < 0 || next == cur || !net_.alive(next)) return res;
    const double c = net_.link_cost(cur, next);
    if (!(c < graph::kInf)) return res;
    // A table-driven hop is the protocol's primary mode; the estimate is the
    // node's current table cost to the destination.
    obs::trace_hop(cur, next, obs::HopMode::kGreedy, cost(cur, t));
    if (res.path.empty()) res.path.push_back(cur);
    res.path.push_back(next);
    res.cost += c;
    ++res.transmissions;
    cur = next;
  }
  res.success = true;
  return res;
}

bool DistanceVector::converged() const {
  // The ground-truth check runs one Dijkstra per alive node.
  graph::DijkstraWorkspace ws;
  for (NodeId u = 0; u < net_.size(); ++u) {
    if (!net_.alive(u)) continue;
    const auto& sp = graph::dijkstra(net_.links(), u, ws);
    for (NodeId t = 0; t < net_.size(); ++t) {
      if (!net_.alive(t)) continue;
      const double truth = sp.dist[static_cast<std::size_t>(t)];
      const double mine = cost(u, t);
      if (truth == graph::kInf && mine == graph::kInf) continue;
      if (std::fabs(truth - mine) > 1e-9) return false;
    }
  }
  return true;
}

}  // namespace gdvr::routing
