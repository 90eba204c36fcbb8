#include "vpod/live_gdv.hpp"

#include <atomic>
#include <cmath>

namespace gdvr::vpod {

using mdt::Envelope;
using mdt::Kind;
using mdt::NeighborView;

LiveGdv::LiveGdv(mdt::Net& net, Vpod& vpod) : net_(net), vpod_(vpod) {
  net_.set_receiver(
      [this](NodeId to, NodeId from, Envelope&& m) { handle(to, from, std::move(m)); });
}

std::uint64_t LiveGdv::send_packet(NodeId s, NodeId t) {
  Delivery& d = packets_.emplace_back();
  const std::uint64_t id = packets_.size();
  d.sent_at = net_.simulator().now();
  if (s == t) {
    // Already at the target: zero transmissions at zero cost, as route_gdv.
    d.delivered = true;
    d.delivered_at = d.sent_at;
    return id;
  }

  Envelope m;
  m.kind = Kind::kData;
  m.origin = s;
  m.target = t;
  // Location-service lookup: the destination's current virtual position.
  m.target_pos = vpod_.overlay().position(t);
  m.token = id;
  m.ttl = 12 * net_.size() + 64;
  forward(s, std::move(m));
  return id;
}

double LiveGdv::mean_delivered_cost() const {
  double sum = 0.0;
  int n = 0;
  for (const Delivery& d : packets_) {
    if (d.delivered) {
      sum += d.cost;
      ++n;
    }
  }
  return n > 0 ? sum / n : 0.0;
}

void LiveGdv::handle(NodeId to, NodeId from, Envelope&& msg) {
  if (msg.kind != Kind::kData) {
    vpod_.handle(to, from, std::move(msg));
    return;
  }
  // Account the hop that just happened (forward-direction metric cost).
  msg.accum_cost += net_.link_cost(from, to);
  GDVR_ASSERT_MSG(msg.token - 1 < packets_.size(), "data packet from another ledger");
  Delivery& d = packets_[msg.token - 1];
  std::atomic_ref<int>(d.transmissions).fetch_add(1, std::memory_order_relaxed);

  if (to == msg.target) {
    d.cost = msg.accum_cost;
    d.delivered = true;
    d.delivered_at = net_.simulator().now();
    return;
  }

  // Mid-virtual-link relay: follow the source route; GDV resumes at its end.
  if (msg.detour) {
    if (!msg.arrive(to)) {
      const NodeId next = msg.route[static_cast<std::size_t>(msg.route_idx) + 1];
      (void)net_.send(to, next, std::move(msg));
      return;
    }
    msg.end_detour();
  }
  forward(to, std::move(msg));
}

void LiveGdv::forward(NodeId u, Envelope&& msg) {
  if (msg.ttl-- <= 0) return;
  const auto& overlay = vpod_.overlay();
  if (!overlay.active(u) || !net_.alive(u)) return;

  const Vec& tpos = msg.target_pos;
  const double own = overlay.position(u).distance(tpos);

  // Lines 1-3 (Fig. 7, right column): DV estimates over P_u ∪ N_u from u's
  // own knowledge of neighbor positions, costs and virtual links. The link
  // layer knows dead neighbors and downed links; a virtual link leaves u
  // over its path's first hop, screened the same way (only when it would
  // win, so losing views never read their path). The same pass finds the
  // physical hop MDT-greedy (line 5) would take, greedy_next's first choice.
  const auto hop_usable = [&](NodeId hop) { return net_.alive(hop) && net_.link_up(u, hop); };
  NodeId next = -1;
  const std::vector<NodeId>* path = nullptr;
  double best_r = graph::kInf;
  NodeId greedy_phys = -1;
  double greedy_d = own;
  overlay.for_each_neighbor(u, [&](const NeighborView& v) {
    if (!net_.alive(v.id) || (v.is_phys && !net_.link_up(u, v.id))) return;
    const double d = v.pos.distance(tpos);
    const double r = v.cost + d;
    if (r < best_r && (v.is_phys || hop_usable(v.path[1]))) {
      best_r = r;
      next = v.id;
      path = &v.path;
    }
    if (v.is_phys && d < greedy_d) {
      greedy_d = d;
      greedy_phys = v.id;
    }
  });
  // Line 5: MDT-greedy on u's local state: the physical hop found above,
  // else greedy_next's multi-hop one.
  if (next < 0 || !(best_r < own)) {
    if (greedy_phys >= 0) {
      (void)net_.send(u, greedy_phys, std::move(msg));
      return;
    }
    // A multi-hop choice whose first hop is unusable counts as a local
    // minimum too: greedy_next screens only physical hops.
    const auto greedy = overlay.greedy_next(u, tpos, {}, /*joined_only=*/false);
    if (!greedy || (!greedy->is_phys && !hop_usable(greedy->path[1])))
      return;  // local minimum: DT incomplete here
    next = greedy->id;
    path = &greedy->path;
  }
  if (path->empty()) {
    (void)net_.send(u, next, std::move(msg));
    return;
  }
  msg.detour = true;
  msg.route = *path;
  msg.route_idx = 0;
  (void)net_.send(u, (*path)[1], std::move(msg));
}

}  // namespace gdvr::vpod
