#include "vivaldi/vivaldi.hpp"

#include <algorithm>
#include <cmath>

namespace gdvr::vivaldi {

TwoHopVivaldi::TwoHopVivaldi(sim::NetSim<VivMsg>& net, const VivaldiConfig& config)
    : net_(net),
      config_(config),
      pos_(static_cast<std::size_t>(net.size())),
      err_(static_cast<std::size_t>(net.size()), 1.0),
      periods_(static_cast<std::size_t>(net.size()), 0),
      two_hop_(static_cast<std::size_t>(net.size())) {
  // Vivaldi starts everyone near the origin with a tiny random kick so the
  // spring forces have a direction to act along.
  Rng base(config.seed);
  for (auto& p : pos_) p = base.point_on_sphere(Vec::zero(config_.dim), 0.01);
  rng_.reserve(static_cast<std::size_t>(net.size()));
  for (NodeId u = 0; u < net.size(); ++u)
    rng_.push_back(base.split(static_cast<std::uint64_t>(u)));
}

void TwoHopVivaldi::start() {
  net_.set_receiver([this](NodeId to, NodeId from, VivMsg m) { handle(to, from, std::move(m)); });
  for (NodeId u = 0; u < net_.size(); ++u) {
    if (!net_.alive(u)) continue;
    const double offset = rng_at(u).uniform(0.0, 1.0);
    net_.simulator().schedule_in_node(u, offset, [this, u] { begin_period(u); });
  }
}

void TwoHopVivaldi::begin_period(NodeId u) {
  if (!net_.alive(u)) return;
  // Advertise the neighbor list so neighbors can refresh their 2-hop sets.
  std::vector<NodeId> ids;
  net_.for_each_alive_neighbor(u, [&](const graph::Edge& e) { ids.push_back(e.to); });
  for (NodeId to : ids) {
    VivMsg m;
    m.kind = VivMsg::Kind::kNbrList;
    m.origin = u;
    m.target = to;
    m.nbr_ids = ids;
    net_.send(u, to, std::move(m));
  }
  // Spread the period's samples uniformly over the period.
  const int total = config_.one_hop_samples + config_.two_hop_samples;
  for (int i = 0; i < total; ++i) {
    const double at = rng_at(u).uniform(0.05, config_.period_s);
    net_.simulator().schedule_in_node(u, at, [this, u] { do_sample(u); });
  }
  net_.simulator().schedule_in_node(u, config_.period_s, [this, u] {
    if (!net_.alive(u)) return;
    ++periods_[static_cast<std::size_t>(u)];
    begin_period(u);
  });
}

void TwoHopVivaldi::do_sample(NodeId u) {
  if (!net_.alive(u)) return;
  int degree = 0;
  net_.for_each_alive_neighbor(u, [&](const graph::Edge&) { ++degree; });
  if (degree == 0) return;
  auto& two = two_hop_[static_cast<std::size_t>(u)];
  // 1-hop and 2-hop samples alternate 50/50 in expectation, matching the
  // paper's 100 + 100 per period.
  const bool sample_two_hop = !two.empty() && rng_at(u).bernoulli(
      static_cast<double>(config_.two_hop_samples) /
      static_cast<double>(config_.one_hop_samples + config_.two_hop_samples));
  VivMsg m;
  m.kind = VivMsg::Kind::kSampleRequest;
  m.origin = u;
  if (sample_two_hop) {
    auto it = two.begin();
    std::advance(it, static_cast<long>(rng_at(u).uniform_int(two.size())));
    m.target = it->first;
    m.route = {u, it->second, it->first};
  } else {
    int skip = rng_at(u).uniform_index(degree);
    net_.for_each_alive_neighbor(u, [&](const graph::Edge& e) {
      if (skip-- == 0) m.target = e.to;
    });
    m.route = {u, m.target};
  }
  m.route_idx = 0;
  const NodeId next = m.route[1];  // read before the envelope is moved from
  net_.send(u, next, std::move(m));
}

void TwoHopVivaldi::handle(NodeId to, NodeId from, VivMsg msg) {
  if (!net_.alive(to)) return;
  switch (msg.kind) {
    case VivMsg::Kind::kNbrList: {
      auto& two = two_hop_[static_cast<std::size_t>(to)];
      // Record 2-hop targets reachable via `from` (refresh relay choice).
      for (NodeId v : msg.nbr_ids) {
        if (v == to || net_.links().has_edge(to, v)) continue;
        two[v] = from;
      }
      return;
    }
    case VivMsg::Kind::kSampleRequest: {
      msg.accum_cost += net_.link_cost(from, to);  // forward-path cost
      const auto idx = static_cast<std::size_t>(msg.route_idx);
      if (idx + 1 < msg.route.size() && msg.route[idx + 1] == to) ++msg.route_idx;
      if (msg.route_idx < static_cast<int>(msg.route.size()) - 1) {
        const NodeId next = msg.route[static_cast<std::size_t>(msg.route_idx) + 1];
        net_.send(to, next, std::move(msg));
        return;
      }
      // At the target: reply with coordinates, confidence and measured cost.
      VivMsg r;
      r.kind = VivMsg::Kind::kSampleReply;
      r.origin = to;
      r.target = msg.origin;
      r.route.assign(msg.route.rbegin(), msg.route.rend());
      r.route_idx = 0;
      r.accum_cost = msg.accum_cost;
      r.pos = pos_[static_cast<std::size_t>(to)];
      r.err = err_[static_cast<std::size_t>(to)];
      if (r.route.size() >= 2) {
        const NodeId next = r.route[1];  // read before the envelope is moved from
        net_.send(to, next, std::move(r));
      }
      return;
    }
    case VivMsg::Kind::kSampleReply: {
      const auto idx = static_cast<std::size_t>(msg.route_idx);
      if (idx + 1 < msg.route.size() && msg.route[idx + 1] == to) ++msg.route_idx;
      if (msg.route_idx < static_cast<int>(msg.route.size()) - 1) {
        const NodeId next = msg.route[static_cast<std::size_t>(msg.route_idx) + 1];
        net_.send(to, next, std::move(msg));
        return;
      }
      vivaldi_update(to, msg.pos, msg.err, msg.accum_cost);
      return;
    }
  }
}

void TwoHopVivaldi::vivaldi_update(NodeId u, const Vec& remote_pos, double remote_err,
                                   double cost) {
  if (cost <= 0.0) return;
  Vec& x = pos_[static_cast<std::size_t>(u)];
  double& eu = err_[static_cast<std::size_t>(u)];
  const double dist = std::max(x.distance(remote_pos), 1e-9);
  const double denom = eu + remote_err;
  const double w = denom > 0.0 ? eu / denom : 0.0;  // sample confidence
  const double es = std::fabs(dist - cost) / cost;  // relative sample error
  eu = es * config_.ce * w + eu * (1.0 - config_.ce * w);
  const double delta = config_.cc * w;
  x += delta * (cost - dist) * (x - remote_pos).unit();
}

int TwoHopVivaldi::distinct_nodes_stored(NodeId u) const {
  std::vector<NodeId> known;
  net_.for_each_alive_neighbor(u, [&](const graph::Edge& e) { known.push_back(e.to); });
  for (const auto& [id, via] : two_hop_[static_cast<std::size_t>(u)]) {
    (void)via;
    known.push_back(id);
  }
  std::sort(known.begin(), known.end());
  known.erase(std::unique(known.begin(), known.end()), known.end());
  return static_cast<int>(known.size());
}

}  // namespace gdvr::vivaldi
