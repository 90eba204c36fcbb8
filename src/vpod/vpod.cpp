#include "vpod/vpod.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace gdvr::vpod {

Vpod::Vpod(mdt::Net& net, const VpodConfig& config)
    : net_(net),
      config_(config),
      overlay_(net, [&] {
        mdt::MdtConfig m = config.mdt;
        m.dim = config.dim;
        return m;
      }()),
      ctl_(static_cast<std::size_t>(net.size())),
      periods_(static_cast<std::size_t>(net.size()), 0),
      adjustments_(static_cast<std::size_t>(net.size()), 0) {
  // Positions and the local DT are sized for Vec::kMaxDim: reject a bad
  // dimension here, not at the first recompute.
  GDVR_ASSERT_MSG(2 <= config.dim && config.dim <= Vec::kMaxDim,
                  "VpodConfig::dim must be in 2..Vec::kMaxDim");
  // A zero or negative period or timeout schedules timers at or before now
  // without end.
  GDVR_ASSERT_MSG(config.initial_timeout_s > 0.0, "VpodConfig::initial_timeout_s must be > 0");
  GDVR_ASSERT_MSG(config.adjust_period_s > 0.0, "VpodConfig::adjust_period_s must be > 0");
  GDVR_ASSERT_MSG(config.join_period_s > 0.0, "VpodConfig::join_period_s must be > 0");
  GDVR_ASSERT_MSG(config.timeout_mode != VpodConfig::TimeoutMode::kFixed ||
                      config.fixed_timeout_s > 0.0,
                  "VpodConfig::fixed_timeout_s must be > 0 in kFixed mode");
  Rng base(config.seed);
  rng_.reserve(static_cast<std::size_t>(net.size()));
  for (NodeId u = 0; u < net.size(); ++u)
    rng_.push_back(base.split(static_cast<std::uint64_t>(u)));
}

void Vpod::start(NodeId starting_node) {
  starting_node_ = starting_node;
  net_.set_receiver(
      [this](NodeId to, NodeId from, Envelope&& msg) { handle(to, from, std::move(msg)); });
  receive_token(starting_node, NodeInfo{});
}

void Vpod::handle(NodeId to, NodeId from, Envelope&& msg) {
  if (msg.kind == Kind::kToken) {
    receive_token(to, msg.origin_info);
    return;
  }
  overlay_.handle(to, from, std::move(msg));
}

// ---------------------------------------------------------------------------
// Token flood and position initialization (Sec. II-B)

void Vpod::receive_token(NodeId u, const NodeInfo& sender) {
  NodeCtl& c = ctl_[static_cast<std::size_t>(u)];
  if (c.has_token || !net_.alive(u)) return;  // duplicate tokens are ignored
  c.has_token = true;

  const Vec pos = initial_position(u, sender);
  overlay_.activate(u, pos, u == starting_node_);

  // Forward the token to all physical neighbors (it carries this node's
  // freshly initialized position, doubling as a Hello).
  net_.for_each_alive_neighbor(u, [&](const graph::Edge& e) {
    Envelope t;
    t.kind = Kind::kToken;
    t.origin = u;
    t.origin_info = NodeInfo{u, pos, 1.0};
    net_.send(u, e.to, std::move(t));
  });

  // Enter the first J period shortly afterwards (staggered so the token
  // flood and initial Hellos settle).
  net_.simulator().schedule_in_node(u, 0.1 + rng_at(u).uniform(0.0, 0.2),
                                    [this, u, inc = net_.incarnation(u)] {
    if (net_.incarnation(u) == inc) enter_join_period(u);
  });
}

Vec Vpod::initial_position(NodeId u, const NodeInfo& sender) {
  if (u == starting_node_) return Vec::zero(config_.dim);

  // Initialized physical neighbors: everything that has sent us a Hello or a
  // token (only initialized nodes send either).
  std::vector<NodeInfo> inits;
  for (const auto& [id, info] : overlay_.phys_info(u)) {
    (void)id;
    inits.push_back(info);
  }
  if (sender.id >= 0 &&
      std::none_of(inits.begin(), inits.end(), [&](const NodeInfo& i) { return i.id == sender.id; }))
    inits.push_back(sender);

  if (inits.empty()) {
    // Should not happen (the token sender is always initialized); place near
    // the origin as a safe default.
    return rng_at(u).point_on_sphere(Vec::zero(config_.dim), 1.0);
  }
  if (inits.size() == 1) {
    // One initialized neighbor v: a random point on the sphere centered at v
    // with radius equal to the link cost c(u, v).
    const double radius = std::max(net_.link_cost(u, inits[0].id), 1e-6);
    return rng_at(u).point_on_sphere(inits[0].pos, radius);
  }
  // Two or more: midpoint of the two farthest-apart neighbors, plus a short
  // random offset to avoid degenerate collinear placements.
  std::size_t bi = 0, bj = 1;
  double best = -1.0;
  for (std::size_t i = 0; i < inits.size(); ++i)
    for (std::size_t j = i + 1; j < inits.size(); ++j) {
      const double d = inits[i].pos.distance(inits[j].pos);
      if (d > best) {
        best = d;
        bi = i;
        bj = j;
      }
    }
  const Vec mid = (inits[bi].pos + inits[bj].pos) * 0.5;
  const double offset = std::max(best, 1e-6) * config_.init_offset_rel;
  return rng_at(u).point_on_sphere(mid, offset);
}

// ---------------------------------------------------------------------------
// J / A period alternation

void Vpod::enter_join_period(NodeId u) {
  if (!net_.alive(u) || !overlay_.active(u)) return;
  if (!overlay_.joined(u))
    overlay_.start_join(u);
  else
    overlay_.run_maintenance_round(u);
  net_.simulator().schedule_in_node(u, config_.join_period_s,
                                    [this, u, inc = net_.incarnation(u)] {
    if (net_.incarnation(u) == inc) enter_adjust_period(u);
  });
}

void Vpod::enter_adjust_period(NodeId u) {
  if (!net_.alive(u) || !overlay_.active(u)) return;
  ctl_[static_cast<std::size_t>(u)].a_period_end =
      net_.simulator().now() + config_.adjust_period_s;
  adjustment_tick(u);
}

void Vpod::adjustment_tick(NodeId u) {
  if (!net_.alive(u) || !overlay_.active(u)) return;
  const sim::Time a_end = ctl_[static_cast<std::size_t>(u)].a_period_end;
  const double dt = adjustment_timeout(u);
  const sim::Time next = net_.simulator().now() + dt;
  if (next >= a_end) {
    // Period over: one last wait until the boundary, then back to a J period.
    net_.simulator().schedule_at_node(u, a_end, [this, u, inc = net_.incarnation(u)] {
      if (net_.incarnation(u) != inc || !net_.alive(u) || !overlay_.active(u)) return;
      ++periods_[static_cast<std::size_t>(u)];
      enter_join_period(u);
    });
    return;
  }
  net_.simulator().schedule_at_node(u, next, [this, u, inc = net_.incarnation(u)] {
    if (net_.incarnation(u) != inc || !net_.alive(u) || !overlay_.active(u)) return;
    adjust(u);
    adjustment_tick(u);
  });
}

double Vpod::adjustment_timeout(NodeId u) const {
  if (config_.timeout_mode == VpodConfig::TimeoutMode::kFixed) return config_.fixed_timeout_s;
  double ebar = 0.0;
  int count = 0;
  overlay_.for_each_neighbor(u, [&](const mdt::NeighborView& v) {
    ebar += v.err;
    ++count;
  });
  if (count == 0) return config_.initial_timeout_s;
  ebar /= static_cast<double>(count);
  if (ebar <= config_.initial_timeout_s / config_.adjust_period_s) return config_.adjust_period_s;
  return std::min(config_.initial_timeout_s / ebar, config_.adjust_period_s);
}

// ---------------------------------------------------------------------------
// The Figure 6 adjustment algorithm

void Vpod::adjust(NodeId u) {
  Vec x = overlay_.position(u);
  double eu = overlay_.error(u);
  double esum = 0.0;
  int count = 0;

  overlay_.for_each_neighbor(u, [&](const mdt::NeighborView& v) {
    ++count;
    const double cost = v.cost;                 // D(u,v): link cost or DT routing cost
    const double dist = std::max(x.distance(v.pos), 1e-9);  // D~(u,v)
    // Line 3: physical neighbors only pull (when the virtual distance
    // overestimates the link cost); multi-hop DT neighbors both push and pull.
    const bool is_multihop_dt = v.is_dt && !v.is_phys;
    if (!(is_multihop_dt || (v.is_phys && dist > cost))) return;

    const double denom = eu + v.err;
    const double f = config_.use_confidence ? (denom > 0.0 ? eu / denom : 0.0) : 0.5;
    x += config_.cc * f * (cost - dist) * (x - v.pos).unit();
    esum += std::fabs(cost - dist) / dist;
  });
  if (count == 0) return;
  ++adjustments_[static_cast<std::size_t>(u)];

  const double enew = esum / static_cast<double>(count);
  eu = eu * (1.0 - config_.ce) + enew * config_.ce;
  // Line 13: send the updated position and error to all P_u ∪ N_u.
  overlay_.set_position(u, x, eu);
}

// ---------------------------------------------------------------------------
// Churn (Sec. IV-H)

void Vpod::fail_node(NodeId u) {
  overlay_.deactivate(u);  // the node is dead: its timers do nothing
  ctl_[static_cast<std::size_t>(u)] = NodeCtl{};
  periods_[static_cast<std::size_t>(u)] = 0;
}

void Vpod::join_node(NodeId u) {
  net_.set_alive(u, true);  // a new incarnation: timers of the last life die
  ctl_[static_cast<std::size_t>(u)].has_token = true;
  // Initial position: centroid of alive physical neighbors with error < 1
  // (modeling a link-layer position probe of the direct neighborhood).
  Vec centroid = Vec::zero(config_.dim);
  int count = 0;
  net_.for_each_alive_neighbor(u, [&](const graph::Edge& e) {
    if (overlay_.active(e.to) && overlay_.error(e.to) < 1.0) {
      centroid += overlay_.position(e.to);
      ++count;
    }
  });
  Vec pos = count > 0 ? centroid / static_cast<double>(count)
                      : rng_at(u).point_on_sphere(Vec::zero(config_.dim), 1.0);
  // Small offset so multiple joiners sharing neighbors do not coincide.
  pos = rng_at(u).point_on_sphere(pos, 0.05 + 0.001 * static_cast<double>(u));
  overlay_.activate(u, pos, false);
  net_.simulator().schedule_in_node(u, 0.1 + rng_at(u).uniform(0.0, 0.2),
                                    [this, u, inc = net_.incarnation(u)] {
    if (net_.incarnation(u) == inc) enter_join_period(u);
  });
}

}  // namespace gdvr::vpod
