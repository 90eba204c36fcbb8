#include "mdt/overlay.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"
#include "geom/delaunay.hpp"
#include "obs/profile.hpp"

namespace gdvr::mdt {

namespace {

std::pair<NodeId, NodeId> norm_pair(NodeId a, NodeId b) {
  return a < b ? std::make_pair(a, b) : std::make_pair(b, a);
}

bool contains(const std::vector<NodeId>& xs, NodeId x) {
  return std::find(xs.begin(), xs.end(), x) != xs.end();
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

MdtOverlay::MdtOverlay(Net& net, const MdtConfig& config)
    : net_(net),
      config_(config),
      sync_stats_(static_cast<std::size_t>(net.size())),
      recompute_stats_(static_cast<std::size_t>(net.size())),
      fd_stats_(static_cast<std::size_t>(net.size())),
      dt_retired_(static_cast<std::size_t>(net.size())),
      states_(static_cast<std::size_t>(net.size())) {
  Rng base(0x4D445400ull);  // "MDT" seed for protocol-internal jitter
  rng_.reserve(static_cast<std::size_t>(net.size()));
  for (NodeId u = 0; u < net.size(); ++u)
    rng_.push_back(base.split(static_cast<std::uint64_t>(u)));
}

void MdtOverlay::attach() {
  net_.set_receiver([this](NodeId to, NodeId from, Envelope msg) { handle(to, from, std::move(msg)); });
}

// --------------------------------------------------------------------------
// Lifecycle

void MdtOverlay::activate(NodeId u, const Vec& pos, bool first) {
  NodeState& s = st(u);
  s.active = true;
  s.joined = first;
  s.pos = pos;
  s.err = 1.0;
  s.pos_version += 1;
  send_hello(u);
  if (config_.fd.enabled) schedule_fd_tick(u);
}

void MdtOverlay::start_join(NodeId u) {
  NodeState& s = st(u);
  if (!s.active || s.joined || !net_.alive(u)) return;
  // Rate-limit: Hello announcements and the retry timer may both trigger us.
  const sim::Time now = net_.simulator().now();
  if (now - s.last_join_attempt < 0.8) return;
  s.last_join_attempt = now;
  // Seed: the *joined* physical neighbor closest (in the virtual space) to
  // u. Join requests travel inside the multi-hop DT, where greedy forwarding
  // has its delivery guarantee.
  refresh_phys(u);
  NodeId seed = -1;
  double best = graph::kInf;
  for (const auto& [id, info] : s.phys) {
    if (!info.joined) continue;
    const double d = info.pos.distance(s.pos);
    if (d < best) {
      best = d;
      seed = id;
    }
  }
  if (seed >= 0) {
    Envelope m;
    m.kind = Kind::kJoinRequest;
    m.origin = u;
    m.target = -1;
    m.target_pos = s.pos;
    m.origin_info = info_of(u);
    m.visited = {u};
    m.ttl = config_.greedy_ttl;
    send_ctrl(u, seed, std::move(m));
  }
  // Retry until joined (replies may be lost to dead ends during construction).
  const double delay = 2.0 + rng_at(u).uniform(0.0, 1.0);
  net_.simulator().schedule_in_node(u, delay, [this, u] { start_join(u); });
}

void MdtOverlay::deactivate(NodeId u) {
  net_.set_alive(u, false);
  const std::uint64_t pos_version = st(u).pos_version;
  {
    // Fold the dying local DT's counters into the per-node retired
    // accumulator so dt_stats() stays monotone across churn.
    const geom::DynamicDtStats& d = st(u).local_dt.stats();
    geom::DynamicDtStats& r = dt_retired_[static_cast<std::size_t>(u)];
    r.inserts += d.inserts;
    r.removes += d.removes;
    r.moves += d.moves;
    r.move_early_outs += d.move_early_outs;
    r.full_rebuilds += d.full_rebuilds;
    r.walk_fallbacks += d.walk_fallbacks;
  }
  st(u) = NodeState{};  // silent failure: all soft state at u is gone
  // Position versions stay monotonic across reboots, so a rebooted node's
  // fresh position is never out-voted by gossip about its previous life.
  st(u).pos_version = pos_version;
}

geom::DynamicDtStats MdtOverlay::dt_stats() const {
  geom::DynamicDtStats total;
  const auto add = [&total](const geom::DynamicDtStats& d) {
    total.inserts += d.inserts;
    total.removes += d.removes;
    total.moves += d.moves;
    total.move_early_outs += d.move_early_outs;
    total.full_rebuilds += d.full_rebuilds;
    total.walk_fallbacks += d.walk_fallbacks;
  };
  for (const geom::DynamicDtStats& d : dt_retired_) add(d);
  for (const NodeState& s : states_) add(s.local_dt.stats());
  return total;
}

// --------------------------------------------------------------------------
// VPoD hooks

void MdtOverlay::set_position(NodeId u, const Vec& pos, double err) {
  NodeState& s = st(u);
  // The version is a name for the position *value*: only mint a new one when
  // the value changes, so equal (id, version) always means an equal
  // position. Error updates and the announcement below are unaffected.
  if (!(pos == s.pos)) s.pos_version += 1;
  s.pos = pos;
  s.err = err;
  if (!net_.alive(u)) return;
  // Push the new position to physical neighbors (direct) and multi-hop DT
  // neighbors (source-routed along the stored virtual-link path).
  for (const auto& [id, info] : s.phys) {
    (void)info;
    Envelope m;
    m.kind = Kind::kPosUpdate;
    m.origin = u;
    m.target = id;
    m.origin_info = info_of(u);
    net_.send(u, id, std::move(m));
  }
  for (NodeId y : s.dt_nbrs) {
    if (s.phys.count(y)) continue;
    auto it = s.cand.find(y);
    if (it == s.cand.end() || it->second.path.size() < 2) continue;
    Envelope m;
    m.kind = Kind::kPosUpdate;
    m.origin = u;
    m.target = y;
    m.origin_info = info_of(u);
    m.route = it->second.path;
    m.route_idx = 0;
    const NodeId next = m.route[1];  // read before the envelope is moved from
    net_.send(u, next, std::move(m));
  }
}

void MdtOverlay::run_maintenance_round(NodeId u) {
  NodeState& s = st(u);
  if (!s.active || !net_.alive(u)) return;
  refresh_phys(u);
  send_hello(u);
  // Expire relay soft state.
  const sim::Time now = net_.simulator().now();
  for (auto it = s.relay.begin(); it != s.relay.end();) {
    if (now - it->second.refreshed > config_.relay_ttl_s)
      it = s.relay.erase(it);
    else
      ++it;
  }
  // Soft-state staleness: a non-physical candidate that has sent us nothing
  // (position update, request, reply) for neighbor_stale_s is presumed dead.
  // With the adaptive failure detector on, entries with a fitted detector are
  // governed by phi instead (fd_tick evicts them within a few heartbeat
  // periods of death); the fixed timeout remains the bootstrap fallback for
  // entries that never delivered a heartbeat.
  for (auto it = s.cand.begin(); it != s.cand.end();) {
    const bool fd_governed = config_.fd.enabled && s.fd.count(it->first) > 0;
    const bool stale = !fd_governed && !s.phys.count(it->first) &&
                       now - it->second.last_heard > config_.neighbor_stale_s;
    if (stale) {
      s.pending.erase(it->first);
      s.fd.erase(it->first);
      it = s.cand.erase(it);
    } else {
      ++it;
    }
  }
  // Bounded tombstone GC.
  for (auto it = s.tombstones.begin(); it != s.tombstones.end();) {
    if (now - it->second.created > config_.fd.tombstone_ttl_s)
      it = s.tombstones.erase(it);
    else
      ++it;
  }
  // Per paper, every DT-neighbor pair exchanges a Neighbor-Set Request and
  // Reply each round; the smaller id initiates to keep it to two messages.
  for (NodeId y : s.dt_nbrs) {
    auto it = s.cand.find(y);
    if (it != s.cand.end() && (u < y || !it->second.synced)) it->second.synced = false;
  }
  schedule_recompute(u);

  // Instability detection: a changed N_u means the triangulation around u is
  // still in flux (churn, healed partition, position shifts), and one sync
  // per J period chases it too slowly. Schedule a single follow-up sync
  // within this round; a stable neighborhood never takes this path.
  const bool changed = s.dt_nbrs != s.prev_round_dt;
  s.prev_round_dt = s.dt_nbrs;
  if (changed && config_.resync_after_change_s > 0.0 && !s.resync_scheduled) {
    s.resync_scheduled = true;
    const std::uint32_t inc = net_.incarnation(u);
    net_.simulator().schedule_in_node(u, config_.resync_after_change_s, [this, u, inc] {
      // The state this timer belongs to is gone if u died (and possibly
      // rejoined as a new incarnation) in the meantime.
      if (!net_.alive(u) || net_.incarnation(u) != inc) return;
      NodeState& s2 = st(u);
      s2.resync_scheduled = false;
      if (!s2.active) return;
      for (NodeId y : s2.dt_nbrs) {
        auto it = s2.cand.find(y);
        if (it != s2.cand.end() && (u < y || !it->second.synced)) it->second.synced = false;
      }
      schedule_recompute(u);
    });
  }
}

void MdtOverlay::force_resync(NodeId u) {
  NodeState& s = st(u);
  if (!s.active || !net_.alive(u)) return;
  if (!s.joined) {
    start_join(u);
    return;
  }
  for (NodeId y : s.dt_nbrs) {
    auto it = s.cand.find(y);
    if (it != s.cand.end()) it->second.synced = false;
  }
  schedule_recompute(u);
}

// --------------------------------------------------------------------------
// Incarnation reconciliation + adaptive failure detection

bool MdtOverlay::stale_origin(NodeId u, const NodeInfo& info) {
  const NodeState& s = st(u);
  std::uint32_t recorded = 0;
  auto it = s.cand.find(info.id);
  if (it != s.cand.end()) recorded = it->second.incarnation;
  auto pit = s.phys.find(info.id);
  if (pit != s.phys.end()) recorded = std::max(recorded, pit->second.incarnation);
  if (info.incarnation < recorded) {
    ++fd_at(u).stale_incarnation_dropped;
    return true;
  }
  return false;
}

void MdtOverlay::note_direct_contact(NodeId u, const NodeInfo& info) {
  NodeState& s = st(u);
  auto tomb = s.tombstones.find(info.id);
  // A message straight from the node is proof of life: a tombstone for its
  // current (or an older) incarnation is refuted and cleared, so a falsely
  // evicted neighbor heals within one heartbeat period.
  if (tomb != s.tombstones.end() && info.incarnation >= tomb->second.incarnation)
    s.tombstones.erase(tomb);
}

double MdtOverlay::suspicion(NodeId u, NodeId v) const {
  const NodeState& s = st(u);
  auto it = s.fd.find(v);
  if (it == s.fd.end()) return 0.0;
  return it->second.phi(net_.simulator().now());
}

void MdtOverlay::schedule_fd_tick(NodeId u) {
  // Deterministic per-(node, incarnation) phase so heartbeat ticks across the
  // network desynchronize without drawing from the shared protocol RNG.
  const std::uint32_t inc = net_.incarnation(u);
  const std::uint64_t h = mix64((static_cast<std::uint64_t>(inc) << 32) ^
                                static_cast<std::uint64_t>(static_cast<std::uint32_t>(u)));
  const double frac = static_cast<double>(h >> 11) * 0x1.0p-53;
  const double delay = config_.fd.heartbeat_period_s + config_.fd.heartbeat_jitter_s * frac;
  net_.simulator().schedule_in_node(u, delay, [this, u, inc] {
    // The tick chain belongs to one life of u: it dies with the incarnation
    // (reactivation schedules a fresh chain).
    if (!net_.alive(u) || net_.incarnation(u) != inc) return;
    fd_tick(u);
    schedule_fd_tick(u);
  });
}

void MdtOverlay::fd_tick(NodeId u) {
  NodeState& s = st(u);
  if (!s.active) return;
  send_heartbeats(u);
  const sim::Time now = net_.simulator().now();
  // Evict every multi-hop neighbor whose detector has crossed the threshold.
  std::vector<NodeId> dead;
  for (const auto& [y, det] : s.fd)
    if (!s.phys.count(y) && det.suspect(now)) dead.push_back(y);
  for (NodeId y : dead) evict_neighbor(u, y);
}

void MdtOverlay::send_heartbeats(NodeId u) {
  NodeState& s = st(u);
  if (!net_.alive(u)) return;
  // Only multi-hop DT neighbors need explicit probes: physical neighbors are
  // covered by link-layer liveness (refresh_phys), and everything else is
  // transient soft state with its own freshness rules.
  for (NodeId y : s.dt_nbrs) {
    if (s.phys.count(y)) continue;
    auto it = s.cand.find(y);
    if (it == s.cand.end() || it->second.path.size() < 2) continue;
    Envelope m;
    m.kind = Kind::kHeartbeat;
    m.origin = u;
    m.target = y;
    m.origin_info = info_of(u);
    m.route = it->second.path;
    m.route_idx = 0;
    const NodeId next = m.route[1];  // read before the envelope is moved from
    if (net_.send(u, next, std::move(m))) ++fd_at(u).heartbeats_sent;
  }
}

void MdtOverlay::evict_neighbor(NodeId u, NodeId y) {
  NodeState& s = st(u);
  auto it = s.cand.find(y);
  if (it != s.cand.end()) {
    s.tombstones[y] = {it->second.incarnation, net_.simulator().now()};
    ++fd_at(u).tombstones_created;
    s.cand.erase(it);
  }
  s.pending.erase(y);
  s.fd.erase(y);
  ++fd_at(u).evictions;
  schedule_recompute(u);
}

// --------------------------------------------------------------------------
// Receiving

void MdtOverlay::handle(NodeId to, NodeId from, Envelope msg) {
  NodeState& s = st(to);
  if (msg.kind == Kind::kToken) return;  // tokens belong to the layer above (VPoD)
  if (msg.kind == Kind::kAck) {
    if (reliable_ != nullptr) reliable_->on_ack(to, msg.rel_seq);
    return;
  }
  // Reliable-transport hop bookkeeping: ACK the transfer (even when the
  // message is a duplicate -- the earlier ACK may be the thing that was
  // lost) and suppress retransmitted copies already processed.
  if (reliable_ != nullptr && msg.rel_seq != 0) {
    const bool fresh = reliable_->on_receive(to, from, msg.rel_seq);
    msg.rel_seq = 0;
    if (!fresh) return;
  }
  if (msg.kind == Kind::kHello) {
    on_hello(to, msg);
    return;
  }
  if (!s.active) return;

  // Cumulative reverse-path cost (paper Sec. III-A): the receiver x adds
  // c(x, sender), so the final receiver knows its own routing cost back to
  // the origin of the message.
  switch (msg.kind) {
    case Kind::kJoinRequest:
    case Kind::kJoinReply:
    case Kind::kNbrSetRequest:
    case Kind::kNbrSetReply:
      msg.accum_cost += net_.link_cost(to, from);
      break;
    default:
      break;
  }

  // Source-routed relay (replies, position updates, virtual-link detours).
  const bool follows_route =
      msg.kind == Kind::kJoinReply || msg.kind == Kind::kNbrSetReply ||
      ((msg.kind == Kind::kPosUpdate || msg.kind == Kind::kHeartbeat) && !msg.route.empty()) ||
      msg.detour;
  if (follows_route) {
    const auto idx = static_cast<std::size_t>(msg.route_idx);
    if (idx + 1 < msg.route.size() && msg.route[idx + 1] == to) ++msg.route_idx;
    const bool at_end =
        msg.route.empty() || msg.route_idx == static_cast<int>(msg.route.size()) - 1;
    if (!at_end) {
      // Interior relay: refresh the virtual-link forwarding entry and pass on.
      const auto cur = static_cast<std::size_t>(msg.route_idx);
      note_relay(to, msg.route.front(), msg.route.back(), msg.route[cur - 1], msg.route[cur + 1]);
      if (msg.detour) msg.visited.push_back(to);
      forward_routed(to, std::move(msg));
      return;
    }
    if (msg.detour) {
      // Detour finished: resume greedy processing at this node.
      msg.detour = false;
      msg.route.clear();
      msg.route_idx = 0;
    }
  }

  switch (msg.kind) {
    case Kind::kJoinRequest:
      on_join_request(to, std::move(msg));
      break;
    case Kind::kJoinReply:
      on_join_reply(to, std::move(msg));
      break;
    case Kind::kNbrSetRequest:
      on_nbr_set_request(to, std::move(msg));
      break;
    case Kind::kNbrSetReply:
      on_nbr_set_reply(to, std::move(msg));
      break;
    case Kind::kPosUpdate:
      on_pos_update(to, std::move(msg));
      break;
    case Kind::kHeartbeat:
      on_heartbeat(to, msg);
      break;
    default:
      break;
  }
}

void MdtOverlay::on_hello(NodeId u, const Envelope& msg) {
  NodeState& s = st(u);
  if (stale_origin(u, msg.origin_info)) return;
  note_direct_contact(u, msg.origin_info);
  const bool known = s.phys.count(msg.origin_info.id) > 0;
  // Learn/update a physical neighbor's advertised position and error. Stored
  // even before this node activates: the VPoD initialization rules need the
  // positions of already-initialized physical neighbors.
  if (!known || at_least_as_fresh(msg.origin_info, s.phys[msg.origin_info.id].incarnation,
                                  s.phys[msg.origin_info.id].pos_version))
    s.phys[msg.origin_info.id] = msg.origin_info;
  // Neighbor-discovery handshake: a joined node answers a Hello from an
  // unknown or not-yet-joined neighbor (a fresh joiner, or a rebooted node
  // whose state was wiped) with its own Hello, so the joiner can bootstrap
  // without waiting for a maintenance round. Only joined nodes reply, so two
  // unjoined nodes can never ping-pong.
  if ((!known || !msg.origin_info.joined) && s.active && s.joined && net_.alive(u)) {
    Envelope reply;
    reply.kind = Kind::kHello;
    reply.origin = u;
    reply.target = msg.origin_info.id;
    reply.origin_info = info_of(u);
    net_.send(u, msg.origin_info.id, std::move(reply));
  }
  auto it = s.cand.find(msg.origin_info.id);
  if (it != s.cand.end()) {
    if (at_least_as_fresh(msg.origin_info, it->second.incarnation, it->second.pos_version)) {
      it->second.pos = msg.origin_info.pos;
      it->second.err = msg.origin_info.err;
      it->second.pos_version = msg.origin_info.pos_version;
    }
    it->second.incarnation = std::max(it->second.incarnation, msg.origin_info.incarnation);
    it->second.last_heard = net_.simulator().now();
  }
  // A neighbor announcing it joined unblocks our own join immediately (the
  // join wave then travels at message speed instead of retry-timer speed).
  if (msg.origin_info.joined && s.active && !s.joined)
    net_.simulator().schedule_in_node(u, 0.05, [this, u] { start_join(u); });
}

void MdtOverlay::on_join_request(NodeId u, Envelope msg) {
  // Greedy search for the joined node closest to the joiner's position.
  if (forward_request(u, msg)) return;
  // Local minimum: if we are joined, we are (locally) the closest node.
  NodeState& s = st(u);
  if (!s.joined) return;  // cannot serve; the joiner retries later
  reply_with_neighbor_set(u, msg, Kind::kJoinReply);
}

void MdtOverlay::on_join_reply(NodeId u, Envelope msg) {
  NodeState& s = st(u);
  if (msg.target != u || !s.active) return;
  if (stale_origin(u, msg.origin_info)) return;
  note_direct_contact(u, msg.origin_info);
  // The replier becomes a synced candidate with known cost and path.
  Candidate& c = s.cand[msg.origin];
  if (at_least_as_fresh(msg.origin_info, c.incarnation, c.pos_version)) {
    c.pos = msg.origin_info.pos;
    c.err = msg.origin_info.err;
    c.pos_version = msg.origin_info.pos_version;
  }
  c.incarnation = std::max(c.incarnation, msg.origin_info.incarnation);
  c.cost = msg.accum_cost;
  c.path.assign(msg.route.rbegin(), msg.route.rend());
  c.via = msg.origin;
  c.last_heard = net_.simulator().now();
  c.synced = true;
  for (const NodeInfo& info : msg.nbr_infos) merge_candidate_info(u, info, msg.origin);
  s.got_join_reply = true;
  schedule_recompute(u);
}

void MdtOverlay::on_nbr_set_request(NodeId u, Envelope msg) {
  if (msg.target != u) {
    (void)forward_request(u, msg);  // dead ends are dropped; origin retries
    return;
  }
  reply_with_neighbor_set(u, msg, Kind::kNbrSetReply);
}

void MdtOverlay::on_nbr_set_reply(NodeId u, Envelope msg) {
  NodeState& s = st(u);
  if (msg.target != u) return;
  if (stale_origin(u, msg.origin_info)) return;
  note_direct_contact(u, msg.origin_info);
  auto pending_it = s.pending.find(msg.origin);
  if (pending_it != s.pending.end()) {
    net_.simulator().cancel(pending_it->second.timer);
    s.pending.erase(pending_it);
  }
  Candidate& c = s.cand[msg.origin];
  if (at_least_as_fresh(msg.origin_info, c.incarnation, c.pos_version)) {
    c.pos = msg.origin_info.pos;
    c.err = msg.origin_info.err;
    c.pos_version = msg.origin_info.pos_version;
  }
  c.incarnation = std::max(c.incarnation, msg.origin_info.incarnation);
  c.cost = msg.accum_cost;
  c.path.assign(msg.route.rbegin(), msg.route.rend());
  c.via = msg.origin;
  c.last_heard = net_.simulator().now();
  c.synced = true;
  for (const NodeInfo& info : msg.nbr_infos) merge_candidate_info(u, info, msg.origin);
  schedule_recompute(u);
}

void MdtOverlay::on_pos_update(NodeId u, Envelope msg) {
  NodeState& s = st(u);
  if (stale_origin(u, msg.origin_info)) return;
  note_direct_contact(u, msg.origin_info);
  const sim::Time now = net_.simulator().now();
  if (msg.route.empty() && net_.links().has_edge(u, msg.origin)) {
    // Direct physical-neighbor update (acts as a keep-alive as well).
    auto pit = s.phys.find(msg.origin);
    if (pit == s.phys.end() ||
        at_least_as_fresh(msg.origin_info, pit->second.incarnation, pit->second.pos_version))
      s.phys[msg.origin] = msg.origin_info;
  }
  auto it = s.cand.find(msg.origin);
  if (it != s.cand.end()) {
    if (at_least_as_fresh(msg.origin_info, it->second.incarnation, it->second.pos_version)) {
      it->second.pos = msg.origin_info.pos;
      it->second.err = msg.origin_info.err;
      it->second.pos_version = msg.origin_info.pos_version;
    }
    it->second.incarnation = std::max(it->second.incarnation, msg.origin_info.incarnation);
    it->second.last_heard = now;  // direct evidence of liveness either way
  }
}

void MdtOverlay::on_heartbeat(NodeId u, const Envelope& msg) {
  NodeState& s = st(u);
  if (stale_origin(u, msg.origin_info)) return;
  note_direct_contact(u, msg.origin_info);
  const sim::Time now = net_.simulator().now();
  auto it = s.cand.find(msg.origin);
  if (it == s.cand.end()) return;  // not (any longer) a neighbor of ours
  it->second.incarnation = std::max(it->second.incarnation, msg.origin_info.incarnation);
  it->second.last_heard = now;
  if (!config_.fd.enabled || s.phys.count(msg.origin)) return;
  auto fd_it = s.fd.find(msg.origin);
  if (fd_it == s.fd.end())
    s.fd.emplace(msg.origin, PhiAccrualDetector(config_.fd, now));
  else
    fd_it->second.heartbeat(now);
}

// --------------------------------------------------------------------------
// Forwarding

std::optional<NodeId> MdtOverlay::greedy_next(NodeId u, const Vec& pos,
                                              const std::vector<NodeId>& visited,
                                              bool joined_only) const {
  const NodeState& s = st(u);
  const double own = s.pos.distance(pos);
  // MDT-greedy: prefer the closest physical neighbor if it makes progress;
  // otherwise the closest multi-hop DT neighbor that makes progress.
  NodeId best_phys = -1;
  double best_phys_d = own;
  for (const auto& [id, info] : s.phys) {
    if (contains(visited, id) || !net_.alive(id) || !net_.link_up(u, id)) continue;
    if (joined_only && !info.joined) continue;
    const double d = info.pos.distance(pos);
    if (d < best_phys_d) {
      best_phys_d = d;
      best_phys = id;
    }
  }
  if (best_phys >= 0) return best_phys;
  NodeId best_dt = -1;
  double best_dt_d = own;
  for (NodeId y : s.dt_nbrs) {
    if (s.phys.count(y) || contains(visited, y)) continue;
    auto it = s.cand.find(y);
    if (it == s.cand.end() || it->second.path.size() < 2) continue;
    const double d = it->second.pos.distance(pos);
    if (d < best_dt_d) {
      best_dt_d = d;
      best_dt = y;
    }
  }
  if (best_dt >= 0) return best_dt;
  return std::nullopt;
}

bool MdtOverlay::forward_request(NodeId u, Envelope msg) {
  NodeState& s = st(u);
  if (msg.ttl <= 0) return false;
  --msg.ttl;

  // Addressed request: deliver directly if the target is a physical neighbor
  // or a known DT neighbor with an established virtual link.
  if (msg.target >= 0) {
    if (s.phys.count(msg.target) && net_.alive(msg.target)) {
      msg.visited.push_back(u);
      const NodeId next = msg.target;  // read before the envelope is moved from
      return send_ctrl(u, next, std::move(msg));
    }
    auto it = s.cand.find(msg.target);
    if (it != s.cand.end() && it->second.path.size() >= 2) {
      msg.detour = true;
      msg.route = it->second.path;
      msg.route_idx = 0;
      msg.visited.push_back(u);
      const NodeId next = msg.route[1];
      return send_ctrl(u, next, std::move(msg));
    }
  }

  const auto next =
      greedy_next(u, msg.target_pos, msg.visited, msg.kind == Kind::kJoinRequest);
  if (!next) return false;
  if (s.phys.count(*next)) {
    msg.visited.push_back(u);
    const NodeId hop = *next;
    return send_ctrl(u, hop, std::move(msg));
  }
  // Multi-hop DT neighbor: detour along the stored virtual-link path.
  const auto it = s.cand.find(*next);
  GDVR_ASSERT(it != s.cand.end() && it->second.path.size() >= 2);
  msg.detour = true;
  msg.route = it->second.path;
  msg.route_idx = 0;
  msg.visited.push_back(u);
  const NodeId hop = msg.route[1];
  return send_ctrl(u, hop, std::move(msg));
}

void MdtOverlay::forward_routed(NodeId u, Envelope msg) {
  const auto idx = static_cast<std::size_t>(msg.route_idx);
  if (idx + 1 >= msg.route.size()) return;
  const NodeId next = msg.route[idx + 1];
  (void)send_ctrl(u, next, std::move(msg));  // failure = dead next hop; soft state recovers
}

bool MdtOverlay::send_ctrl(NodeId from, NodeId to, Envelope msg) {
  // Only the join / neighbor-set exchange opts into ACK + retransmit: it is
  // the traffic whose loss stalls the protocol (a lost kPosUpdate or kHello
  // is refreshed by the next periodic one anyway, and kData keeps the
  // paper's fate-sharing semantics).
  const bool protect = msg.kind == Kind::kJoinRequest || msg.kind == Kind::kJoinReply ||
                       msg.kind == Kind::kNbrSetRequest || msg.kind == Kind::kNbrSetReply;
  if (reliable_ != nullptr && protect) return reliable_->send(from, to, std::move(msg));
  msg.rel_seq = 0;  // a forwarded copy must not reuse the previous hop's sequence
  return net_.send(from, to, std::move(msg));
}

void MdtOverlay::note_relay(NodeId u, NodeId a, NodeId b, NodeId pred, NodeId succ) {
  NodeState& s = st(u);
  RelayEntry& e = s.relay[norm_pair(a, b)];
  e.pred = pred;
  e.succ = succ;
  e.refreshed = net_.simulator().now();
}

// --------------------------------------------------------------------------
// Protocol actions

std::vector<NodeInfo> MdtOverlay::neighbor_infos(NodeId u) const {
  const NodeState& s = st(u);
  std::vector<NodeInfo> infos;
  std::set<NodeId> seen;
  for (const auto& [id, info] : s.phys) {
    infos.push_back(info);
    seen.insert(id);
  }
  for (NodeId y : s.dt_nbrs) {
    if (seen.count(y)) continue;
    auto it = s.cand.find(y);
    if (it == s.cand.end()) continue;
    infos.push_back(NodeInfo{y, it->second.pos, it->second.err, /*joined=*/true,
                             it->second.pos_version, it->second.incarnation});
  }
  return infos;
}

void MdtOverlay::reply_with_neighbor_set(NodeId u, const Envelope& request, Kind kind) {
  NodeState& s = st(u);
  // A request from a past incarnation must neither teach us the dead life's
  // state nor earn a reply (the link layer would refuse to deliver it to the
  // new incarnation anyway).
  if (stale_origin(u, request.origin_info)) return;
  note_direct_contact(u, request.origin_info);
  // Learn the requester: the request's accumulated cost is exactly this
  // node's routing cost back to the requester along the reverse trail.
  Candidate& c = s.cand[request.origin];
  if (at_least_as_fresh(request.origin_info, c.incarnation, c.pos_version)) {
    c.pos = request.origin_info.pos;
    c.err = request.origin_info.err;
    c.pos_version = request.origin_info.pos_version;
  }
  c.incarnation = std::max(c.incarnation, request.origin_info.incarnation);
  c.cost = request.accum_cost;
  c.path.clear();
  c.path.push_back(u);
  for (auto it = request.visited.rbegin(); it != request.visited.rend(); ++it) c.path.push_back(*it);
  c.via = request.origin;
  c.last_heard = net_.simulator().now();
  c.synced = true;
  // Mutual exchange: a neighbor-set request carries the requester's neighbor
  // set (empty for join requests).
  for (const NodeInfo& info : request.nbr_infos) merge_candidate_info(u, info, request.origin);
  schedule_recompute(u);

  Envelope r;
  r.kind = kind;
  r.origin = u;
  r.target = request.origin;
  r.origin_info = info_of(u);
  r.nbr_infos = neighbor_infos(u);
  r.fwd_cost = request.accum_cost;
  r.route = c.path;
  r.route_idx = 0;
  if (r.route.size() >= 2) {
    const NodeId next = r.route[1];  // read before the envelope is moved from
    (void)send_ctrl(u, next, std::move(r));
  }
}

void MdtOverlay::merge_candidate_info(NodeId u, const NodeInfo& info, NodeId via) {
  NodeState& s = st(u);
  if (info.id == u || info.id < 0) return;
  // Tombstone: this node was evicted as dead, and only *direct* contact (or
  // word of a strictly newer incarnation, i.e. it genuinely rebooted since)
  // may bring it back. Second-hand gossip at the evicted incarnation is the
  // resurrection channel the tombstone exists to block.
  auto tomb = s.tombstones.find(info.id);
  if (tomb != s.tombstones.end()) {
    if (info.incarnation <= tomb->second.incarnation) {
      ++fd_at(u).gossip_suppressed;
      return;
    }
    s.tombstones.erase(tomb);
  }
  auto it = s.cand.find(info.id);
  if (it == s.cand.end()) {
    Candidate c;
    c.pos = info.pos;
    c.err = info.err;
    c.pos_version = info.pos_version;
    c.incarnation = info.incarnation;
    c.via = via;
    c.last_heard = net_.simulator().now();
    s.cand.emplace(info.id, std::move(c));
  } else {
    // Refresh position/error only when the gossiped copy is strictly newer
    // than what we hold -- a peer's snapshot of a node we also hear from
    // directly is usually older, and overwriting fresher state with it
    // measurably perturbs the local DT. When the direct channel lost an
    // update, though, newer gossip repairs the staleness. Deliberately do
    // NOT refresh last_heard: gossip is not evidence of liveness, and
    // letting it count would keep dead nodes alive epidemically after churn.
    if (strictly_fresher(info, it->second.incarnation, it->second.pos_version)) {
      it->second.pos = info.pos;
      it->second.err = info.err;
      it->second.pos_version = info.pos_version;
      it->second.incarnation = info.incarnation;
    }
    if (!it->second.synced && via >= 0) it->second.via = via;
  }
}

void MdtOverlay::mark_joined(NodeId u) {
  NodeState& s = st(u);
  if (s.joined) return;
  s.joined = true;
  send_hello(u);  // announce: neighbors waiting to join can proceed
}

void MdtOverlay::send_nbr_request(NodeId u, NodeId y) {
  // External entry point: an exchange already in flight is not restarted
  // (that would reset its retry budget -- see resend_nbr_request).
  if (st(u).pending.count(y)) return;
  resend_nbr_request(u, y);
}

void MdtOverlay::resend_nbr_request(NodeId u, NodeId y) {
  NodeState& s = st(u);
  if (!s.active || !net_.alive(u)) return;
  auto cand_it = s.cand.find(y);
  if (cand_it == s.cand.end()) return;

  const auto make_nbr_request = [this](NodeId from, NodeId to, const Vec& to_pos) {
    Envelope e;
    e.kind = Kind::kNbrSetRequest;
    e.origin = from;
    e.target = to;
    e.target_pos = to_pos;
    e.origin_info = info_of(from);
    // The exchange is mutual: the request carries the origin's neighbor set
    // so the replier learns from it too. With one-directional gossip (only
    // the requester learns, and the smaller id always initiates), neighbor
    // knowledge only ever flows from larger ids to smaller ones -- a node
    // pair whose informed common neighbors all have smaller ids than both
    // endpoints would stay mutually unaware forever after churn.
    e.nbr_infos = neighbor_infos(from);
    e.ttl = config_.greedy_ttl;
    return e;
  };

  // Route selection, in order of preference:
  //  1. direct physical delivery;
  //  2. greedy toward y's position -- crucially this lets virtual-link paths
  //     *shrink* as VPoD converges (a stored path found during early
  //     construction may be far longer than what greedy now finds, and the
  //     reply re-installs whatever route the request actually took);
  //  3. the stored virtual-link path;
  //  4. detour through the neighbor that told us about y (it knows y
  //     directly) -- how the join phase reaches neighbors-of-neighbors while
  //     greedy forwarding is still unreliable.
  bool sent = false;
  if (s.phys.count(y) && net_.alive(y)) {
    Envelope g = make_nbr_request(u, y, cand_it->second.pos);
    g.visited = {u};
    sent = send_ctrl(u, y, std::move(g));
  }
  if (!sent && config_.refresh_paths_greedily) {
    const auto next = greedy_next(u, cand_it->second.pos, {u}, /*joined_only=*/false);
    if (next && s.phys.count(*next)) {
      Envelope g = make_nbr_request(u, y, cand_it->second.pos);
      g.visited = {u};
      const NodeId hop = *next;
      sent = send_ctrl(u, hop, std::move(g));
    }
  }
  if (!sent && cand_it->second.path.size() >= 2) {
    Envelope g = make_nbr_request(u, y, cand_it->second.pos);
    g.detour = true;
    g.route = cand_it->second.path;
    g.route_idx = 0;
    g.visited = {u};
    const NodeId hop = g.route[1];
    sent = send_ctrl(u, hop, std::move(g));
  }
  const NodeId via = cand_it->second.via;
  if (!sent && via >= 0 && via != y && via != u) {
    if (s.phys.count(via) && net_.alive(via)) {
      Envelope g = make_nbr_request(u, y, cand_it->second.pos);
      g.visited = {u};
      sent = send_ctrl(u, via, std::move(g));
    } else {
      auto vit = s.cand.find(via);
      if (vit != s.cand.end() && vit->second.path.size() >= 2) {
        Envelope g = make_nbr_request(u, y, cand_it->second.pos);
        g.detour = true;
        g.route = vit->second.path;
        g.route_idx = 0;
        g.visited = {u};
        const NodeId hop = g.route[1];
        sent = send_ctrl(u, hop, std::move(g));
      }
    }
  }
  if (!sent) {
    // Last resort: full greedy machinery (may use DT detours).
    Envelope g = make_nbr_request(u, y, cand_it->second.pos);
    sent = forward_request(u, std::move(g));
  }

  ++sync_at(u).requests;
  PendingSync& p = s.pending[y];
  ++p.attempts;
  const int attempts = p.attempts;
  p.timer = net_.simulator().schedule_in_node(
      u, config_.sync_timeout_s + rng_at(u).uniform(0.0, 0.3), [this, u, y, attempts] {
        NodeState& su = st(u);
        auto it = su.pending.find(y);
        if (it == su.pending.end() || it->second.attempts != attempts) return;
        if (!su.active || !net_.alive(u)) {
          su.pending.erase(it);
          return;
        }
        auto cy = su.cand.find(y);
        if (cy == su.cand.end()) {
          su.pending.erase(it);
          return;
        }
        if (attempts < config_.max_sync_retries) {
          // Retry through the SAME pending entry so the attempt count
          // accumulates; erasing it here would reset the retry budget and
          // make the give-up below unreachable.
          resend_nbr_request(u, y);
          return;
        }
        // Give up this round; the next maintenance round starts a fresh
        // exchange with a full budget. The candidate itself is NOT dropped
        // here -- during early construction greedy dead-ends make honest
        // neighbors slow to sync, and a genuinely dead one is reaped by the
        // neighbor_stale_s soft-state timer anyway.
        su.pending.erase(it);
        ++sync_at(u).failures;
      });
  (void)sent;  // even a failed send arms the retry timer above
}

void MdtOverlay::sync_missing_neighbors(NodeId u) {
  NodeState& s = st(u);
  for (NodeId y : s.dt_nbrs) {
    auto it = s.cand.find(y);
    if (it == s.cand.end()) continue;
    if (!it->second.synced && !s.pending.count(y)) send_nbr_request(u, y);
  }
  // Join completes once the node has been served by a DT member and has
  // recomputed its neighbor set (further syncs refine it), or when every DT
  // neighbor is already synced.
  if (!s.joined) {
    bool all = !s.dt_nbrs.empty();
    for (NodeId y : s.dt_nbrs) {
      auto it = s.cand.find(y);
      if (it == s.cand.end() || !it->second.synced) all = false;
    }
    if (all || (s.got_join_reply && !s.dt_nbrs.empty())) mark_joined(u);
  }
}

void MdtOverlay::schedule_recompute(NodeId u) {
  NodeState& s = st(u);
  if (s.recompute_scheduled) return;
  s.recompute_scheduled = true;
  net_.simulator().schedule_in_node(u, config_.recompute_delay_s, [this, u] { recompute(u); });
}

void MdtOverlay::recompute(NodeId u) {
  GDVR_PROFILE_SCOPE("mdt.recompute");
  NodeState& s = st(u);
  s.recompute_scheduled = false;
  if (!s.active || !net_.alive(u)) return;
  refresh_phys(u);
  ++rec_at(u).calls;

  // Local DT of {u} + P_u + C_u; N_u = u's neighbors in it, recomputed from
  // u's Delaunay star only when the key-sorted input differs from the last.
  std::vector<std::pair<geom::LocalDelaunay::Key, Vec>> in;
  in.reserve(1 + s.phys.size() + s.cand.size());
  in.emplace_back(u, s.pos);
  for (const auto& [id, info] : s.phys) in.emplace_back(id, info.pos);
  for (const auto& [id, c] : s.cand)
    if (!s.phys.count(id)) in.emplace_back(id, c.pos);
  std::sort(in.begin(), in.end(), [](const auto& a, const auto& b) { return a.first < b.first; });
  if (s.local_dt.update(u, in)) ++rec_at(u).rebuilds;
  s.dt_nbrs.assign(s.local_dt.neighbors().begin(), s.local_dt.neighbors().end());

  // Candidate pruning (soft state): keep DT neighbors, physical neighbors,
  // nodes with an exchange in flight, and freshly learned nodes that have
  // not yet been through a recompute.
  const sim::Time now = net_.simulator().now();
  for (auto it = s.cand.begin(); it != s.cand.end();) {
    const NodeId id = it->first;
    const bool keep = contains(s.dt_nbrs, id) || s.phys.count(id) || s.pending.count(id) ||
                      now - it->second.last_heard <= config_.candidate_fresh_s;
    if (keep) {
      ++it;
    } else {
      s.fd.erase(id);
      it = s.cand.erase(it);
    }
  }

  // Ensure every DT neighbor has a candidate record (physical neighbors may
  // not have one yet: give them their trivial one-hop path and link cost).
  for (NodeId y : s.dt_nbrs) {
    if (!s.cand.count(y) && s.phys.count(y)) {
      Candidate c;
      c.pos = s.phys[y].pos;
      c.err = s.phys[y].err;
      c.pos_version = s.phys[y].pos_version;
      c.incarnation = s.phys[y].incarnation;
      c.cost = net_.link_cost(u, y);
      c.path = {u, y};
      c.last_heard = now;
      c.synced = true;  // link-layer exchange suffices for physical neighbors
      s.cand.emplace(y, std::move(c));
    }
  }

  sync_missing_neighbors(u);
}

void MdtOverlay::refresh_phys(NodeId u) {
  NodeState& s = st(u);
  for (auto it = s.phys.begin(); it != s.phys.end();) {
    // Downed (flapping / partitioned) links count as absent: the neighbor is
    // unreachable at the link layer until the fault clears, at which point
    // its periodic Hello re-announces it.
    if (!net_.alive(it->first) || !net_.link_usable(u, it->first))
      it = s.phys.erase(it);
    else
      ++it;
  }
}

void MdtOverlay::send_hello(NodeId u) {
  if (!net_.alive(u)) return;
  net_.for_each_alive_neighbor(u, [&](const graph::Edge& e) {
    Envelope m;
    m.kind = Kind::kHello;
    m.origin = u;
    m.target = e.to;
    m.origin_info = info_of(u);
    net_.send(u, e.to, std::move(m));
  });
}

// --------------------------------------------------------------------------
// Queries

std::vector<NeighborView> MdtOverlay::neighbor_views(NodeId u) const {
  const NodeState& s = st(u);
  std::vector<NeighborView> views;
  for (const auto& [id, info] : s.phys) {
    NeighborView v;
    v.id = id;
    v.pos = info.pos;
    v.err = info.err;
    v.cost = net_.link_cost(u, id);
    v.is_phys = true;
    v.is_dt = contains(s.dt_nbrs, id);
    views.push_back(v);
  }
  for (NodeId y : s.dt_nbrs) {
    if (s.phys.count(y)) continue;
    auto it = s.cand.find(y);
    if (it == s.cand.end() || !std::isfinite(it->second.cost)) continue;
    NeighborView v;
    v.id = y;
    v.pos = it->second.pos;
    v.err = it->second.err;
    v.cost = it->second.cost;
    v.is_phys = false;
    v.is_dt = true;
    views.push_back(v);
  }
  return views;
}

const std::vector<NodeId>& MdtOverlay::virtual_path(NodeId u, NodeId v) const {
  const NodeState& s = st(u);
  auto it = s.cand.find(v);
  if (it == s.cand.end()) return empty_path_;
  return it->second.path;
}

std::vector<NodeId> MdtOverlay::dt_neighbors(NodeId u) const { return st(u).dt_nbrs; }

std::vector<NodeId> MdtOverlay::candidate_ids(NodeId u) const {
  std::vector<NodeId> ids;
  ids.reserve(st(u).cand.size());
  for (const auto& [id, c] : st(u).cand) ids.push_back(id);
  return ids;
}

int MdtOverlay::distinct_nodes_stored(NodeId u) const {
  const NodeState& s = st(u);
  std::set<NodeId> known;
  for (const auto& [id, info] : s.phys) {
    (void)info;
    known.insert(id);
  }
  for (NodeId y : s.dt_nbrs) known.insert(y);
  for (const auto& [pair, entry] : s.relay) {
    known.insert(pair.first);
    known.insert(pair.second);
    known.insert(entry.pred);
    known.insert(entry.succ);
  }
  known.erase(u);
  known.erase(-1);
  return static_cast<int>(known.size());
}

}  // namespace gdvr::mdt
