#include "mdt/overlay.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/log.hpp"
#include "geom/delaunay.hpp"
#include "obs/profile.hpp"

namespace gdvr::mdt {

namespace {

// Protocol timers and budgets.
constexpr double kSyncTimeoutS = 1.5;     // Neighbor-Set Request retry timeout
constexpr int kMaxSyncRetries = 4;        // attempts per maintenance round
// Non-neighbor candidates survive one recompute cycle: freshly learned nodes
// must be considered once, but keeping them longer balloons the local-DT
// input during early construction.
constexpr double kCandidateFreshS = 2.0;
constexpr double kRelayTtlS = 60.0;       // soft-state expiry for relay entries
constexpr double kRecomputeDelayS = 0.7;  // coalescing delay for local DT recomputes
// When a maintenance round observes that N_u changed since the previous
// round (churn, partition healing, large position shifts), one follow-up
// neighbor-set sync fires after this delay, still inside the same J period.
// Self-limiting: a stable DT never pays for it, while post-fault repair runs
// at twice the per-period rate.
constexpr double kResyncAfterChangeS = 2.5;
constexpr int kGreedyTtl = 96;            // hop budget for greedy-forwarded requests

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

// The freshness rule for a stored copy of a node's advertised state: copies
// are ordered by (incarnation, pos_version). An equal pair names the same
// position (set_position mints a version only for a new value), but not
// always the same error, which changes without one. So a message straight
// from the node wins a tie -- it carries the current error -- while gossip,
// a third party's snapshot that may be older, must be strictly fresher.
bool fresher(const NodeInfo& heard, std::uint32_t incarnation, std::uint64_t pos_version,
             bool first_hand) {
  const auto h = std::make_pair(heard.incarnation, heard.pos_version);
  const auto held = std::make_pair(incarnation, pos_version);
  return first_hand ? h >= held : h > held;
}

// Local-DT input scratch, one per thread like the star scratch under it:
// the sharded engine recomputes different nodes concurrently, and nothing
// here outlives one recompute.
std::vector<std::pair<geom::LocalDelaunay::Key, Vec>>& dt_input_scratch() {
  thread_local std::vector<std::pair<geom::LocalDelaunay::Key, Vec>> in;
  return in;
}

// New C_u records gathered by one id-ordered walk for FlatMap::insert_sorted;
// per thread for the same reason, and empty between walks.
template <typename Record>
std::vector<std::pair<NodeId, Record>>& record_batch_scratch() {
  thread_local std::vector<std::pair<NodeId, Record>> batch;
  return batch;
}

NodeId key_of(NodeId id) { return id; }
template <typename T>
NodeId key_of(const std::pair<NodeId, T>& entry) {
  return entry.first;
}

// Advances `it`, a cursor into an id-sorted range, to the first entry not
// below `id` and says whether that entry is `id`. Fed ascending ids, a cursor
// walks its range once: every merge walk below uses it in place of a binary
// search per id.
template <typename It>
bool seek(It& it, It end, NodeId id) {
  while (it != end && key_of(*it) < id) ++it;
  return it != end && key_of(*it) == id;
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
  net_.set_receiver(
      [this](NodeId to, NodeId from, Envelope&& msg) { handle(to, from, std::move(msg)); });
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
    m.ttl = kGreedyTtl;
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
  send_to_neighbors(u, Kind::kPosUpdate, /*include_phys=*/true);
}

void MdtOverlay::run_maintenance_round(NodeId u) {
  NodeState& s = st(u);
  if (!s.active || !net_.alive(u)) return;
  refresh_phys(u);
  send_hello(u);
  // Expire relay soft state.
  const sim::Time now = net_.simulator().now();
  erase_if(s.relay, [&](const auto& e) { return now - e.second.refreshed > kRelayTtlS; });
  // Soft-state staleness: a non-physical candidate that has sent us nothing
  // (position update, request, reply) for neighbor_stale_s is presumed dead.
  // With the adaptive failure detector on, entries with a fitted detector are
  // governed by phi instead (fd_tick evicts them within a few heartbeat
  // periods of death); the fixed timeout remains the bootstrap fallback for
  // entries that never delivered a heartbeat.
  erase_if(s.cand, [&](const auto& e) {
    const NodeId id = e.first;
    const bool fd_governed = config_.fd.enabled && s.fd.count(id) > 0;
    const bool stale = !fd_governed && !s.phys.count(id) &&
                       now - e.second.last_heard > config_.neighbor_stale_s;
    if (stale) {
      s.pending.erase(id);
      s.fd.erase(id);
    }
    return stale;
  });
  // Bounded tombstone GC.
  erase_if(s.tombstones,
           [&](const auto& e) { return now - e.second.created > config_.fd.tombstone_ttl_s; });
  restart_pair_syncs(u);

  // Instability detection: a changed N_u means the triangulation around u is
  // still in flux (churn, healed partition, position shifts), and one sync
  // per J period chases it too slowly. Schedule a single follow-up sync
  // within this round; a stable neighborhood never takes this path.
  const bool changed = s.dt_nbrs() != s.prev_round_dt;
  s.prev_round_dt = s.dt_nbrs();
  if (changed && !s.resync_scheduled) {
    s.resync_scheduled = true;
    const std::uint32_t inc = net_.incarnation(u);
    net_.simulator().schedule_in_node(u, kResyncAfterChangeS, [this, u, inc] {
      // The state this timer belongs to is gone if u died (and possibly
      // rejoined as a new incarnation) in the meantime.
      if (!net_.alive(u) || net_.incarnation(u) != inc) return;
      NodeState& s2 = st(u);
      s2.resync_scheduled = false;
      if (s2.active) restart_pair_syncs(u);
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
  unsync_dt_neighbors(u, -1);
  schedule_recompute(u);
}

// --------------------------------------------------------------------------
// Adaptive failure detection

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
  // Only multi-hop DT neighbors need explicit probes: physical neighbors are
  // covered by link-layer liveness (refresh_phys), and everything else is
  // transient soft state with its own freshness rules.
  fd_at(u).heartbeats_sent += send_to_neighbors(u, Kind::kHeartbeat, /*include_phys=*/false);
  const sim::Time now = net_.simulator().now();
  // Evict every multi-hop neighbor whose detector has crossed the threshold.
  std::vector<NodeId> dead;
  for (const auto& [y, det] : s.fd)
    if (!s.phys.count(y) && det.suspect(now)) dead.push_back(y);
  for (NodeId y : dead) evict_neighbor(u, y);
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
// What u learns from a message

bool MdtOverlay::accept_direct(NodeId u, const NodeInfo& info) {
  NodeState& s = st(u);
  std::uint32_t recorded = 0;
  auto it = s.cand.find(info.id);
  if (it != s.cand.end()) recorded = it->second.incarnation;
  auto pit = s.phys.find(info.id);
  if (pit != s.phys.end()) recorded = std::max(recorded, pit->second.incarnation);
  if (info.incarnation < recorded) {
    ++fd_at(u).stale_incarnation_dropped;
    return false;
  }
  auto tomb = s.tombstones.find(info.id);
  // A tombstone for the node's current (or an older) incarnation is refuted
  // and cleared, so a falsely evicted neighbor heals within one heartbeat
  // period.
  if (tomb != s.tombstones.end() && info.incarnation >= tomb->second.incarnation)
    s.tombstones.erase(tomb);
  return true;
}

void MdtOverlay::Candidate::hear(const NodeInfo& info, bool first_hand) {
  if (fresher(info, incarnation, pos_version, first_hand)) {
    pos = info.pos;
    err = info.err;
    pos_version = info.pos_version;
  }
  incarnation = std::max(incarnation, info.incarnation);
}

void MdtOverlay::hear_phys(NodeId u, const NodeInfo& info) {
  NodeInfo& p = st(u).phys[info.id];  // a new entry reads (0, 0), which any copy beats
  if (fresher(info, p.incarnation, p.pos_version, /*first_hand=*/true)) p = info;
}

void MdtOverlay::touch_candidate(NodeId u, const NodeInfo& info) {
  NodeState& s = st(u);
  const auto it = s.cand.find(info.id);
  if (it == s.cand.end()) return;
  it->second.hear(info, /*first_hand=*/true);
  it->second.last_heard = net_.simulator().now();  // direct evidence of liveness
}

MdtOverlay::Candidate& MdtOverlay::learn_synced(NodeId u, const NodeInfo& info, double cost) {
  Candidate& c = st(u).cand[info.id];
  c.hear(info, /*first_hand=*/true);
  c.cost = cost;
  c.via = info.id;
  c.last_heard = net_.simulator().now();
  c.synced = true;
  return c;
}

// --------------------------------------------------------------------------
// Receiving

void MdtOverlay::handle(NodeId to, NodeId from, Envelope&& msg) {
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
    if (!msg.arrive(to)) {
      // Interior relay: refresh the virtual-link forwarding entry and pass on.
      const auto cur = static_cast<std::size_t>(msg.route_idx);
      note_relay(to, msg.route.front(), msg.route.back(), msg.route[cur - 1], msg.route[cur + 1]);
      if (msg.detour) msg.visited.push_back(to);
      const NodeId next = msg.route[cur + 1];
      (void)send_ctrl(to, next, std::move(msg));  // failure = dead next hop; soft state recovers
      return;
    }
    if (msg.detour) msg.end_detour();
  }

  switch (msg.kind) {
    case Kind::kJoinRequest:
      on_join_request(to, std::move(msg));
      break;
    case Kind::kNbrSetRequest:
      on_nbr_set_request(to, std::move(msg));
      break;
    case Kind::kJoinReply:
    case Kind::kNbrSetReply:
      on_reply(to, msg);
      break;
    case Kind::kPosUpdate:
      on_pos_update(to, msg);
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
  if (!accept_direct(u, msg.origin_info)) return;
  const bool known = s.phys.count(msg.origin_info.id) > 0;
  // Learn/update a physical neighbor's advertised position and error. Stored
  // even before this node activates: the VPoD initialization rules need the
  // positions of already-initialized physical neighbors.
  hear_phys(u, msg.origin_info);
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
  touch_candidate(u, msg.origin_info);
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

void MdtOverlay::on_nbr_set_request(NodeId u, Envelope msg) {
  if (msg.target != u) {
    (void)forward_request(u, std::move(msg));  // dead ends are dropped; origin retries
    return;
  }
  reply_with_neighbor_set(u, msg, Kind::kNbrSetReply);
}

void MdtOverlay::on_reply(NodeId u, const Envelope& msg) {
  NodeState& s = st(u);
  if (msg.target != u || !accept_direct(u, msg.origin_info)) return;
  if (msg.kind == Kind::kJoinReply) {
    s.got_join_reply = true;
  } else if (auto pending = s.pending.find(msg.origin); pending != s.pending.end()) {
    net_.simulator().cancel(pending->second.timer);
    s.pending.erase(pending);
  }
  // The replier becomes a synced candidate with known cost and path.
  Candidate& replier = learn_synced(u, msg.origin_info, msg.accum_cost);
  replier.path.assign(msg.route.rbegin(), msg.route.rend());
  merge_neighbor_set(u, msg.nbr_infos, msg.origin);
  schedule_recompute(u);
}

void MdtOverlay::on_pos_update(NodeId u, const Envelope& msg) {
  if (!accept_direct(u, msg.origin_info)) return;
  // A direct physical-neighbor update acts as a keep-alive as well.
  if (msg.route.empty() && net_.links().has_edge(u, msg.origin)) hear_phys(u, msg.origin_info);
  touch_candidate(u, msg.origin_info);
}

void MdtOverlay::on_heartbeat(NodeId u, const Envelope& msg) {
  NodeState& s = st(u);
  if (!accept_direct(u, msg.origin_info)) return;
  const sim::Time now = net_.simulator().now();
  auto it = s.cand.find(msg.origin);
  if (it == s.cand.end()) return;  // not (any longer) a neighbor of ours
  // A heartbeat is liveness, not position news: the position stays as is.
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

std::optional<NeighborView> MdtOverlay::greedy_next(NodeId u, const Vec& pos,
                                                    const std::vector<NodeId>& visited,
                                                    bool joined_only) const {
  // MDT-greedy: prefer the closest physical neighbor if it makes progress;
  // otherwise the closest multi-hop DT neighbor that makes progress.
  const double own = st(u).pos.distance(pos);
  std::optional<NeighborView> phys, multihop;
  double phys_d = own, multihop_d = own;
  for_each_neighbor(u, [&](const NeighborView& v) {
    // P_u comes first, so a physical choice is final once N_u \ P_u starts.
    if ((!v.is_phys && phys) || contains(visited, v.id)) return;
    if (v.is_phys && (!net_.alive(v.id) || !net_.link_up(u, v.id) || (joined_only && !v.joined)))
      return;
    const double d = v.pos.distance(pos);
    double& best_d = v.is_phys ? phys_d : multihop_d;
    if (d < best_d) {
      best_d = d;
      (v.is_phys ? phys : multihop).emplace(v);
    }
  });
  return phys ? phys : multihop;
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
      return send_ctrl(u, msg.target, std::move(msg));
    }
    auto it = s.cand.find(msg.target);
    if (it != s.cand.end() && it->second.path.size() >= 2) {
      msg.detour = true;
      msg.visited.push_back(u);
      return send_routed(u, std::move(msg), it->second.path);
    }
  }

  const auto next =
      greedy_next(u, msg.target_pos, msg.visited, msg.kind == Kind::kJoinRequest);
  if (!next) return false;
  msg.visited.push_back(u);
  if (next->is_phys) return send_ctrl(u, next->id, std::move(msg));
  // Multi-hop DT neighbor: detour along the stored virtual-link path.
  msg.detour = true;
  return send_routed(u, std::move(msg), next->path);
}

bool MdtOverlay::send_ctrl(NodeId from, NodeId to, Envelope&& msg) {
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

bool MdtOverlay::send_routed(NodeId u, Envelope&& msg, std::vector<NodeId> path) {
  const NodeId next = path[1];
  msg.route = std::move(path);
  msg.route_idx = 0;
  return send_ctrl(u, next, std::move(msg));
}

int MdtOverlay::send_to_neighbors(NodeId u, Kind kind, bool include_phys) {
  int sent = 0;
  for_each_neighbor(u, [&](const NeighborView& v) {
    if (v.is_phys && !include_phys) return;
    Envelope m;
    m.kind = kind;
    m.origin = u;
    m.target = v.id;
    m.origin_info = info_of(u);
    if (v.is_phys ? send_ctrl(u, v.id, std::move(m)) : send_routed(u, std::move(m), v.path))
      ++sent;
  });
  return sent;
}

void MdtOverlay::note_relay(NodeId u, NodeId a, NodeId b, NodeId pred, NodeId succ) {
  GDVR_PROFILE_SCOPE("mdt.note_relay");
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
  infos.reserve(s.phys.size() + s.dt_nbrs().size());
  // P_u, N_u and C_u are all id-sorted: one merge walk emits P_u and, between
  // its members, each DT neighbor outside it that has a C_u record.
  auto phys = s.phys.begin();
  auto c = s.cand.begin();
  for (NodeId y : s.dt_nbrs()) {
    for (; phys != s.phys.end() && phys->first < y; ++phys) infos.push_back(phys->second);
    if (phys != s.phys.end() && phys->first == y) continue;
    if (!seek(c, s.cand.end(), y)) continue;
    infos.push_back(NodeInfo{y, c->second.pos, c->second.err, /*joined=*/true,
                             c->second.pos_version, c->second.incarnation});
  }
  for (; phys != s.phys.end(); ++phys) infos.push_back(phys->second);
  return infos;
}

void MdtOverlay::reply_with_neighbor_set(NodeId u, const Envelope& request, Kind kind) {
  // A request from a past incarnation must neither teach us the dead life's
  // state nor earn a reply (the link layer would refuse to deliver it to the
  // new incarnation anyway).
  if (!accept_direct(u, request.origin_info)) return;
  // Learn the requester: the request's accumulated cost is exactly this
  // node's routing cost back to the requester along the reverse trail.
  std::vector<NodeId>& path = learn_synced(u, request.origin_info, request.accum_cost).path;
  path.assign(1, u);
  path.insert(path.end(), request.visited.rbegin(), request.visited.rend());
  // The reply route is copied now: merging below may insert into C_u, which
  // invalidates `path`.
  std::vector<NodeId> route = path;
  // Mutual exchange: a neighbor-set request carries the requester's neighbor
  // set (empty for join requests).
  merge_neighbor_set(u, request.nbr_infos, request.origin);
  schedule_recompute(u);

  if (route.size() < 2) return;
  Envelope r;
  r.kind = kind;
  r.origin = u;
  r.target = request.origin;
  r.origin_info = info_of(u);
  r.nbr_infos = neighbor_infos(u);
  (void)send_routed(u, std::move(r), std::move(route));
}

void MdtOverlay::merge_neighbor_set(NodeId u, const std::vector<NodeInfo>& infos, NodeId via) {
  GDVR_PROFILE_SCOPE("mdt.merge_neighbor_set");
  NodeState& s = st(u);
  const sim::Time now = net_.simulator().now();
  // The payload, C_u and the tombstones are all id-sorted, so one cursor per
  // table walks each once. The payload's ids are distinct and each touches
  // only its own records, so the fold does not depend on their order.
  auto& added = record_batch_scratch<Candidate>();
  auto c = s.cand.begin();
  auto tomb = s.tombstones.begin();
  for (auto info = infos.begin(); info != infos.end(); ++info) {
    GDVR_ASSERT_MSG(info == infos.begin() || std::prev(info)->id < info->id,
                    "neighbor-set payload not strictly id-ascending");
    if (info->id == u || info->id < 0) continue;
    // Tombstone: this node was evicted as dead, and only *direct* contact
    // (or word of a strictly newer incarnation, i.e. it genuinely rebooted
    // since) may bring it back. Second-hand gossip at the evicted
    // incarnation is the resurrection channel the tombstone exists to block.
    if (seek(tomb, s.tombstones.end(), info->id)) {
      if (info->incarnation <= tomb->second.incarnation) {
        ++fd_at(u).gossip_suppressed;
        continue;
      }
      tomb = s.tombstones.erase(tomb);
    }
    if (seek(c, s.cand.end(), info->id)) {
      // Gossip refreshes a record only when strictly fresher -- a peer's
      // snapshot of a node we also hear from directly is usually older, and
      // overwriting fresher state with it measurably perturbs the local DT.
      // When the direct channel lost an update, though, newer gossip repairs
      // the staleness.
      c->second.hear(*info, /*first_hand=*/false);
      if (!c->second.synced) c->second.via = via;
      continue;
    }
    // A new record has nothing to keep and takes the copy whole. Only it
    // starts its clock: gossip is not evidence of liveness, and letting it
    // count would keep dead nodes alive epidemically after churn.
    Candidate& fresh = added.emplace_back(info->id, Candidate{}).second;
    fresh.hear(*info, /*first_hand=*/true);
    fresh.via = via;
    fresh.last_heard = now;
  }
  s.cand.insert_sorted(added);
  added.clear();
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

  const auto make_nbr_request = [&] {
    Envelope e;
    e.kind = Kind::kNbrSetRequest;
    e.origin = u;
    e.target = y;
    e.target_pos = cand_it->second.pos;
    e.origin_info = info_of(u);
    // The exchange is mutual: the request carries the origin's neighbor set
    // so the replier learns from it too. With one-directional gossip (only
    // the requester learns, and the smaller id always initiates), neighbor
    // knowledge only ever flows from larger ids to smaller ones -- a node
    // pair whose informed common neighbors all have smaller ids than both
    // endpoints would stay mutually unaware forever after churn.
    e.nbr_infos = neighbor_infos(u);
    e.ttl = kGreedyTtl;
    return e;
  };
  // The request's trail starts at u, whether its first leg is one physical
  // hop or a detour along a stored virtual-link path.
  const auto direct = [&](NodeId hop) {
    Envelope e = make_nbr_request();
    e.visited = {u};
    return send_ctrl(u, hop, std::move(e));
  };
  const auto detour = [&](const std::vector<NodeId>& path) {
    Envelope e = make_nbr_request();
    e.visited = {u};
    e.detour = true;
    return send_routed(u, std::move(e), path);
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
  bool sent = s.phys.count(y) && net_.alive(y) && direct(y);
  if (!sent && config_.refresh_paths_greedily) {
    const auto next = greedy_next(u, cand_it->second.pos, {u}, /*joined_only=*/false);
    sent = next && next->is_phys && direct(next->id);
  }
  if (!sent && cand_it->second.path.size() >= 2) sent = detour(cand_it->second.path);
  const NodeId via = cand_it->second.via;
  if (!sent && via >= 0 && via != y && via != u) {
    if (s.phys.count(via) && net_.alive(via)) {
      sent = direct(via);
    } else if (const auto vit = s.cand.find(via);
               vit != s.cand.end() && vit->second.path.size() >= 2) {
      sent = detour(vit->second.path);
    }
  }
  // Last resort: full greedy machinery (may use DT detours).
  if (!sent) (void)forward_request(u, make_nbr_request());

  // Even a failed send arms the retry timer.
  ++sync_at(u).requests;
  PendingSync& p = s.pending[y];
  ++p.attempts;
  const int attempts = p.attempts;
  p.timer = net_.simulator().schedule_in_node(
      u, kSyncTimeoutS + rng_at(u).uniform(0.0, 0.3), [this, u, y, attempts] {
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
        if (attempts < kMaxSyncRetries) {
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
}

void MdtOverlay::restart_pair_syncs(NodeId u) {
  // Per paper, every DT-neighbor pair exchanges a Neighbor-Set Request and
  // Reply each round; the smaller id initiates to keep it to two messages,
  // so the larger id answers the smaller one's request.
  unsync_dt_neighbors(u, u);
  schedule_recompute(u);
}

void MdtOverlay::unsync_dt_neighbors(NodeId u, NodeId floor) {
  NodeState& s = st(u);
  const std::vector<NodeId>& dt_nbrs = s.dt_nbrs();
  auto c = s.cand.begin();
  for (auto y = std::upper_bound(dt_nbrs.begin(), dt_nbrs.end(), floor); y != dt_nbrs.end(); ++y)
    if (seek(c, s.cand.end(), *y)) c->second.synced = false;
}

void MdtOverlay::sync_missing_neighbors(NodeId u) {
  NodeState& s = st(u);
  // One cursor walk over C_u finds each DT neighbor's record. A request only
  // adds to `pending` (send_nbr_request skips an exchange already in
  // flight), never to C_u, so the cursor stays valid across the sends.
  bool all_synced = !s.dt_nbrs().empty();
  auto c = s.cand.begin();
  for (NodeId y : s.dt_nbrs()) {
    if (!seek(c, s.cand.end(), y)) {
      all_synced = false;
    } else if (!c->second.synced) {
      all_synced = false;
      send_nbr_request(u, y);
    }
  }
  // Join completes once the node has been served by a DT member and has
  // recomputed its neighbor set (further syncs refine it), or when every DT
  // neighbor is already synced.
  if (!s.joined && (all_synced || (s.got_join_reply && !s.dt_nbrs().empty()))) mark_joined(u);
}

void MdtOverlay::schedule_recompute(NodeId u) {
  NodeState& s = st(u);
  if (s.recompute_scheduled) return;
  s.recompute_scheduled = true;
  net_.simulator().schedule_in_node(u, kRecomputeDelayS, [this, u] { recompute(u); });
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
  // P_u and C_u are id-sorted, so one merge walk yields P_u ∪ C_u in key
  // order (a node in both contributes its P_u position); u goes in at its
  // place.
  auto& in = dt_input_scratch();
  in.clear();
  auto c = s.cand.begin();
  for (const auto& [id, info] : s.phys) {
    for (; c != s.cand.end() && c->first < id; ++c) in.emplace_back(c->first, c->second.pos);
    if (c != s.cand.end() && c->first == id) ++c;
    in.emplace_back(id, info.pos);
  }
  for (; c != s.cand.end(); ++c) in.emplace_back(c->first, c->second.pos);
  in.emplace(std::lower_bound(in.begin(), in.end(), u,
                              [](const auto& e, NodeId k) { return e.first < k; }),
             u, s.pos);
  if (s.local_dt.update(u, in)) ++rec_at(u).rebuilds;
  const std::vector<NodeId>& dt_nbrs = s.dt_nbrs();

  // Candidate pruning (soft state): keep DT neighbors, physical neighbors,
  // nodes with an exchange in flight, and freshly learned nodes that have
  // not yet been through a recompute. erase_if visits C_u in id order, so
  // one cursor per id-sorted table replaces a lookup per record.
  const sim::Time now = net_.simulator().now();
  auto dt = dt_nbrs.begin();
  auto phys = s.phys.begin();
  auto pending = s.pending.begin();
  erase_if(s.cand, [&](const auto& e) {
    const NodeId id = e.first;
    const bool keep = seek(dt, dt_nbrs.end(), id) || seek(phys, s.phys.end(), id) ||
                      seek(pending, s.pending.end(), id) ||
                      now - e.second.last_heard <= kCandidateFreshS;
    if (!keep) s.fd.erase(id);
    return !keep;
  });

  // Ensure every DT neighbor has a candidate record (physical neighbors may
  // not have one yet: give them their trivial one-hop path and link cost),
  // gathered by one walk over N_u, P_u and C_u and inserted at once.
  auto& added = record_batch_scratch<Candidate>();
  phys = s.phys.begin();
  c = s.cand.begin();
  for (NodeId y : dt_nbrs) {
    if (!seek(phys, s.phys.end(), y) || seek(c, s.cand.end(), y)) continue;
    Candidate& rec = added.emplace_back(y, Candidate{}).second;
    rec.hear(phys->second, /*first_hand=*/true);
    rec.cost = net_.link_cost(u, y);
    rec.path = {u, y};
    rec.last_heard = now;
    rec.synced = true;  // link-layer exchange suffices for physical neighbors
  }
  s.cand.insert_sorted(added);
  added.clear();

  sync_missing_neighbors(u);
}

void MdtOverlay::refresh_phys(NodeId u) {
  // Downed (flapping / partitioned) links count as absent: the neighbor is
  // unreachable at the link layer until the fault clears, at which point its
  // periodic Hello re-announces it.
  erase_if(st(u).phys, [&](const auto& e) {
    return !net_.alive(e.first) || !net_.link_usable(u, e.first);
  });
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

const std::vector<NodeId>& MdtOverlay::virtual_path(NodeId u, NodeId v) const {
  const NodeState& s = st(u);
  auto it = s.cand.find(v);
  if (it == s.cand.end()) return empty_path_;
  return it->second.path;
}

std::vector<NodeId> MdtOverlay::candidate_ids(NodeId u) const {
  std::vector<NodeId> ids;
  ids.reserve(st(u).cand.size());
  for (const auto& [id, c] : st(u).cand) ids.push_back(id);
  return ids;
}

int MdtOverlay::distinct_nodes_stored(NodeId u) const {
  const NodeState& s = st(u);
  std::vector<NodeId> known;
  known.reserve(s.phys.size() + s.dt_nbrs().size() + 4 * s.relay.size());
  for (const auto& [id, info] : s.phys) known.push_back(id);
  known.insert(known.end(), s.dt_nbrs().begin(), s.dt_nbrs().end());
  for (const auto& [pair, entry] : s.relay)
    known.insert(known.end(), {pair.first, pair.second, entry.pred, entry.succ});
  std::erase(known, u);
  std::erase(known, -1);
  std::sort(known.begin(), known.end());
  return static_cast<int>(std::unique(known.begin(), known.end()) - known.begin());
}

}  // namespace gdvr::mdt
