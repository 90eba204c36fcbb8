// Distributed multi-hop Delaunay triangulation (MDT) protocol.
//
// Implements the MDT join and maintenance protocols of Lam & Qian
// (SIGMETRICS 2011) with the VPoD extensions from the GDV paper:
//  * nodes are identified by globally unique ids, not coordinates;
//  * forwarding-table tuples are extended with (cost, error);
//  * every Neighbor-Set Request/Reply records the cumulative routing cost of
//    its (reverse) path, so both endpoints of a DT-neighbor pair learn their
//    directed routing cost to each other (supports asymmetric metrics);
//  * position updates are pushed to physical and multi-hop DT neighbors.
//
// Each node keeps a candidate set C_u (id -> position/error/cost/path), its
// DT neighbor set N_u = neighbors of u in the local Delaunay triangulation
// of {u} + C_u + P_u, and soft-state relay entries for virtual links that
// pass through it. Control messages are greedy-forwarded using physical
// neighbors and established virtual links; dead ends are retried by the
// origin after a timeout (the triangulation is still under construction when
// they happen) and repaired by periodic maintenance rounds.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <type_traits>
#include <vector>

#include "common/flat_map.hpp"
#include "common/rng.hpp"
#include "geom/local_delaunay.hpp"
#include "graph/graph.hpp"
#include "mdt/failure_detector.hpp"
#include "mdt/messages.hpp"
#include "sim/netsim.hpp"
#include "sim/reliable.hpp"
#include "sim/simulator.hpp"

namespace gdvr::mdt {

using Net = sim::NetSim<Envelope>;
using ReliableNet = sim::ReliableTransport<Envelope>;

// The ACK message the reliable transport returns for a protected hop.
inline Envelope make_ack(NodeId from, NodeId to, std::uint64_t seq) {
  Envelope a;
  a.kind = Kind::kAck;
  a.origin = from;
  a.target = to;
  a.rel_seq = seq;
  return a;
}

// The local DT's keys are node ids: its neighbor list is N_u itself.
static_assert(std::is_same_v<geom::LocalDelaunay::Key, NodeId>);

struct MdtConfig {
  int dim = 3;                     // dimension of the (virtual) space
  // A multi-hop DT neighbor not heard from (position update or neighbor-set
  // exchange) for this long is presumed dead and dropped at the next
  // maintenance round -- the mechanism behind churn recovery (Sec. IV-H).
  double neighbor_stale_s = 45.0;
  // Ablation switch: when true (default), neighbor-set re-syncs route
  // greedily first so virtual-link paths shrink as the embedding converges;
  // when false, the stored path is always reused ("sticky paths"), so costs
  // recorded during early construction never improve. bench/ablation_paths
  // quantifies the difference.
  bool refresh_paths_greedily = true;
  // Adaptive failure detection (mdt/failure_detector.hpp). Default-off:
  // legacy configs keep the fixed neighbor_stale_s timeout and send no
  // heartbeats, so existing scenarios are bit-identical. When enabled, each
  // node heartbeats its multi-hop DT neighbors on fd.heartbeat_period_s and
  // evicts (with a tombstone) any whose phi crosses fd.phi_threshold.
  FailureDetectorConfig fd;
};

// A member of P_u ∪ N_u as seen by VPoD's adjustment, GDV forwarding and
// MDT-greedy, handed to MdtOverlay::for_each_neighbor's visitor. `pos` and
// `path` refer to what u stores for that neighbor; they stay valid until u's
// tables next change.
struct NeighborView {
  NodeId id;
  const Vec& pos;
  double err;
  double cost;   // c(u,v) for physical neighbors, D(u,v) otherwise
  bool is_phys;
  bool is_dt;
  // P_u's advertised flag; true for N_u \ P_u, whose members are in the
  // multi-hop DT.
  bool joined;
  // The stored virtual-link route u -> ... -> id: empty for P_u, which is
  // reached in one hop.
  const std::vector<NodeId>& path;
};

class MdtOverlay {
 public:
  MdtOverlay(Net& net, const MdtConfig& config);

  // Installs this overlay as the NetSim receiver. Call once before starting.
  void attach();

  // Opts the join / neighbor-set control exchange into per-hop ACK +
  // retransmit delivery (sim/reliable.hpp). Without it, once the control
  // plane is lossy (set_loss_from_etx, fault-injected bursts), lost
  // Neighbor-Set Requests/Replies stall sync until maintenance-round
  // timeouts. The transport must outlive this overlay's message processing;
  // pass nullptr to revert to plain delivery.
  void use_reliable_transport(ReliableNet* transport) { reliable_ = transport; }
  const ReliableNet* reliable_transport() const { return reliable_; }

  // --- node lifecycle -----------------------------------------------------
  // Node u enters the protocol with an initial position (sends Hello to all
  // physical neighbors). The first node of the system passes joined=true.
  void activate(NodeId u, const Vec& pos, bool first = false);
  // Begins (or retries) the join: greedy-search for the closest joined node.
  void start_join(NodeId u);
  // Churn: the node fails silently (link layer stops delivering).
  void deactivate(NodeId u);

  // --- VPoD hooks -----------------------------------------------------------
  // Updates u's position/error after an adjustment and pushes kPosUpdate to
  // all physical and DT neighbors.
  void set_position(NodeId u, const Vec& pos, double err);
  void set_error(NodeId u, double err) { states_[static_cast<std::size_t>(u)].err = err; }
  // J-period maintenance: refresh physical neighbors, expire soft state,
  // recompute the local DT, and re-sync every DT-neighbor pair.
  void run_maintenance_round(NodeId u);
  // Targeted repair (used by the convergence watchdog on stuck nodes): marks
  // every DT-neighbor exchange of u unsynced and schedules a recompute, so
  // the full pair-sync re-runs immediately instead of at the next J period.
  // A node that lost its join entirely restarts the join search.
  void force_resync(NodeId u);

  // --- queries (used by VPoD, GDV and the evaluation harness) -------------
  bool active(NodeId u) const { return states_[static_cast<std::size_t>(u)].active; }
  bool joined(NodeId u) const { return states_[static_cast<std::size_t>(u)].joined; }
  const Vec& position(NodeId u) const { return states_[static_cast<std::size_t>(u)].pos; }
  double error(NodeId u) const { return states_[static_cast<std::size_t>(u)].err; }
  // Calls fn(const NeighborView&) for each of P_u ∪ N_u with its position,
  // error, routing cost and route, without allocating: first P_u by id, then
  // N_u \ P_u by id (multi-hop DT neighbors with a finite cost, hence a
  // stored path; see Candidate). Every tie-break in VPoD, GDV forwarding and
  // MDT-greedy depends on this order.
  template <typename Fn>
  void for_each_neighbor(NodeId u, Fn&& fn) const;
  // MDT-greedy's next hop toward `pos` from u, excluding `visited`: the
  // physical neighbor closest to `pos` over a live, usable link, if it is
  // closer than u; otherwise the closest multi-hop DT neighbor closer than u.
  // `joined_only` (join requests, which travel inside the multi-hop DT)
  // restricts physical hops to joined nodes. nullopt when u is a local
  // minimum. The view's references die with the next change to u's tables.
  std::optional<NeighborView> greedy_next(NodeId u, const Vec& pos,
                                          const std::vector<NodeId>& visited,
                                          bool joined_only) const;
  // Advertised state of physical neighbors (populated by Hello / PosUpdate;
  // available even before the node activates -- VPoD's position
  // initialization rules need it).
  const FlatMap<NodeId, NodeInfo>& phys_info(NodeId u) const {
    return states_[static_cast<std::size_t>(u)].phys;
  }
  // The physical route u -> ... -> v that C_u stores for v: the route of
  // the last completed exchange, or {u, v} for a physical DT neighbor that
  // recompute() gave a record; empty when v has neither. for_each_neighbor's
  // view gives P_u an empty path instead: P_u is reached in one hop.
  const std::vector<NodeId>& virtual_path(NodeId u, NodeId v) const;
  // N_u, sorted by id.
  const std::vector<NodeId>& dt_neighbors(NodeId u) const { return st(u).dt_nbrs(); }
  // Introspection for diagnostics/eval: the ids currently in C_u.
  std::vector<NodeId> candidate_ids(NodeId u) const;
  // Storage metric: distinct remote nodes u must store to forward (physical
  // neighbors, DT neighbors, and relay-entry endpoints).
  int distinct_nodes_stored(NodeId u) const;

  Net& net() { return net_; }
  const Net& net() const { return net_; }
  const MdtConfig& config() const { return config_; }

  // Health counters for the neighbor-set sync machinery (bench/ablation_faults
  // reads these to quantify what the reliable control transport buys).
  // All health counters (and the protocol-jitter RNG) are kept per node and
  // aggregated on read, so concurrent lanes of the sharded engine never
  // share a counter and jitter draws are a function of each node's own
  // event sequence (DESIGN.md §4g).
  struct SyncStats {
    std::uint64_t requests = 0;  // neighbor-set requests sent, incl. retries
    std::uint64_t failures = 0;  // sync rounds abandoned after the last retry
  };
  SyncStats sync_stats() const {
    SyncStats total;
    for (const SyncStats& s : sync_stats_) {
      total.requests += s.requests;
      total.failures += s.failures;
    }
    return total;
  }

  // Local-DT counters: `calls` counts recompute() invocations on live
  // nodes, `rebuilds` the subset whose input -- the positions of {u} + P_u +
  // C_u -- changed since the node's previous recompute, so N_u had to be
  // recomputed. On a converged, churn-free network rebuilds/calls
  // approaches 0: maintenance rounds become near-zero triangulation work.
  struct RecomputeStats {
    std::uint64_t calls = 0;
    std::uint64_t rebuilds = 0;
  };
  RecomputeStats recompute_stats() const {
    RecomputeStats total;
    for (const RecomputeStats& s : recompute_stats_) {
      total.calls += s.calls;
      total.rebuilds += s.rebuilds;
    }
    return total;
  }

  // Local-DT counters summed over every node, including the ones retired
  // by deactivation. Exported as mdt.dt.*.
  geom::DynamicDtStats dt_stats() const;

  // Failure-detector / incarnation-reconciliation counters.
  struct FdStats {
    std::uint64_t heartbeats_sent = 0;
    std::uint64_t evictions = 0;            // neighbors dropped by phi crossing
    std::uint64_t tombstones_created = 0;
    std::uint64_t gossip_suppressed = 0;    // tombstoned gossip ignored
    std::uint64_t stale_incarnation_dropped = 0;  // messages from a past life
  };
  FdStats fd_stats() const {
    FdStats total;
    for (const FdStats& s : fd_stats_) {
      total.heartbeats_sent += s.heartbeats_sent;
      total.evictions += s.evictions;
      total.tombstones_created += s.tombstones_created;
      total.gossip_suppressed += s.gossip_suppressed;
      total.stale_incarnation_dropped += s.stale_incarnation_dropped;
    }
    return total;
  }
  // Current suspicion level u holds about multi-hop DT neighbor v (0 when no
  // detector exists, e.g. physical neighbors). Test/diagnostic hook.
  double suspicion(NodeId u, NodeId v) const;
  // Test hook: runs the FD eviction path (tombstone + candidate erase +
  // recompute) at u for neighbor y, as if y's phi had crossed the threshold.
  // Lets tests pin the false-eviction healing behavior without contriving a
  // real false positive.
  void evict_for_test(NodeId u, NodeId y) { evict_neighbor(u, y); }

  // Receiver entry point (public so VPoD can delegate MDT kinds to it).
  void handle(NodeId to, NodeId from, Envelope&& msg);

 private:
  struct Candidate {
    Vec pos;
    double err = 1.0;
    std::uint64_t pos_version = 0;  // version of `pos` (see NodeInfo)
    std::uint32_t incarnation = 0;  // highest incarnation heard from this node
    // Invariant: `cost` is finite exactly when `path` holds a physical route
    // owner -> ... -> this node (at least two nodes), and it is that route's
    // cost. Every writer keeps it: recompute() gives a physical DT neighbor
    // {owner, node} and its link cost, and both callers of learn_synced() set
    // the path of the exchange whose cost they record. for_each_neighbor
    // relies on it to hand out N_u \ P_u with their paths.
    double cost = graph::kInf;     // routing cost from the owner to this node
    std::vector<NodeId> path;      // physical route owner -> ... -> node
    NodeId via = -1;               // the neighbor whose reply taught us this node
    sim::Time last_heard = 0.0;
    bool synced = false;           // a NbrSet exchange with it has completed

    // Adopts info's position and error when info is fresher than this
    // record (the rule is in overlay.cpp's fresher()), and keeps the highest
    // incarnation heard. `first_hand`: info came straight from the node.
    void hear(const NodeInfo& info, bool first_hand);
  };

  struct PendingSync {
    int attempts = 0;
    sim::Simulator::EventId timer = 0;
  };

  struct RelayEntry {
    NodeId pred = -1;
    NodeId succ = -1;
    sim::Time refreshed = 0.0;
  };

  struct NodeState {
    bool active = false;
    bool joined = false;
    bool got_join_reply = false;
    Vec pos;
    double err = 1.0;
    std::uint64_t pos_version = 0;  // bumped on every set_position / activate
    // Every table is id-sorted (common/flat_map.hpp): iteration runs in
    // ascending id order, and an insert invalidates references into it.
    FlatMap<NodeId, NodeInfo> phys;       // physical neighbors' advertised state
    FlatMap<NodeId, Candidate> cand;      // candidate set C_u
    // Relay entries: normalized endpoint pair -> pred/succ soft state.
    FlatMap<std::pair<NodeId, NodeId>, RelayEntry> relay;
    FlatMap<NodeId, PendingSync> pending;
    std::vector<NodeId> prev_round_dt;    // N_u at the previous maintenance round
    // The local DT over {u} + P_u + C_u: the last input and its N_u, so a
    // recompute on an unchanged input does no geometry. Reset with the rest
    // of the NodeState on deactivation (counters are folded into
    // dt_retired_ first).
    geom::LocalDelaunay local_dt;
    // N_u, sorted: the local DT's neighbor list, its only copy.
    const std::vector<NodeId>& dt_nbrs() const { return local_dt.neighbors(); }
    bool resync_scheduled = false;
    bool recompute_scheduled = false;
    sim::Time last_join_attempt = -1e18;  // rate limit for join retries
    // Adaptive failure detection (config.fd.enabled): one phi-accrual
    // detector per multi-hop DT neighbor, created at its first heartbeat.
    FlatMap<NodeId, PhiAccrualDetector> fd;
    // Tombstones for FD-evicted neighbors: the incarnation evicted and when.
    // Gossip about (id, incarnation <= tombstone) is suppressed until direct
    // contact clears it or tombstone_ttl_s expires.
    struct Tombstone {
      std::uint32_t incarnation = 0;
      sim::Time created = 0.0;
    };
    FlatMap<NodeId, Tombstone> tombstones;
  };

  NodeState& st(NodeId u) { return states_[static_cast<std::size_t>(u)]; }
  const NodeState& st(NodeId u) const { return states_[static_cast<std::size_t>(u)]; }

  NodeInfo info_of(NodeId u) const {
    return NodeInfo{u,           st(u).pos,          st(u).err,
                    st(u).joined, st(u).pos_version, net_.incarnation(u)};
  }

  // --- what u learns from a message ----------------------------------------
  // Gate for a message straight from info.id. False (and counted) when info
  // reports an incarnation older than one u recorded for that node: it was
  // sent before the node's last crash and must not mutate state about the
  // new life. Otherwise it is proof of life and clears a tombstone it
  // refutes.
  bool accept_direct(NodeId u, const NodeInfo& info);
  // Stores a physical neighbor's advertised state when fresher (first hand).
  void hear_phys(NodeId u, const NodeInfo& info);
  // Direct word from info.id, if it is in C_u: adopts its advertised state
  // and counts it as heard from now.
  void touch_candidate(NodeId u, const NodeInfo& info);
  // A neighbor-set (or join) exchange with info.id completed at routing
  // cost `cost`: records it as a synced candidate learned from itself. The
  // caller sets the path. The reference dies at the next insert into C_u.
  Candidate& learn_synced(NodeId u, const NodeInfo& info, double cost);

  // --- adaptive failure detection ------------------------------------------
  void schedule_fd_tick(NodeId u);
  void fd_tick(NodeId u);
  // Drops multi-hop DT neighbor y as dead: erases its soft state, writes a
  // tombstone for its last-known incarnation, and recomputes the local DT.
  void evict_neighbor(NodeId u, NodeId y);

  // --- message handling ----------------------------------------------------
  void on_hello(NodeId u, const Envelope& msg);
  void on_join_request(NodeId u, Envelope msg);
  void on_nbr_set_request(NodeId u, Envelope msg);
  // A join or neighbor-set reply reaching its target.
  void on_reply(NodeId u, const Envelope& msg);
  void on_pos_update(NodeId u, const Envelope& msg);
  void on_heartbeat(NodeId u, const Envelope& msg);

  // --- forwarding helpers --------------------------------------------------
  // Sends a greedy-phase message onward from u (handles virtual-link
  // detours); returns false when no progress was possible.
  bool forward_request(NodeId u, Envelope msg);
  // One physical-hop control send; routes join / neighbor-set kinds through
  // the reliable transport when one is attached.
  bool send_ctrl(NodeId from, NodeId to, Envelope&& msg);
  // Starts msg along a stored virtual-link path u -> ... (path[0] == u, at
  // least two nodes): the route's first physical hop. A caller whose copy
  // of the path is spare moves it in.
  bool send_routed(NodeId u, Envelope&& msg, std::vector<NodeId> path);
  // Sends a fresh `kind` message from u to each neighbor for_each_neighbor
  // visits, in its order: to P_u in one hop when `include_phys`, then to
  // N_u \ P_u along each virtual link. Returns how many sends succeeded.
  int send_to_neighbors(NodeId u, Kind kind, bool include_phys);
  // Installs/refreshes a relay entry at u for the virtual link (a, b).
  void note_relay(NodeId u, NodeId a, NodeId b, NodeId pred, NodeId succ);

  // --- protocol actions ------------------------------------------------------
  void send_nbr_request(NodeId u, NodeId y);
  // (Re)sends without the in-flight guard: reuses any existing pending entry
  // so retry attempts accumulate toward the retry budget.
  void resend_nbr_request(NodeId u, NodeId y);
  // Marks the DT-neighbor exchanges u initiates due again and schedules the
  // recompute that sends them.
  void restart_pair_syncs(NodeId u);
  // Marks the C_u records of u's DT neighbors with id above `floor` unsynced.
  void unsync_dt_neighbors(NodeId u, NodeId floor);
  void sync_missing_neighbors(NodeId u);
  void schedule_recompute(NodeId u);
  void recompute(NodeId u);
  // Folds a neighbor-set payload from `via` into C_u in one id-ordered walk:
  // known records hear it as gossip, unseen ids (bar u and tombstoned ones)
  // join as fresh candidates. `infos` must be strictly id-ascending.
  void merge_neighbor_set(NodeId u, const std::vector<NodeInfo>& infos, NodeId via);
  void mark_joined(NodeId u);
  void reply_with_neighbor_set(NodeId u, const Envelope& request, Kind kind);
  // u's neighbor-set payload: P_u ∪ N_u in one id-ascending list, each
  // physical neighbor with its advertised state, each other DT neighbor with
  // u's C_u record of it.
  std::vector<NodeInfo> neighbor_infos(NodeId u) const;
  void refresh_phys(NodeId u);
  void send_hello(NodeId u);

  // Per-node accessors for the counters/RNG above; every call site passes
  // the node whose event is executing, so writes stay lane-local.
  SyncStats& sync_at(NodeId u) { return sync_stats_[static_cast<std::size_t>(u)]; }
  RecomputeStats& rec_at(NodeId u) { return recompute_stats_[static_cast<std::size_t>(u)]; }
  FdStats& fd_at(NodeId u) { return fd_stats_[static_cast<std::size_t>(u)]; }
  Rng& rng_at(NodeId u) { return rng_[static_cast<std::size_t>(u)]; }

  Net& net_;
  MdtConfig config_;
  ReliableNet* reliable_ = nullptr;
  std::vector<SyncStats> sync_stats_;
  std::vector<RecomputeStats> recompute_stats_;
  std::vector<FdStats> fd_stats_;
  // Counters of DT instances destroyed by deactivate(); per-node slots so
  // writes stay lane-local under the sharded engine.
  std::vector<geom::DynamicDtStats> dt_retired_;
  std::vector<NodeState> states_;
  std::vector<Rng> rng_;
  std::vector<NodeId> empty_path_;
};

template <typename Fn>
void MdtOverlay::for_each_neighbor(NodeId u, Fn&& fn) const {
  const NodeState& s = st(u);
  const std::vector<NodeId>& dt_nbrs = s.dt_nbrs();
  // P_u, N_u and u's CSR run are all sorted by id, so one merge walk marks
  // which physical neighbors are also DT neighbors and reads each one's link
  // cost: the first arc to it, kInf if there is none (link_cost's rule)...
  auto dt = dt_nbrs.begin();
  const std::span<const graph::Edge> arcs = net_.links().neighbors(u);
  auto arc = arcs.begin();
  for (const auto& [id, info] : s.phys) {
    while (dt != dt_nbrs.end() && *dt < id) ++dt;
    while (arc != arcs.end() && arc->to < id) ++arc;
    const bool is_dt = dt != dt_nbrs.end() && *dt == id;
    const double cost = arc != arcs.end() && arc->to == id ? arc->cost : graph::kInf;
    fn(NeighborView{id, info.pos, info.err, cost, true, is_dt, info.joined, empty_path_});
  }
  // ...and a second one skips them among the DT neighbors.
  auto phys = s.phys.begin();
  for (NodeId y : dt_nbrs) {
    while (phys != s.phys.end() && phys->first < y) ++phys;
    if (phys != s.phys.end() && phys->first == y) continue;
    const auto it = s.cand.find(y);
    if (it == s.cand.end() || !std::isfinite(it->second.cost)) continue;
    const Candidate& c = it->second;
    fn(NeighborView{y, c.pos, c.err, c.cost, false, true, true, c.path});
  }
}

}  // namespace gdvr::mdt
