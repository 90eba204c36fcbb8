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

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "geom/local_delaunay.hpp"
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

struct MdtConfig {
  int dim = 3;                     // dimension of the (virtual) space
  double sync_timeout_s = 1.5;     // Neighbor-Set Request retry timeout
  int max_sync_retries = 4;        // per maintenance round
  // Non-neighbor candidates survive one recompute cycle: freshly learned
  // nodes must be considered once, but keeping them longer balloons the
  // local-DT input during early construction.
  double candidate_fresh_s = 2.0;
  double relay_ttl_s = 60.0;       // soft-state expiry for relay entries
  // A multi-hop DT neighbor not heard from (position update or neighbor-set
  // exchange) for this long is presumed dead and dropped at the next
  // maintenance round -- the mechanism behind churn recovery (Sec. IV-H).
  double neighbor_stale_s = 45.0;
  double recompute_delay_s = 0.7;  // coalescing delay for local DT recomputes
  // Robustness: when a maintenance round observes that N_u changed since the
  // previous round (churn, partition healing, large position shifts), one
  // follow-up neighbor-set sync fires after this delay, still inside the
  // same J period. Self-limiting: a stable DT never pays for it, while
  // post-fault repair runs at twice the per-period rate. 0 disables.
  double resync_after_change_s = 2.5;
  int greedy_ttl = 96;             // hop budget for greedy-forwarded requests
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

// A neighbor as seen by VPoD's adjustment algorithm and by GDV forwarding.
struct NeighborView {
  NodeId id = -1;
  Vec pos;
  double err = 1.0;
  double cost = 0.0;   // c(u,v) for physical neighbors, D(u,v) otherwise
  bool is_phys = false;
  bool is_dt = false;
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
  // P_u ∪ N_u with positions, errors and routing costs.
  std::vector<NeighborView> neighbor_views(NodeId u) const;
  // Advertised state of physical neighbors (populated by Hello / PosUpdate;
  // available even before the node activates -- VPoD's position
  // initialization rules need it).
  const std::map<NodeId, NodeInfo>& phys_info(NodeId u) const {
    return states_[static_cast<std::size_t>(u)].phys;
  }
  // The stored physical route u -> ... -> v for a multi-hop DT neighbor v
  // (empty for physical neighbors and unknown nodes).
  const std::vector<NodeId>& virtual_path(NodeId u, NodeId v) const;
  std::vector<NodeId> dt_neighbors(NodeId u) const;
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
    std::uint64_t failures = 0;  // sync rounds abandoned after max_sync_retries
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
  void handle(NodeId to, NodeId from, Envelope msg);

 private:
  struct Candidate {
    Vec pos;
    double err = 1.0;
    std::uint64_t pos_version = 0;  // version of `pos` (see NodeInfo)
    std::uint32_t incarnation = 0;  // highest incarnation heard from this node
    double cost = graph::kInf;     // routing cost from the owner to this node
    std::vector<NodeId> path;      // physical route owner -> ... -> node
    NodeId via = -1;               // the neighbor whose reply taught us this node
    sim::Time last_heard = 0.0;
    bool synced = false;           // a NbrSet exchange with it has completed
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
    std::map<NodeId, NodeInfo> phys;      // physical neighbors' advertised state
    std::map<NodeId, Candidate> cand;     // candidate set C_u
    std::vector<NodeId> dt_nbrs;          // N_u (sorted)
    // Relay entries: normalized endpoint pair -> pred/succ soft state.
    std::map<std::pair<NodeId, NodeId>, RelayEntry> relay;
    std::map<NodeId, PendingSync> pending;
    std::vector<NodeId> prev_round_dt;    // N_u at the previous maintenance round
    // The local DT over {u} + P_u + C_u: the last input and its N_u, so a
    // recompute on an unchanged input does no geometry. Reset with the rest
    // of the NodeState on deactivation (counters are folded into
    // dt_retired_ first).
    geom::LocalDelaunay local_dt;
    bool resync_scheduled = false;
    bool recompute_scheduled = false;
    sim::Time last_join_attempt = -1e18;  // rate limit for join retries
    // Adaptive failure detection (config.fd.enabled): one phi-accrual
    // detector per multi-hop DT neighbor, created at its first heartbeat.
    std::map<NodeId, PhiAccrualDetector> fd;
    // Tombstones for FD-evicted neighbors: the incarnation evicted and when.
    // Gossip about (id, incarnation <= tombstone) is suppressed until direct
    // contact clears it or tombstone_ttl_s expires.
    struct Tombstone {
      std::uint32_t incarnation = 0;
      sim::Time created = 0.0;
    };
    std::map<NodeId, Tombstone> tombstones;
  };

  NodeState& st(NodeId u) { return states_[static_cast<std::size_t>(u)]; }
  const NodeState& st(NodeId u) const { return states_[static_cast<std::size_t>(u)]; }

  NodeInfo info_of(NodeId u) const {
    return NodeInfo{u,           st(u).pos,          st(u).err,
                    st(u).joined, st(u).pos_version, net_.incarnation(u)};
  }

  // --- incarnation reconciliation ------------------------------------------
  // True when `info` reports an incarnation older than what u has already
  // recorded for that node: the message was sent before the node's last
  // crash and must not mutate state about the new life.
  bool stale_origin(NodeId u, const NodeInfo& info);
  // Direct contact from (id, incarnation): clears any refuted tombstone.
  void note_direct_contact(NodeId u, const NodeInfo& info);
  // Lexicographic (incarnation, pos_version) freshness of `info` against a
  // stored record.
  static bool at_least_as_fresh(const NodeInfo& info, std::uint32_t inc, std::uint64_t ver) {
    return std::make_pair(info.incarnation, info.pos_version) >= std::make_pair(inc, ver);
  }
  static bool strictly_fresher(const NodeInfo& info, std::uint32_t inc, std::uint64_t ver) {
    return std::make_pair(info.incarnation, info.pos_version) > std::make_pair(inc, ver);
  }

  // --- adaptive failure detection ------------------------------------------
  void schedule_fd_tick(NodeId u);
  void fd_tick(NodeId u);
  void send_heartbeats(NodeId u);
  // Drops multi-hop DT neighbor y as dead: erases its soft state, writes a
  // tombstone for its last-known incarnation, and recomputes the local DT.
  void evict_neighbor(NodeId u, NodeId y);

  // --- message handling ----------------------------------------------------
  void on_hello(NodeId u, const Envelope& msg);
  void on_join_request(NodeId u, Envelope msg);
  void on_join_reply(NodeId u, Envelope msg);
  void on_nbr_set_request(NodeId u, Envelope msg);
  void on_nbr_set_reply(NodeId u, Envelope msg);
  void on_pos_update(NodeId u, Envelope msg);
  void on_heartbeat(NodeId u, const Envelope& msg);

  // --- forwarding helpers --------------------------------------------------
  // Greedy next hop toward `pos` among u's physical neighbors and DT
  // neighbors, excluding already visited nodes. Join requests restrict
  // physical hops to joined nodes (the multi-hop DT members). Returns the
  // chosen neighbor id, or nullopt if u is a local minimum among eligible
  // candidates.
  std::optional<NodeId> greedy_next(NodeId u, const Vec& pos, const std::vector<NodeId>& visited,
                                    bool joined_only) const;
  // Sends a greedy-phase message onward from u (handles virtual-link
  // detours); returns false when no progress was possible.
  bool forward_request(NodeId u, Envelope msg);
  // Continues a source-routed message from u along msg.route.
  void forward_routed(NodeId u, Envelope msg);
  // One physical-hop control send; routes join / neighbor-set kinds through
  // the reliable transport when one is attached.
  bool send_ctrl(NodeId from, NodeId to, Envelope msg);
  // Installs/refreshes a relay entry at u for the virtual link (a, b).
  void note_relay(NodeId u, NodeId a, NodeId b, NodeId pred, NodeId succ);

  // --- protocol actions ------------------------------------------------------
  void send_nbr_request(NodeId u, NodeId y);
  // (Re)sends without the in-flight guard: reuses any existing pending entry
  // so retry attempts accumulate toward max_sync_retries.
  void resend_nbr_request(NodeId u, NodeId y);
  void sync_missing_neighbors(NodeId u);
  void schedule_recompute(NodeId u);
  void recompute(NodeId u);
  void merge_candidate_info(NodeId u, const NodeInfo& info, NodeId via);
  void mark_joined(NodeId u);
  void reply_with_neighbor_set(NodeId u, const Envelope& request, Kind kind);
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

}  // namespace gdvr::mdt
