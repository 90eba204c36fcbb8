// Protocol messages shared by MDT and VPoD.
//
// One envelope type serves every control message so a single NetSim instance
// carries the whole protocol stack (the paper piggybacks VPoD fields on MDT
// messages the same way). Fields are a union-of-needs; each Kind documents
// which fields it uses.
#pragma once

#include <cstdint>
#include <vector>

#include "common/vec.hpp"

namespace gdvr::mdt {

using NodeId = int;

// A node's advertised state: globally unique id, current virtual position,
// estimated position error (VPoD's e_u), and whether it has completed its
// MDT join (join requests are routed through joined nodes only -- they form
// the multi-hop DT that gives greedy forwarding its delivery guarantee).
struct NodeInfo {
  NodeId id = -1;
  Vec pos;
  double err = 1.0;
  bool joined = false;
  // Monotone per-node position version, bumped on every adjustment (and
  // preserved across reboots). Position state reaches a node over many
  // channels -- direct updates, hellos, replies, second-hand gossip in
  // neighbor-set exchanges -- with different latencies and loss rates; the
  // version decides which copy is freshest, so a lossy direct channel can be
  // repaired by gossip without stale gossip ever clobbering fresher state.
  std::uint64_t pos_version = 0;
  // The sender's incarnation (bumped by the link layer on every crash/rejoin
  // cycle). Receivers order state lexicographically by (incarnation,
  // pos_version) and drop messages from a past life outright, so in-flight
  // messages sent before a crash can never resurrect the dead incarnation's
  // links or coordinates after the node rejoins.
  std::uint32_t incarnation = 0;
};

enum class Kind {
  // VPoD start token, flooded once over physical links. Uses: origin_info
  // (sender's freshly initialized position).
  kToken,
  // Position/error advertisement to a physical neighbor. Uses: origin_info.
  kHello,
  // Find the joined node closest to the origin's position (greedy-forwarded).
  // Uses: origin, target_pos, origin_info, visited, accum_cost, ttl.
  kJoinRequest,
  // Closest node's neighbor set, source-routed back. Uses: origin (replier),
  // target (joiner), origin_info, nbr_infos, route/route_idx, accum_cost.
  kJoinReply,
  // Neighbor-set request to a specific node (greedy toward target_pos with
  // virtual-link detours). The exchange is mutual: the request carries the
  // origin's neighbor set (nbr_infos) so the replier learns from it too.
  // Uses: origin, target, target_pos, origin_info, nbr_infos, visited,
  // route/route_idx/detour, accum_cost, ttl.
  kNbrSetRequest,
  // Uses: origin (replier), target, origin_info, nbr_infos, route/route_idx,
  // accum_cost.
  kNbrSetReply,
  // VPoD adjustment result pushed to physical and DT neighbors. Direct to
  // physical neighbors; source-routed over the virtual link otherwise.
  // Uses: origin, target, origin_info, route/route_idx.
  kPosUpdate,
  // Application data packet routed live by GDV (see vpod/live_gdv.hpp).
  // Uses: origin, target, target_pos, token (packet id), accum_cost (forward
  // metric cost), ttl, route/route_idx/detour (virtual-link traversal).
  kData,
  // Per-hop acknowledgment of a reliably sent control message (see
  // sim/reliable.hpp). Uses: origin (acking node), target (hop sender),
  // rel_seq (the acknowledged sequence).
  kAck,
  // Liveness probe for the adaptive failure detector (mdt/failure_detector).
  // Sent on a fixed per-node cadence to multi-hop DT neighbors so their
  // phi-accrual detectors see a clean inter-arrival signal (position updates
  // and sync traffic are too bursty to model). Direct to physical neighbors;
  // source-routed over the virtual link otherwise. Uses: origin, target,
  // origin_info, route/route_idx.
  kHeartbeat,
};

struct Envelope {
  Kind kind = Kind::kHello;
  NodeId origin = -1;          // logical source
  NodeId target = -1;          // logical destination (-1: "node closest to target_pos")
  Vec target_pos;              // greedy destination position
  NodeInfo origin_info;        // origin's position/error snapshot

  // Physical trail of the message so far (origin first, excluding the node
  // currently holding the message). Replies reverse this to source-route back.
  std::vector<NodeId> visited;

  // Active source route (for replies, virtual-link detours, pos updates).
  std::vector<NodeId> route;
  int route_idx = 0;  // position of the *current holder* within `route`
  // True while a greedy request is detouring along a stored virtual-link
  // path; greedy forwarding resumes when the detour ends.
  bool detour = false;

  // Called by the node `holder` that just received this message: steps
  // route_idx onto holder when it is the route's next node, and returns true
  // when the route ends at holder (or there is none).
  bool arrive(NodeId holder) {
    const auto idx = static_cast<std::size_t>(route_idx);
    if (idx + 1 < route.size() && route[idx + 1] == holder) ++route_idx;
    return route.empty() || route_idx == static_cast<int>(route.size()) - 1;
  }
  // The detour's last hop arrived: greedy forwarding resumes at the holder.
  void end_detour() {
    detour = false;
    route.clear();
    route_idx = 0;
  }

  // Cumulative link cost of the reverse path (paper Section III-A: each
  // receiving node x adds c(x, sender), so the final receiver learns its own
  // routing cost back to the message's origin).
  double accum_cost = 0.0;

  std::vector<NodeInfo> nbr_infos;  // payload of replies
  int ttl = 0;
  std::uint64_t token = 0;          // data-packet id (kData)
  // Reliable-transport hop sequence (sim/reliable.hpp): nonzero while this
  // copy's current hop transfer is ACK/retransmit protected; reset before
  // the next hop reassigns it. 0 = plain unreliable delivery.
  std::uint64_t rel_seq = 0;
};

}  // namespace gdvr::mdt
