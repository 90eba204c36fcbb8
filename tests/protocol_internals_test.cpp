// White-box tests of the MDT protocol machinery on small hand-crafted
// topologies: greedy forwarding, virtual-link detours, TTL, retries, and the
// exact message mechanics of the join.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "mdt/overlay.hpp"
#include "radio/topology.hpp"
#include "sim/simulator.hpp"

namespace gdvr::mdt {
namespace {

// A line of n nodes at unit spacing, unit link costs.
struct Line {
  radio::Topology topo;
  sim::Simulator sim;
  std::unique_ptr<Net> net;
  std::unique_ptr<MdtOverlay> overlay;

  explicit Line(int n) {
    topo.positions.clear();
    graph::GraphBuilder gb(n);
    for (int i = 0; i < n; ++i) topo.positions.push_back(Vec{static_cast<double>(i), 0.0});
    for (int i = 0; i + 1 < n; ++i) gb.add_bidirectional(i, i + 1, 1.0, 1.0);
    topo.etx = gb.build();
    topo.hops = topo.etx.with_unit_costs();
    net = std::make_unique<Net>(sim, topo.etx, 0.001, 0.01, 1);
    MdtConfig mc;
    mc.dim = 2;
    overlay = std::make_unique<MdtOverlay>(*net, mc);
    overlay->attach();
  }

  void start_sequential() {
    for (int u = 0; u < net->size(); ++u)
      overlay->activate(u, topo.positions[static_cast<std::size_t>(u)], u == 0);
    for (int u = 1; u < net->size(); ++u) {
      sim.schedule_at(0.1 * u, [this, u] { overlay->start_join(u); });
    }
    // Sequential joins retry at ~2-3 s granularity when the predecessor has
    // not announced yet, so the tail node needs a couple of retry windows of
    // slack per hop on top of the 10 s base.
    sim.run_until(10.0 + 3.0 * net->size());
  }
};

TEST(ProtocolInternals, LineJoinsEndToEnd) {
  Line line(10);
  line.start_sequential();
  for (int u = 0; u < 10; ++u) EXPECT_TRUE(line.overlay->joined(u)) << u;
  // The DT of a (jittered) collinear point set must at least contain every
  // consecutive pair; near-degenerate slivers may add a few long edges.
  auto has = [&](int u, int v) {
    const auto nbrs = line.overlay->dt_neighbors(u);
    return std::find(nbrs.begin(), nbrs.end(), v) != nbrs.end();
  };
  for (int i = 0; i + 1 < 10; ++i) {
    EXPECT_TRUE(has(i, i + 1)) << i;
    EXPECT_TRUE(has(i + 1, i)) << i;
  }
}

TEST(ProtocolInternals, HelloAnnouncesJoinedState) {
  Line line(4);
  line.overlay->activate(0, line.topo.positions[0], /*first=*/true);
  line.overlay->activate(1, line.topo.positions[1], false);
  line.sim.run_until(1.0);
  // Node 1 heard node 0's activation Hello (joined = true), triggered its
  // own join through node 0, completed it, and announced -- so by now each
  // side records the other as joined.
  auto it = line.overlay->phys_info(1).find(0);
  ASSERT_NE(it, line.overlay->phys_info(1).end());
  EXPECT_TRUE(it->second.joined);
  EXPECT_TRUE(line.overlay->joined(1));
  auto it2 = line.overlay->phys_info(0).find(1);
  ASSERT_NE(it2, line.overlay->phys_info(0).end());
  EXPECT_TRUE(it2->second.joined);
}

TEST(ProtocolInternals, NeighborViewsExposeLinkCosts) {
  Line line(5);
  line.start_sequential();
  bool saw1 = false, saw3 = false;
  line.overlay->for_each_neighbor(2, [&](const NeighborView& v) {
    if (v.id == 1 || v.id == 3) {
      EXPECT_TRUE(v.is_phys);
      EXPECT_DOUBLE_EQ(v.cost, 1.0);
      (v.id == 1 ? saw1 : saw3) = true;
    } else {
      // Sliver DT edges on the near-collinear line are multi-hop neighbors
      // with real (>= 2) path costs.
      EXPECT_FALSE(v.is_phys);
      EXPECT_GE(v.cost, 2.0);
    }
  });
  EXPECT_TRUE(saw1);
  EXPECT_TRUE(saw3);
}

TEST(ProtocolInternals, InactiveNodesDropProtocolMessages) {
  Line line(4);
  line.overlay->activate(0, line.topo.positions[0], true);
  // Node 1 never activates. A join request sent its way must die silently
  // (no crash, no state change) and node 0 stays the only joined node.
  line.overlay->activate(2, line.topo.positions[2], false);
  line.overlay->start_join(2);  // seed is node 1 or 3; both inactive/unknown
  line.sim.run_until(5.0);
  EXPECT_FALSE(line.overlay->joined(2));
}

TEST(ProtocolInternals, SetPositionPushesToPhysNeighbors) {
  Line line(4);
  line.start_sequential();
  line.overlay->set_position(1, Vec{42.0, 7.0}, 0.25);
  line.sim.run_until(line.sim.now() + 1.0);
  for (int nbr : {0, 2}) {
    auto it = line.overlay->phys_info(nbr).find(1);
    ASSERT_NE(it, line.overlay->phys_info(nbr).end());
    EXPECT_EQ(it->second.pos, (Vec{42.0, 7.0}));
    EXPECT_DOUBLE_EQ(it->second.err, 0.25);
  }
}

TEST(ProtocolInternals, DistinctNodesStoredOnLine) {
  Line line(8);
  line.start_sequential();
  // Interior nodes store at least their 2 physical neighbors, plus whatever
  // sliver DT edges the near-collinear geometry produces -- always fewer
  // than the whole network.
  EXPECT_GE(line.overlay->distinct_nodes_stored(4), 2);
  EXPECT_LT(line.overlay->distinct_nodes_stored(4), 8);
  EXPECT_GE(line.overlay->distinct_nodes_stored(0), 1);
}

TEST(ProtocolInternals, MessagesAreCountedPerHop) {
  Line line(3);
  const auto before = line.net->total_messages_sent();
  line.start_sequential();
  const auto after = line.net->total_messages_sent();
  EXPECT_GT(after, before + 4);  // hellos + joins at minimum
}

TEST(ProtocolInternals, DeactivateIsIdempotent) {
  Line line(5);
  line.start_sequential();
  line.overlay->deactivate(2);
  line.overlay->deactivate(2);
  EXPECT_FALSE(line.overlay->active(2));
  // The line is now split; survivors keep running without crashing.
  line.sim.run_until(line.sim.now() + 20.0);
  EXPECT_TRUE(line.overlay->joined(0));
  EXPECT_TRUE(line.overlay->joined(4));
}

TEST(ProtocolInternals, RejoinAfterFailure) {
  Line line(5);
  line.start_sequential();
  line.overlay->deactivate(2);
  line.sim.run_until(line.sim.now() + 5.0);
  // Node 2 comes back with a fresh position and rejoins through neighbors.
  line.net->set_alive(2, true);
  line.overlay->activate(2, Vec{2.0, 0.1}, false);
  line.overlay->start_join(2);
  line.sim.run_until(line.sim.now() + 15.0);
  EXPECT_TRUE(line.overlay->joined(2));
}

// Star topology: hub 0 at origin, leaves around it. DT neighbors of leaves
// include other leaves (through the hub: multi-hop virtual links).
struct Star {
  static constexpr int kLeaves = 6;
  radio::Topology topo;
  sim::Simulator sim;
  std::unique_ptr<Net> net;
  std::unique_ptr<MdtOverlay> overlay;

  Star() {
    graph::GraphBuilder gb(kLeaves + 1);
    topo.positions.push_back(Vec{0.0, 0.0});
    for (int i = 0; i < kLeaves; ++i) {
      const double angle = 2.0 * 3.14159265358979 * i / kLeaves;
      topo.positions.push_back(Vec{std::cos(angle), std::sin(angle)});
      gb.add_bidirectional(0, i + 1, 1.0, 1.0);
    }
    topo.etx = gb.build();
    topo.hops = topo.etx.with_unit_costs();
    net = std::make_unique<Net>(sim, topo.etx, 0.001, 0.01, 2);
    MdtConfig mc;
    mc.dim = 2;
    overlay = std::make_unique<MdtOverlay>(*net, mc);
    overlay->attach();
    for (int u = 0; u <= kLeaves; ++u)
      overlay->activate(u, topo.positions[static_cast<std::size_t>(u)], u == 0);
    for (int u = 1; u <= kLeaves; ++u)
      sim.schedule_at(0.1 * u, [this, u] { overlay->start_join(u); });
    sim.run_until(15.0);
    // Run one maintenance round to settle mutual syncs.
    for (int u = 0; u <= kLeaves; ++u) overlay->run_maintenance_round(u);
    sim.run_until(25.0);
  }
};

TEST(ProtocolInternals, StarCreatesMultiHopVirtualLinks) {
  Star star;
  int virtual_links = 0;
  for (int u = 1; u <= Star::kLeaves; ++u) {
    star.overlay->for_each_neighbor(u, [&](const NeighborView& v) {
      if (v.is_phys || !v.is_dt) return;
      ++virtual_links;
      // The only physical route between leaves goes through the hub.
      const auto& path = star.overlay->virtual_path(u, v.id);
      ASSERT_EQ(path.size(), 3u);
      EXPECT_EQ(path[1], 0);
      EXPECT_DOUBLE_EQ(v.cost, 2.0);  // two unit links
    });
  }
  EXPECT_GT(virtual_links, 0);
}

// A side x side unit grid with 4-adjacency, unit link costs. Unlike the
// (collinear, hence DT-degenerate) Line, positions are in general position
// after jitter, so a quiescent network reaches a fully cached steady state.
struct GridNet {
  radio::Topology topo;
  sim::Simulator sim;
  std::unique_ptr<Net> net;
  std::unique_ptr<MdtOverlay> overlay;
  int n = 0;

  explicit GridNet(int side) : n(side * side) {
    graph::GraphBuilder gb(n);
    for (int r = 0; r < side; ++r)
      for (int c = 0; c < side; ++c)
        topo.positions.push_back(Vec{static_cast<double>(c), static_cast<double>(r)});
    for (int r = 0; r < side; ++r)
      for (int c = 0; c < side; ++c) {
        const int u = r * side + c;
        if (c + 1 < side) gb.add_bidirectional(u, u + 1, 1.0, 1.0);
        if (r + 1 < side) gb.add_bidirectional(u, u + side, 1.0, 1.0);
      }
    topo.etx = gb.build();
    topo.hops = topo.etx.with_unit_costs();
    net = std::make_unique<Net>(sim, topo.etx, 0.001, 0.01, 1);
    MdtConfig mc;
    mc.dim = 2;
    overlay = std::make_unique<MdtOverlay>(*net, mc);
    overlay->attach();
    for (int u = 0; u < n; ++u)
      overlay->activate(u, topo.positions[static_cast<std::size_t>(u)], u == 0);
    for (int u = 1; u < n; ++u) sim.schedule_at(0.1 * u, [this, u] { overlay->start_join(u); });
    sim.run_until(10.0 + n);
  }

  void maintenance_rounds(int rounds) {
    for (int round = 0; round < rounds; ++round) {
      for (int u = 0; u < n; ++u) overlay->run_maintenance_round(u);
      sim.run_until(sim.now() + 5.0);
    }
  }
};

TEST(ProtocolInternals, RecomputeMemoizationOnQuiescentNetwork) {
  // recompute() hands its input -- the positions of {u} + P_u + C_u -- to
  // the node's live DT, which only does work when the input changed: once
  // the network is quiescent the inputs stop changing, so local DT updates
  // stop; moving a node changes exactly the inputs that contain it.
  GridNet grid(3);
  grid.maintenance_rounds(8);  // settle: syncs re-teach candidates for a while

  const MdtOverlay::RecomputeStats before = grid.overlay->recompute_stats();
  grid.maintenance_rounds(6);
  const MdtOverlay::RecomputeStats mid = grid.overlay->recompute_stats();
  const std::uint64_t calls = mid.calls - before.calls;
  const std::uint64_t rebuilds = mid.rebuilds - before.rebuilds;
  ASSERT_GT(calls, 0u);
  // Quiescent rounds must (almost) never change the input: <= 10%.
  EXPECT_LE(rebuilds * 10, calls) << rebuilds << " rebuilds in " << calls << " calls";

  // An actual position change reaches the neighbors' inputs and forces real
  // DT updates again.
  Vec moved = grid.topo.positions[4];
  moved[1] += 0.6;
  grid.overlay->set_position(4, moved, 0.1);
  grid.sim.run_until(grid.sim.now() + 2.0);
  grid.maintenance_rounds(1);
  const MdtOverlay::RecomputeStats after = grid.overlay->recompute_stats();
  EXPECT_GT(after.rebuilds, mid.rebuilds);
}

TEST(ProtocolInternals, RecomputeSteadyStateOnRandomTopology) {
  // The static-network steady state. Under live VPoD most recomputes see a
  // changed input, because every adjustment tick moves positions. With
  // positions frozen (no VPoD, overlay driven directly), maintenance rounds
  // must almost never change a node's input. A random radio topology rather
  // than a hand-crafted grid: realistic degrees (~14) and general-position
  // coordinates, like the benchmark's network.
  radio::TopologyConfig tc;
  tc.n = 60;
  tc.seed = 4242;
  tc.target_avg_degree = 14.5;
  const radio::Topology topo = radio::make_random_topology(tc);
  const int n = topo.size();
  ASSERT_GE(n, 30);

  sim::Simulator sim;
  Net net(sim, topo.etx, 0.001, 0.01, 1);
  MdtConfig mc;
  mc.dim = 2;
  MdtOverlay overlay(net, mc);
  overlay.attach();
  for (int u = 0; u < n; ++u)
    overlay.activate(u, topo.positions[static_cast<std::size_t>(u)], u == 0);
  for (int u = 1; u < n; ++u) sim.schedule_at(0.1 * u, [&, u] { overlay.start_join(u); });
  sim.run_until(10.0 + n);
  for (int u = 0; u < n; ++u) ASSERT_TRUE(overlay.joined(u)) << u;

  const auto rounds = [&](int count) {
    for (int round = 0; round < count; ++round) {
      for (int u = 0; u < n; ++u) overlay.run_maintenance_round(u);
      sim.run_until(sim.now() + 5.0);
    }
  };
  rounds(8);  // settle: pair syncs stop teaching new candidates

  const MdtOverlay::RecomputeStats before = overlay.recompute_stats();
  rounds(6);
  const MdtOverlay::RecomputeStats after = overlay.recompute_stats();
  const std::uint64_t calls = after.calls - before.calls;
  const std::uint64_t rebuilds = after.rebuilds - before.rebuilds;
  ASSERT_GT(calls, 0u);
  EXPECT_LE(rebuilds * 10, calls) << rebuilds << " rebuilds in " << calls << " calls";
}

TEST(ProtocolInternals, StaleIncarnationMessageCannotMutateNewLife) {
  // The incarnation-reconciliation property: a message carrying state from a
  // node's incarnation k must never mutate what a receiver records about
  // incarnation k+1 -- even if the stale message claims an arbitrarily high
  // pos_version (ordering is lexicographic on (incarnation, pos_version)).
  Line line(4);
  line.start_sequential();
  const std::uint32_t old_inc = line.net->incarnation(2);

  // Node 2 crashes and rejoins: the link layer bumps its incarnation.
  line.overlay->deactivate(2);
  line.sim.run_until(line.sim.now() + 2.0);
  line.net->set_alive(2, true);
  line.overlay->activate(2, Vec{2.0, 0.2}, false);
  line.overlay->start_join(2);
  line.sim.run_until(line.sim.now() + 15.0);
  ASSERT_TRUE(line.overlay->joined(2));
  ASSERT_EQ(line.net->incarnation(2), old_inc + 1);
  auto rec = line.overlay->phys_info(1).find(2);
  ASSERT_NE(rec, line.overlay->phys_info(1).end());
  ASSERT_EQ(rec->second.incarnation, old_inc + 1);
  const Vec fresh_pos = rec->second.pos;

  // A position update from the dead incarnation arrives late (e.g. it was in
  // flight across a long virtual link when node 2 crashed). It must be
  // dropped outright, whatever pos_version it advertises.
  Envelope stale;
  stale.kind = Kind::kPosUpdate;
  stale.origin = 2;
  stale.target = 1;
  stale.origin_info =
      NodeInfo{2, Vec{99.0, 99.0}, 0.5, true, /*pos_version=*/1u << 30, old_inc};
  const std::uint64_t dropped_before = line.overlay->fd_stats().stale_incarnation_dropped;
  line.overlay->handle(1, 2, std::move(stale));
  EXPECT_EQ(line.overlay->phys_info(1).at(2).pos, fresh_pos);
  EXPECT_EQ(line.overlay->phys_info(1).at(2).incarnation, old_inc + 1);
  EXPECT_EQ(line.overlay->fd_stats().stale_incarnation_dropped, dropped_before + 1);

  // The same stale info smuggled in as second-hand gossip (a neighbor-set
  // reply payload) must lose the lexicographic freshness race too.
  Envelope gossip;
  gossip.kind = Kind::kNbrSetReply;
  gossip.origin = 0;
  gossip.target = 1;
  gossip.origin_info = line.overlay->phys_info(1).at(0);
  gossip.origin_info.incarnation = line.net->incarnation(0);
  gossip.nbr_infos.push_back(
      NodeInfo{2, Vec{99.0, 99.0}, 0.5, true, /*pos_version=*/1u << 30, old_inc});
  line.overlay->handle(1, 0, std::move(gossip));
  line.sim.run_until(line.sim.now() + 2.0);
  line.overlay->for_each_neighbor(1, [&](const NeighborView& v) {
    if (v.id == 2) {
      EXPECT_EQ(v.pos, fresh_pos);
    }
  });
}

TEST(ProtocolInternals, FirstHandContactWinsFreshnessTies) {
  // Equal (incarnation, pos_version) names an equal position, but a node's
  // error can change without a new version. A message straight from the
  // node carries its current error and wins the tie; a third party's gossip
  // at the same version may carry an older error and must lose it.
  Star star;
  const auto stored_err = [&](NodeId u, NodeId y) {
    double err = -1.0;
    star.overlay->for_each_neighbor(u, [&](const NeighborView& v) {
      if (v.id == y && !v.is_phys) err = v.err;
    });
    return err;
  };
  // Leaves 1 and 2 are adjacent on the hull: multi-hop DT neighbors,
  // linked through the hub.
  ASSERT_DOUBLE_EQ(stored_err(1, 2), 1.0);
  const NodeInfo advertised = star.overlay->phys_info(0).at(2);

  Envelope update;
  update.kind = Kind::kPosUpdate;
  update.origin = 2;
  update.target = 1;
  update.origin_info = advertised;
  update.origin_info.err = 0.125;
  update.route = {2, 0, 1};
  update.route_idx = 1;  // the hub relayed it
  star.overlay->handle(1, 0, std::move(update));
  EXPECT_DOUBLE_EQ(stored_err(1, 2), 0.125);

  Envelope reply;
  reply.kind = Kind::kNbrSetReply;
  reply.origin = 0;
  reply.target = 1;
  reply.origin_info = star.overlay->phys_info(1).at(0);
  reply.route = {0, 1};
  reply.nbr_infos.push_back(advertised);
  reply.nbr_infos.back().err = 0.5;
  star.overlay->handle(1, 0, std::move(reply));
  EXPECT_DOUBLE_EQ(stored_err(1, 2), 0.125);
}

TEST(ProtocolInternals, ReplyRouteSurvivesMergingUnseenNeighbors) {
  // The replier records the requester, merges the request's neighbor set
  // into C_u and replies along u + the reversed trail. Merging inserts into
  // C_u, so the route must not be read through a reference taken before the
  // merge. Here C_u starts empty and the gossiped ids sort below the
  // requester's, so every merge shifts or reallocates the requester's entry.
  Line line(8);
  for (int u = 0; u < 8; ++u)
    line.overlay->activate(u, line.topo.positions[static_cast<std::size_t>(u)]);
  line.sim.run_until(1.0);  // Hellos only: no node is joined, no C_u has entries
  ASSERT_TRUE(line.overlay->candidate_ids(3).empty());

  std::vector<Envelope> replies;
  line.net->set_receiver([&](NodeId to, NodeId from, Envelope&& m) {
    if (m.kind == Kind::kNbrSetReply && to == m.target) replies.push_back(m);
    line.overlay->handle(to, from, std::move(m));
  });

  Envelope req;
  req.kind = Kind::kNbrSetRequest;
  req.origin = 7;
  req.target = 3;
  req.target_pos = line.overlay->position(3);
  req.origin_info = NodeInfo{7, line.overlay->position(7), 1.0, true, 1, line.net->incarnation(7)};
  req.visited = {7, 6, 5, 4};
  for (NodeId id : {0, 1, 2})
    req.nbr_infos.push_back(
        NodeInfo{id, line.overlay->position(id), 1.0, true, 1, line.net->incarnation(id)});
  line.overlay->handle(3, 4, std::move(req));
  // Long enough for four hops, short of the replier's recompute (0.7 s),
  // whose own syncs would add replies and candidates.
  line.sim.run_until(line.sim.now() + 0.3);

  EXPECT_EQ(line.overlay->candidate_ids(3), (std::vector<NodeId>{0, 1, 2, 7}));
  const std::vector<NodeId> route{3, 4, 5, 6, 7};
  EXPECT_EQ(line.overlay->virtual_path(3, 7), route);
  ASSERT_EQ(replies.size(), 1u);
  EXPECT_EQ(replies[0].origin, 3);
  EXPECT_EQ(replies[0].target, 7);
  EXPECT_EQ(replies[0].route, route);
}

// The order contract of the exchange: a neighbor-set payload is one
// id-ascending list holding exactly P_u and the members of N_u \ P_u that
// have a C_u record, so the receiver folds it into C_u in one walk.
TEST(ProtocolInternals, NeighborSetPayloadsAreIdAscendingNeighborSets) {
  GridNet grid(4);
  grid.maintenance_rounds(6);  // settle: N_u and P_u stop changing
  MdtOverlay& overlay = *grid.overlay;
  int payloads = 0, multi_hop_members = 0;
  grid.net->set_receiver([&](NodeId to, NodeId from, Envelope&& m) {
    if (m.kind == Kind::kNbrSetRequest || m.kind == Kind::kNbrSetReply) {
      const NodeId u = m.origin;
      std::vector<NodeId> expected;
      for (const auto& [id, info] : overlay.phys_info(u)) expected.push_back(id);
      const std::vector<NodeId> cand = overlay.candidate_ids(u);
      for (NodeId y : overlay.dt_neighbors(u)) {
        if (overlay.phys_info(u).count(y) == 0 &&
            std::binary_search(cand.begin(), cand.end(), y)) {
          expected.push_back(y);
          ++multi_hop_members;
        }
      }
      std::sort(expected.begin(), expected.end());
      std::vector<NodeId> ids;
      for (const NodeInfo& info : m.nbr_infos) {
        EXPECT_TRUE(ids.empty() || ids.back() < info.id) << "from " << u << ": " << info.id;
        ids.push_back(info.id);
        if (const auto phys = overlay.phys_info(u).find(info.id);
            phys != overlay.phys_info(u).end()) {
          EXPECT_EQ(info.pos, phys->second.pos) << u << " sends " << info.id;
          EXPECT_EQ(info.pos_version, phys->second.pos_version) << u << " sends " << info.id;
        }
      }
      EXPECT_EQ(ids, expected) << "payload of " << u;
      ++payloads;
    }
    overlay.handle(to, from, std::move(m));
  });
  grid.maintenance_rounds(1);
  EXPECT_GT(payloads, 0);
  EXPECT_GT(multi_hop_members, 0);  // N_u \ P_u is not empty everywhere
}

// A crafted reply whose payload interleaves ids C_u lacks with ids it
// holds, and also carries the receiver itself, a tombstoned id at its
// evicted incarnation, and known ids at a fresher and at a staler version.
TEST(ProtocolInternals, NeighborSetMergeFoldsAnInterleavedPayload) {
  Star star;
  MdtOverlay& overlay = *star.overlay;
  const NodeId u = 1;
  // Leaf 1 is linked to the hub; its ring neighbors 2 and 6 are multi-hop
  // DT neighbors through it. The other leaves are in C_1 second hand, from
  // the hub's last request.
  ASSERT_EQ(overlay.dt_neighbors(u), (std::vector<NodeId>{0, 2, 6}));
  ASSERT_EQ(overlay.candidate_ids(u), (std::vector<NodeId>{0, 2, 3, 4, 5, 6}));
  // Evicting leaf 3 leaves a tombstone at the incarnation C_1 held for it,
  // and the recompute that follows prunes leaves 4 and 5.
  overlay.evict_for_test(u, 3);
  star.sim.run_until(star.sim.now() + 1.0);
  ASSERT_EQ(overlay.candidate_ids(u), (std::vector<NodeId>{0, 2, 6}));

  const auto advertised = [&](NodeId id) { return overlay.phys_info(0).at(id); };
  const auto reply_from_hub = [&](std::vector<NodeInfo> payload) {
    Envelope reply;
    reply.kind = Kind::kNbrSetReply;
    reply.origin = 0;
    reply.target = u;
    reply.origin_info = overlay.phys_info(u).at(0);
    reply.route = {0, u};
    reply.nbr_infos = std::move(payload);
    overlay.handle(u, 0, std::move(reply));
  };
  NodeInfo fresher = advertised(2);
  fresher.pos[0] += 0.25;
  fresher.pos_version += 1;
  NodeInfo staler = advertised(6);
  ASSERT_GE(staler.pos_version, 1u);
  const Vec held6 = staler.pos;
  staler.pos[0] += 0.25;
  staler.pos_version -= 1;
  const std::uint64_t suppressed = overlay.fd_stats().gossip_suppressed;
  reply_from_hub({advertised(1), fresher, advertised(3), advertised(4), advertised(5), staler});

  // 4 and 5 join C_1 between the records it held; 1 is u and 3 tombstoned.
  EXPECT_EQ(overlay.candidate_ids(u), (std::vector<NodeId>{0, 2, 4, 5, 6}));
  EXPECT_EQ(overlay.fd_stats().gossip_suppressed, suppressed + 1);
  std::map<NodeId, Vec> stored;
  overlay.for_each_neighbor(u, [&](const NeighborView& v) { stored.emplace(v.id, v.pos); });
  EXPECT_EQ(stored.at(2), fresher.pos);  // strictly fresher gossip is adopted
  EXPECT_EQ(stored.at(6), held6);        // staler gossip is not

  // u's own next payload shows the versions its records hold, in id order.
  std::vector<NodeInfo> sent;
  star.net->set_receiver([&](NodeId to, NodeId from, Envelope&& m) {
    if (m.kind == Kind::kNbrSetReply && m.origin == u) sent = m.nbr_infos;
    overlay.handle(to, from, std::move(m));
  });
  Envelope req;
  req.kind = Kind::kNbrSetRequest;
  req.origin = 0;
  req.target = u;
  req.target_pos = overlay.position(u);
  req.origin_info = overlay.phys_info(u).at(0);
  req.visited = {0};
  overlay.handle(u, 0, std::move(req));
  star.sim.run_until(star.sim.now() + 0.05);
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_EQ(sent[0].id, 0);
  EXPECT_EQ(sent[1].id, 2);
  EXPECT_EQ(sent[1].pos_version, fresher.pos_version);
  EXPECT_EQ(sent[2].id, 6);
  EXPECT_EQ(sent[2].pos_version, staler.pos_version + 1);
}

TEST(ProtocolInternalsDeathTest, NeighborSetMergeRejectsAnUnorderedPayload) {
  Star star;
  Envelope reply;
  reply.kind = Kind::kNbrSetReply;
  reply.origin = 0;
  reply.target = 1;
  reply.origin_info = star.overlay->phys_info(1).at(0);
  reply.route = {0, 1};
  reply.nbr_infos = {star.overlay->phys_info(0).at(3), star.overlay->phys_info(0).at(2)};
  EXPECT_DEATH(star.overlay->handle(1, 0, std::move(reply)), "not strictly id-ascending");
}

TEST(ProtocolInternals, SetPositionSameValueKeepsVersion) {
  // pos_version names the position *value*: re-announcing an identical
  // position must not bump the version, and leaves every neighbor's local
  // DT input unchanged.
  Line line(4);
  line.start_sequential();
  const auto settle = [&] {
    for (int u = 0; u < 4; ++u) line.overlay->run_maintenance_round(u);
    line.sim.run_until(line.sim.now() + 5.0);
  };
  settle();
  const MdtOverlay::RecomputeStats base = line.overlay->recompute_stats();
  line.overlay->set_position(2, line.overlay->position(2), 0.1);
  settle();
  const MdtOverlay::RecomputeStats same = line.overlay->recompute_stats();
  EXPECT_EQ(same.rebuilds, base.rebuilds);
}

}  // namespace
}  // namespace gdvr::mdt
