// Tests for the live GDV data plane: packets forwarded through the DES with
// per-node local state.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>
#include <stdexcept>

#include "eval/routing_eval.hpp"
#include "radio/topology.hpp"
#include "vpod/live_gdv.hpp"

namespace gdvr::vpod {
namespace {

struct LiveFixture {
  radio::Topology topo;
  sim::Simulator sim;
  std::unique_ptr<mdt::Net> net;
  std::unique_ptr<Vpod> vpod;
  std::unique_ptr<LiveGdv> gdv;

  LiveFixture(int n, std::uint64_t seed, bool use_etx, int settle_periods) {
    radio::TopologyConfig tc;
    tc.n = n;
    tc.seed = seed;
    tc.target_avg_degree = 14.5;
    topo = radio::make_random_topology(tc);
    net = std::make_unique<mdt::Net>(sim, topo.metric_graph(use_etx), 0.01, 0.1, seed);
    VpodConfig vc;
    vc.dim = 3;
    vpod = std::make_unique<Vpod>(*net, vc);
    vpod->start(0);
    gdv = std::make_unique<LiveGdv>(*net, *vpod);  // takes over the receiver
    const double period = vc.join_period_s + vc.adjust_period_s;
    sim.run_until(0.5 + vc.join_period_s + settle_periods * period);
  }
};

TEST(LiveGdv, DeliversAfterConvergence) {
  LiveFixture f(80, 3, /*use_etx=*/true, /*settle_periods=*/10);
  Rng rng(1);
  for (int i = 0; i < 150; ++i) {
    const int s = rng.uniform_index(f.topo.size());
    int t = rng.uniform_index(f.topo.size() - 1);
    if (t >= s) ++t;
    f.gdv->send_packet(s, t);
  }
  f.sim.run_until(f.sim.now() + 30.0);
  EXPECT_GE(f.gdv->delivery_rate(), 0.98);
  EXPECT_GT(f.gdv->mean_delivered_cost(), 1.0);
}

TEST(LiveGdv, LiveCostsMatchOfflineEvaluation) {
  // The offline evaluator snapshots global state; the live plane uses each
  // node's own state. After convergence the two must agree closely.
  LiveFixture f(80, 5, true, 10);
  const auto view = routing::snapshot_overlay(f.vpod->overlay(), f.topo.etx);
  Rng rng(2);
  double live_sum = 0.0, offline_sum = 0.0;
  int counted = 0;
  std::vector<double> offline_costs;
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 120; ++i) {
    const int s = rng.uniform_index(f.topo.size());
    int t = rng.uniform_index(f.topo.size() - 1);
    if (t >= s) ++t;
    const auto offline = routing::route_gdv(view, s, t);
    if (!offline.success) continue;
    offline_costs.push_back(offline.cost);
    ids.push_back(f.gdv->send_packet(s, t));
  }
  f.sim.run_until(f.sim.now() + 30.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& d = f.gdv->status(ids[i]);
    if (!d.delivered) continue;
    live_sum += d.cost;
    offline_sum += offline_costs[i];
    ++counted;
  }
  ASSERT_GT(counted, 100);
  // Mean live cost within 15% of mean offline cost (positions drift only a
  // little between the snapshot and the packets' flight).
  EXPECT_NEAR(live_sum / counted, offline_sum / counted, 0.15 * (offline_sum / counted));
}

TEST(LiveGdv, DeliveryImprovesWithConvergence) {
  auto rate_at = [](int settle) {
    LiveFixture f(80, 7, false, settle);
    Rng rng(3);
    for (int i = 0; i < 100; ++i) {
      const int s = rng.uniform_index(f.topo.size());
      int t = rng.uniform_index(f.topo.size() - 1);
      if (t >= s) ++t;
      f.gdv->send_packet(s, t);
    }
    f.sim.run_until(f.sim.now() + 30.0);
    return f.gdv->delivery_rate();
  };
  const double late = rate_at(10);
  EXPECT_GE(late, 0.95);
}

// A link that a fault took down (set_link_up, a partition) must not win the
// DV step while it is still in P_u, i.e. until the next refresh drops it:
// the packet leaves over another link and is delivered, instead of being
// handed to a send the link layer refuses and silently lost.
TEST(LiveGdv, DownedLinkIsNeverTheNextHop) {
  LiveFixture f(80, 3, /*use_etx=*/true, /*settle_periods=*/10);
  const auto& overlay = f.vpod->overlay();
  Rng rng(8);
  int checked = 0;
  for (int trial = 0; trial < 200 && checked < 10; ++trial) {
    const int s = rng.uniform_index(f.topo.size());
    int t = rng.uniform_index(f.topo.size() - 1);
    if (t >= s) ++t;
    // s's DV-best next hop toward t (Fig. 7, lines 1-3).
    const Vec& tpos = overlay.position(t);
    NodeId best = -1;
    bool best_phys = false;
    double best_r = graph::kInf;
    overlay.for_each_neighbor(s, [&](const mdt::NeighborView& v) {
      if (!f.net->alive(v.id)) return;
      const double r = v.cost + v.pos.distance(tpos);
      if (r < best_r) {
        best_r = r;
        best = v.id;
        best_phys = v.is_phys;
      }
    });
    // With the target itself behind the downed link, s can be a greedy local
    // minimum, GDV's own limit rather than a lost send.
    if (!best_phys || best == t || !(best_r < overlay.position(s).distance(tpos))) continue;
    f.net->set_link_up(s, best, false);
    const std::uint64_t sent = f.net->messages_sent(s);
    const auto id = f.gdv->send_packet(s, t);
    EXPECT_EQ(f.net->messages_sent(s), sent + 1) << s << " -> " << t << " never left";
    f.sim.run_until(f.sim.now() + 5.0);
    EXPECT_TRUE(f.gdv->status(id).delivered) << s << " -> " << t << " via " << best << " down";
    f.net->set_link_up(s, best, true);
    ++checked;
  }
  EXPECT_EQ(checked, 10);
}

// Once a recompute's refresh drops b, whose link from s went down, from
// P_s, b can stay in N_s with the C_s record recompute gave it: a virtual
// link {s, b} over the downed link. The DV step must screen a virtual
// link's first hop like a physical one, or the packet is handed to a send
// the link layer refuses and silently lost.
TEST(LiveGdv, VirtualLinkOverDownedFirstHopIsNeverTheNextHop) {
  LiveFixture f(80, 3, /*use_etx=*/true, /*settle_periods=*/10);
  auto& overlay = f.vpod->overlay();
  // s's DV-best view toward t over what the link layer still carries
  // (Fig. 7, lines 1-3, before any first-hop screen).
  const auto dv_best = [&](NodeId s, NodeId t) {
    const Vec& tpos = overlay.position(t);
    std::optional<mdt::NeighborView> best;
    double best_r = graph::kInf;
    overlay.for_each_neighbor(s, [&](const mdt::NeighborView& v) {
      if (!f.net->alive(v.id) || (v.is_phys && !f.net->link_up(s, v.id))) return;
      const double r = v.cost + v.pos.distance(tpos);
      if (r < best_r) {
        best_r = r;
        best.emplace(v);
      }
    });
    return std::make_pair(best, best_r);
  };
  Rng rng(8);
  int checked = 0, over_downed_link = 0;
  for (int trial = 0; trial < 200 && checked < 10; ++trial) {
    const int s = rng.uniform_index(f.topo.size());
    int t = rng.uniform_index(f.topo.size() - 1);
    if (t >= s) ++t;
    const auto [best, best_r] = dv_best(s, t);
    if (!best || !best->is_phys || best->id == t ||
        !(best_r < overlay.position(s).distance(overlay.position(t))))
      continue;
    const NodeId b = best->id;
    f.net->set_link_up(s, b, false);
    overlay.force_resync(s);  // its recompute drops b from P_s
    f.sim.run_until(f.sim.now() + 0.8);
    ++checked;
    const auto [after, after_r] = dv_best(s, t);
    if (after && after->id == b && after->path == std::vector<NodeId>{s, b}) {
      ++over_downed_link;
      const std::uint64_t sent = f.net->messages_sent(s);
      const auto id = f.gdv->send_packet(s, t);
      EXPECT_EQ(f.net->messages_sent(s), sent + 1) << s << " -> " << t << " never left";
      f.sim.run_until(f.sim.now() + 5.0);
      EXPECT_TRUE(f.gdv->status(id).delivered) << s << " -> " << t << " via " << b << " down";
    }
    f.net->set_link_up(s, b, true);
  }
  EXPECT_EQ(checked, 10);
  EXPECT_GT(over_downed_link, 0);
}

TEST(LiveGdv, PacketsToSelfDeliverTrivially) {
  LiveFixture f(40, 9, true, 6);
  // s == t: our API still routes; the first forward sees u == target only
  // after a hop, so send to a direct neighbor instead as the trivial case.
  const int s = 0;
  int nbr = -1;
  f.net->for_each_alive_neighbor(s, [&](const graph::Edge& e) {
    if (nbr < 0) nbr = e.to;
  });
  ASSERT_GE(nbr, 0);
  const auto id = f.gdv->send_packet(s, nbr);
  f.sim.run_until(f.sim.now() + 10.0);
  EXPECT_TRUE(f.gdv->status(id).delivered);
  EXPECT_GE(f.gdv->status(id).transmissions, 1);
}

// route_gdv(view, s, s) succeeds with 0 transmissions; the live plane must
// agree instead of finding no neighbor closer than distance 0.
TEST(LiveGdv, PacketToSelfIsDeliveredAtTheSource) {
  LiveFixture f(40, 9, true, 6);
  const std::uint64_t before = f.net->total_messages_sent();
  const double now = f.sim.now();
  const auto id = f.gdv->send_packet(5, 5);
  const LiveGdv::Delivery& d = f.gdv->status(id);
  EXPECT_TRUE(d.delivered);
  EXPECT_EQ(d.transmissions, 0);
  EXPECT_EQ(d.cost, 0.0);
  EXPECT_EQ(d.sent_at, now);
  EXPECT_EQ(d.delivered_at, d.sent_at);
  EXPECT_EQ(f.net->total_messages_sent(), before);
  const auto view = routing::snapshot_overlay(f.vpod->overlay(), f.topo.etx);
  const auto offline = routing::route_gdv(view, 5, 5);
  EXPECT_TRUE(offline.success);
  EXPECT_EQ(offline.transmissions, d.transmissions);
  EXPECT_EQ(offline.cost, d.cost);
}

// Ids are dense from 1; anything else is unknown.
TEST(LiveGdv, StatusOfAnUnknownIdThrows) {
  LiveFixture f(40, 9, true, 0);
  EXPECT_THROW(f.gdv->status(0), std::out_of_range);
  EXPECT_THROW(f.gdv->status(1), std::out_of_range);
  const auto id = f.gdv->send_packet(0, 1);
  EXPECT_EQ(id, 1u);
  EXPECT_NO_THROW(f.gdv->status(id));
  EXPECT_THROW(f.gdv->status(id + 1), std::out_of_range);
}

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

void fnv(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv(h, bits);
}

// Pins the live data plane bit for bit: a seeded open-loop run of a few
// thousand packets during the first adjustment period, while positions are
// still moving and some packets hit local minima, digested per packet. Any
// change to a forwarding decision, a tie-break, a send's RNG draws or the
// ledger's bookkeeping moves the digest.
TEST(LiveGdv, SeededRunLedgerDigestIsPinned) {
  LiveFixture f(64, 21, /*use_etx=*/true, /*settle_periods=*/0);
  Rng rng(6);
  const int n = f.topo.size();
  const int total = 3000;
  const double t0 = f.sim.now();
  const double rate = 300.0;  // packets per simulated second
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < total; ++i) {
    const int s = rng.uniform_index(n);
    int t = rng.uniform_index(n - 1);
    if (t >= s) ++t;
    f.sim.schedule_at(t0 + i / rate,
                      [&f, &ids, s, t] { ids.push_back(f.gdv->send_packet(s, t)); });
  }
  f.sim.run_until(t0 + total / rate + 30.0);
  ASSERT_EQ(ids.size(), static_cast<std::size_t>(total));

  std::uint64_t h = 14695981039346656037ull;
  int delivered = 0;
  for (std::uint64_t id : ids) {
    const LiveGdv::Delivery& d = f.gdv->status(id);
    fnv(h, static_cast<std::uint64_t>(d.delivered));
    fnv(h, static_cast<std::uint64_t>(d.transmissions));
    fnv(h, d.delivered_at);
    if (d.delivered) {
      fnv(h, d.cost);
      ++delivered;
    }
  }
  fnv(h, f.net->total_messages_sent());
  EXPECT_GE(delivered, total * 8 / 10);
  EXPECT_LT(delivered, total);  // the drop path is part of what is pinned
  EXPECT_EQ(h, 4554728118148610366ull) << "delivered " << delivered << " of " << total;
}

TEST(LiveGdv, SurvivesMidFlightChurn) {
  LiveFixture f(100, 11, true, 8);
  Rng rng(4);
  // Inject packets, then immediately kill 10 nodes: in-flight packets whose
  // next hops die are lost, but the system must not crash and later packets
  // must route around.
  for (int i = 0; i < 60; ++i) {
    const int s = rng.uniform_index(f.topo.size());
    int t = rng.uniform_index(f.topo.size() - 1);
    if (t >= s) ++t;
    f.gdv->send_packet(s, t);
  }
  for (int k = 0; k < 10; ++k) f.vpod->fail_node(1 + rng.uniform_index(f.topo.size() - 1));
  f.sim.run_until(f.sim.now() + 60.0);
  // Most packets still deliver (only those crossing dead nodes mid-flight
  // or addressed to dead nodes are lost).
  EXPECT_GE(f.gdv->delivery_rate(), 0.6);
}

}  // namespace
}  // namespace gdvr::vpod
