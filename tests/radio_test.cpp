// Tests for the lossy link model, obstacles, and topology generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "radio/link_model.hpp"
#include "radio/topology.hpp"

namespace gdvr::radio {
namespace {

TEST(LinkModel, PathLossMonotoneInDistance) {
  LinkModelParams p;
  double prev = path_loss_db(p, 1.0);
  for (double d = 2.0; d < 200.0; d *= 1.5) {
    const double pl = path_loss_db(p, d);
    EXPECT_GT(pl, prev);
    prev = pl;
  }
}

TEST(LinkModel, PrrMonotoneInSnr) {
  LinkModelParams p;
  double prev = 0.0;
  for (double snr = -5.0; snr <= 30.0; snr += 1.0) {
    const double r = prr_from_snr_db(p, snr);
    EXPECT_GE(r, prev);
    EXPECT_GE(r, 0.0);
    EXPECT_LE(r, 1.0);
    prev = r;
  }
  EXPECT_GT(prr_from_snr_db(p, 30.0), 0.99);
  EXPECT_LT(prr_from_snr_db(p, -5.0), 0.01);
}

TEST(LinkModel, TransitionalRegionExists) {
  // There must be distances where PRR is neither ~0 nor ~1 (the lossy links
  // that make ETX interesting). The deterministic curve has a narrow
  // transitional band...
  LinkModelParams p;
  int transitional = 0;
  for (double d = 1.0; d < 60.0; d += 0.05) {
    const double r = prr(p, d, 0.0, 0.0, 0.0);
    if (r > 0.1 && r < 0.9) ++transitional;
  }
  EXPECT_GE(transitional, 3);
  // ...and log-normal shadowing widens it substantially: with random shadow
  // draws, a sizable fraction of admitted links (PRR > 0.1) must be lossy.
  Rng rng(2);
  int admitted = 0, lossy = 0;
  for (int i = 0; i < 5000; ++i) {
    const double d = rng.uniform(1.0, 40.0);
    const double r = prr(p, d, rng.normal(0.0, p.shadow_sigma_db), 0.0, 0.0);
    if (r > 0.1) {
      ++admitted;
      if (r < 0.9) ++lossy;
    }
  }
  ASSERT_GT(admitted, 100);
  EXPECT_GT(static_cast<double>(lossy) / admitted, 0.1);
}

TEST(LinkModel, MaxLinkDistanceIsSafeBound) {
  LinkModelParams p;
  const double d_max = max_link_distance(p, 0.1);
  EXPECT_GT(d_max, 1.0);
  // Even with a very lucky draw (-4 sigma shadow, +3 sigma hardware), beyond
  // d_max the PRR must not exceed the threshold.
  const double margin = 4.0 * p.shadow_sigma_db + 3.0 * (p.tx_power_var_db + p.noise_var_db);
  const double snr = p.tx_power_dbm + margin - path_loss_db(p, d_max * 1.01) - p.noise_floor_dbm;
  EXPECT_LE(prr_from_snr_db(p, snr), 0.1 + 1e-6);
}

// ---------- obstacles ----------

TEST(Obstacle, ContainsAndBlocks) {
  const Obstacle o{10, 10, 20, 20};
  EXPECT_TRUE(o.contains(Vec{15, 15}));
  EXPECT_TRUE(o.contains(Vec{10, 10}));  // boundary counts
  EXPECT_FALSE(o.contains(Vec{9.9, 15}));
  // Segment passing straight through.
  EXPECT_TRUE(o.blocks(Vec{0, 15}, Vec{30, 15}));
  // Segment ending inside.
  EXPECT_TRUE(o.blocks(Vec{0, 0}, Vec{15, 15}));
  // Segment to the side.
  EXPECT_FALSE(o.blocks(Vec{0, 0}, Vec{30, 0}));
  EXPECT_FALSE(o.blocks(Vec{0, 25}, Vec{30, 25}));
  // Diagonal clipping a corner.
  EXPECT_TRUE(o.blocks(Vec{5, 15}, Vec{15, 25}));
  // Diagonal just missing the corner.
  EXPECT_FALSE(o.blocks(Vec{0, 29}, Vec{29, 29}));
}

TEST(Obstacle, RandomObstaclesInsideArea) {
  Rng rng(3);
  const auto obs = random_obstacles(10, 10.0, 100.0, 80.0, rng);
  ASSERT_EQ(obs.size(), 10u);
  for (const Obstacle& o : obs) {
    EXPECT_GE(o.x0, 0.0);
    EXPECT_LE(o.x1, 100.0);
    EXPECT_GE(o.y0, 0.0);
    EXPECT_LE(o.y1, 80.0);
    EXPECT_NEAR(o.x1 - o.x0, 10.0, 1e-12);
    EXPECT_NEAR(o.y1 - o.y0, 10.0, 1e-12);
  }
}

// ---------- topology generation ----------

TEST(Topology, DeterministicForSeed) {
  TopologyConfig c;
  c.n = 80;
  c.seed = 11;
  const Topology a = make_random_topology(c);
  const Topology b = make_random_topology(c);
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i)
    EXPECT_EQ(a.positions[static_cast<std::size_t>(i)], b.positions[static_cast<std::size_t>(i)]);
  EXPECT_EQ(a.etx.edge_count(), b.etx.edge_count());
}

TEST(Topology, EtxAtLeastOneAndMatchesAdjacency) {
  TopologyConfig c;
  c.n = 100;
  c.seed = 5;
  const Topology t = make_random_topology(c);
  for (int u = 0; u < t.size(); ++u) {
    EXPECT_EQ(t.etx.degree(u), t.hops.degree(u));
    for (const graph::Edge& e : t.etx.neighbors(u)) {
      EXPECT_GE(e.cost, 1.0);       // ETX = 1/PRR >= 1
      EXPECT_LE(e.cost, 1.0 / 0.1 + 1e-9);  // PRR > 0.1 admission
      EXPECT_TRUE(t.etx.has_edge(e.to, u));  // links bidirectional
    }
  }
}

TEST(Topology, EtxIsAsymmetric) {
  TopologyConfig c;
  c.n = 120;
  c.seed = 8;
  const Topology t = make_random_topology(c);
  int asymmetric = 0, total = 0;
  for (int u = 0; u < t.size(); ++u)
    for (const graph::Edge& e : t.etx.neighbors(u)) {
      if (u > e.to) continue;
      ++total;
      if (std::fabs(e.cost - t.etx.link_cost(e.to, u)) > 1e-9) ++asymmetric;
    }
  ASSERT_GT(total, 0);
  EXPECT_GT(asymmetric, total / 2);  // hardware variance makes most links asymmetric
}

TEST(Topology, LargestComponentIsConnected) {
  TopologyConfig c;
  c.n = 100;
  c.seed = 21;
  const Topology t = make_random_topology(c);
  const auto hops = graph::bfs_hops(t.hops, 0);
  for (int h : hops) EXPECT_GE(h, 0);
}

TEST(Topology, DegreeCalibrationHitsTarget) {
  TopologyConfig c;
  c.n = 200;
  c.seed = 7;
  c.target_avg_degree = 14.5;
  const Topology t = make_random_topology(c);
  EXPECT_NEAR(t.etx.average_degree(), 14.5, 2.0);
}

TEST(Topology, ObstaclesBlockLinksAndPlacement) {
  TopologyConfig c;
  c.n = 150;
  c.seed = 9;
  c.num_obstacles = 4;
  c.obstacle_size_m = 10.0;
  const Topology t = make_random_topology(c);
  ASSERT_EQ(t.obstacles.size(), 4u);
  for (const Vec& p : t.positions)
    for (const Obstacle& o : t.obstacles) EXPECT_FALSE(o.contains(p));
  for (int u = 0; u < t.size(); ++u)
    for (const graph::Edge& e : t.etx.neighbors(u))
      for (const Obstacle& o : t.obstacles)
        EXPECT_FALSE(o.blocks(t.positions[static_cast<std::size_t>(u)],
                              t.positions[static_cast<std::size_t>(e.to)]));
}

TEST(Topology, GridShape) {
  const Topology g = make_grid(11, 11, 1.0);
  EXPECT_EQ(g.size(), 121);
  // Interior nodes have 4 neighbors; corners 2; edges 3.
  EXPECT_EQ(g.hops.degree(0), 2);       // corner
  EXPECT_EQ(g.hops.degree(5), 3);       // top edge
  EXPECT_EQ(g.hops.degree(5 * 11 + 5), 4);  // center
  // All grid links are ideal.
  for (const graph::Edge& e : g.etx.neighbors(60)) EXPECT_DOUBLE_EQ(e.cost, 1.0);
}

TEST(Topology, GridDiagonalFactor) {
  const Topology g = make_grid(5, 5, 2.0, 1.5);
  // factor 1.5 x spacing includes diagonals: interior degree 8.
  EXPECT_EQ(g.hops.degree(2 * 5 + 2), 8);
}

TEST(Topology, ScalingKeepsDensity) {
  // The paper scales the area with N to keep average degree at 14.5.
  TopologyConfig c;
  c.seed = 13;
  c.target_avg_degree = 14.5;
  for (int n : {100, 400}) {
    c.n = n;
    const double scale = std::sqrt(n / 200.0);
    c.width_m = 100.0 * scale;
    c.height_m = 100.0 * scale;
    const Topology t = make_random_topology(c);
    EXPECT_NEAR(t.etx.average_degree(), 14.5, 2.5) << "n=" << n;
  }
}

TEST(Topology, CalibrationPinnedBitForBit) {
  // calibrate_tx_power counts the links of one placement per sample; these
  // literals are what it returned when it still built every sample topology
  // in full, so the shortcut must not move a bit.
  const auto calibrate = [](int n, std::uint64_t seed, int space_dim, int obstacles) {
    TopologyConfig c;
    c.n = n;
    c.seed = seed;
    c.space_dim = space_dim;
    c.num_obstacles = obstacles;
    const double scale = std::sqrt(n / 200.0);
    c.width_m = 100.0 * scale;
    c.height_m = 100.0 * scale;
    return calibrate_tx_power(c, 14.5);
  };
  EXPECT_EQ(calibrate(48, 3, 2, 0), -0x1.6a2434p-1);
  EXPECT_EQ(calibrate(100, 7, 3, 0), 0x1.8cc1128p+2);
  EXPECT_EQ(calibrate(200, 42, 2, 4), -0x1.c89492p+0);
}

// ---------- spatial-grid scan vs a geometric oracle ----------

namespace {

// Full structural equality of two metric graphs: same adjacency order, same
// costs bit for bit.
void expect_same_graph(const graph::Graph& a, const graph::Graph& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (int u = 0; u < a.size(); ++u) {
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size()) << what << " node " << u;
    for (std::size_t k = 0; k < na.size(); ++k) {
      EXPECT_EQ(na[k].to, nb[k].to) << what << " node " << u;
      EXPECT_EQ(na[k].cost, nb[k].cost) << what << " node " << u << " -> " << na[k].to;
    }
  }
}

// With shadowing and hardware variance off, a link is pure geometry: a pair
// is linked iff it is closer than the radius R at which prr() falls to the
// admission threshold and no obstacle blocks its line of sight. The oracle
// shares no code with the generator: it bisects the link model's prr() for R
// and checks every ordered pair of the returned topology (its largest
// component keeps every link among its nodes). Pairs within 1e-9 R of R are
// skipped, where the generator's linear-domain compare and prr()'s dB chain
// may round apart. The grid's cell size and range follow R, so each target
// degree sweeps a different grid shape.
void expect_links_match_geometry(TopologyConfig c) {
  c.radio.shadow_sigma_db = 0.0;
  c.radio.tx_power_var_db = 0.0;
  c.radio.noise_var_db = 0.0;
  for (const std::uint64_t seed : {1ull, 7ull, 42ull})
    for (const double degree : {6.0, 14.5, 30.0}) {
      c.seed = seed;
      c.target_avg_degree = degree;
      const Topology t = make_random_topology(c);
      const auto linked = [&](double d) {
        return prr(t.radio, d, 0.0, 0.0, 0.0) > c.prr_threshold;
      };
      double lo = t.radio.ref_distance_m, hi = 2.0 * lo;
      ASSERT_TRUE(linked(lo));
      while (linked(hi)) hi *= 2.0;
      for (int i = 0; i < 200; ++i) {
        const double mid = 0.5 * (lo + hi);
        (linked(mid) ? lo : hi) = mid;
      }
      const double radius = hi;

      int mismatches = 0, checked = 0;
      for (int u = 0; u < t.size(); ++u) {
        const auto run = t.etx.neighbors(u);
        for (std::size_t k = 1; k < run.size(); ++k)
          EXPECT_LT(run[k - 1].to, run[k].to) << "node " << u << " run not ascending";
        for (const graph::Graph* g : {&t.hops, &t.ett, &t.energy}) {
          ASSERT_EQ(g->degree(u), t.etx.degree(u));
          for (std::size_t k = 0; k < run.size(); ++k)
            EXPECT_EQ(g->neighbors(u)[k].to, run[k].to) << "node " << u;
        }
        const Vec& a = t.positions[static_cast<std::size_t>(u)];
        for (int v = 0; v < t.size(); ++v) {
          const Vec& b = t.positions[static_cast<std::size_t>(v)];
          const double d = a.distance(b);
          if (u == v || std::fabs(d - radius) < 1e-9 * radius) continue;
          const bool blocked = std::any_of(t.obstacles.begin(), t.obstacles.end(),
                                           [&](const Obstacle& o) { return o.blocks(a, b); });
          ++checked;
          if (t.etx.has_edge(u, v) != (d < radius && !blocked)) ++mismatches;
        }
      }
      EXPECT_GT(checked, 0);
      EXPECT_EQ(mismatches, 0) << "seed " << seed << ", degree " << degree << ": " << mismatches
                               << " of " << checked << " pairs disagree with R = " << radius;
    }
}

}  // namespace

TEST(Topology, GridScanMatchesAllPairsAcrossSeeds) {
  TopologyConfig c;
  c.n = 200;
  expect_links_match_geometry(c);
}

TEST(Topology, GridScanMatchesAllPairsIn3d) {
  TopologyConfig c;
  c.n = 200;
  c.space_dim = 3;
  expect_links_match_geometry(c);
}

TEST(Topology, GridScanMatchesAllPairsWithObstacles) {
  TopologyConfig c;
  c.n = 200;
  c.num_obstacles = 4;
  expect_links_match_geometry(c);
}

TEST(Topology, GridScanThreadCountInvariant) {
  // The parallel grid sweep must be bit-identical to a sequential one: chunk
  // boundaries are fixed and per-pair randomness is enumeration-order-free.
  TopologyConfig c;
  c.n = 200;
  c.seed = 17;

  const char* saved = std::getenv("GDVR_THREADS");
  const std::string saved_copy = saved ? saved : "";
  setenv("GDVR_THREADS", "1", 1);
  const Topology seq = make_random_topology(c);
  setenv("GDVR_THREADS", "4", 1);
  const Topology par = make_random_topology(c);
  if (saved)
    setenv("GDVR_THREADS", saved_copy.c_str(), 1);
  else
    unsetenv("GDVR_THREADS");

  ASSERT_EQ(seq.size(), par.size());
  for (int i = 0; i < seq.size(); ++i)
    EXPECT_EQ(seq.positions[static_cast<std::size_t>(i)],
              par.positions[static_cast<std::size_t>(i)]);
  expect_same_graph(seq.etx, par.etx, "etx");
  expect_same_graph(seq.hops, par.hops, "hops");
  expect_same_graph(seq.ett, par.ett, "ett");
  expect_same_graph(seq.energy, par.energy, "energy");
}

}  // namespace
}  // namespace gdvr::radio
