// Tests for d-dimensional predicates and the incremental Delaunay
// triangulation, validated against an independent brute-force oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "common/rng.hpp"
#include "geom/brute_force.hpp"
#include "geom/delaunay.hpp"
#include "geom/local_delaunay.hpp"
#include "geom/predicates.hpp"

namespace gdvr::geom {
namespace {

std::vector<Vec> random_points(int n, int dim, std::uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  std::vector<Vec> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vec p(dim);
    for (int c = 0; c < dim; ++c) p[c] = rng.uniform(0.0, scale);
    pts.push_back(p);
  }
  return pts;
}

// ---------- predicates ----------

TEST(Predicates, Orient2D) {
  const Vec a{0, 0}, b{1, 0}, c{0, 1};
  EXPECT_GT(orient(std::vector<Vec>{a, b, c}), 0.0);
  EXPECT_LT(orient(std::vector<Vec>{a, c, b}), 0.0);
  const Vec d{2, 0};
  EXPECT_DOUBLE_EQ(orient(std::vector<Vec>{a, b, d}), 0.0);
}

TEST(Predicates, Orient3D) {
  const Vec a{0, 0, 0}, b{1, 0, 0}, c{0, 1, 0}, d{0, 0, 1};
  const double o1 = orient(std::vector<Vec>{a, b, c, d});
  const double o2 = orient(std::vector<Vec>{a, c, b, d});
  EXPECT_LT(o1 * o2, 0.0);  // swapping two vertices flips the sign
  EXPECT_NE(o1 > 0, o2 > 0);
  const Vec coplanar{0.5, 0.5, 0};
  EXPECT_DOUBLE_EQ(orient(std::vector<Vec>{a, b, c, coplanar}), 0.0);
}

TEST(Predicates, InSphere2DUnitCircle) {
  // Circumcircle of this triangle is the unit circle.
  const Vec a{1, 0}, b{-1, 0}, c{0, 1};
  const std::vector<Vec> tri{a, b, c};
  EXPECT_GT(in_sphere(tri, Vec{0, 0}), 0.0);
  EXPECT_GT(in_sphere(tri, Vec{0.5, -0.5}), 0.0);
  EXPECT_LT(in_sphere(tri, Vec{2, 0}), 0.0);
  EXPECT_LT(in_sphere(tri, Vec{0, -1.001}), 0.0);
  EXPECT_NEAR(in_sphere(tri, Vec{0, -1}), 0.0, 1e-12);
}

TEST(Predicates, InSphereOrientationIndependent) {
  const Vec a{1, 0}, b{-1, 0}, c{0, 1};
  const Vec q{0.1, 0.2};
  const double s1 = in_sphere(std::vector<Vec>{a, b, c}, q);
  const double s2 = in_sphere(std::vector<Vec>{a, c, b}, q);
  EXPECT_GT(s1, 0.0);
  EXPECT_GT(s2, 0.0);
  EXPECT_NEAR(s1, s2, 1e-12);
}

TEST(Predicates, InSphereMatchesCircumsphereDistance) {
  // Property: sign(in_sphere) == sign(r^2 - |q - center|^2) for random simplices.
  for (int dim = 2; dim <= 4; ++dim) {
    Rng rng(77u + static_cast<std::uint64_t>(dim));
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<Vec> simplex;
      for (int i = 0; i <= dim; ++i) {
        Vec p(dim);
        for (int c = 0; c < dim; ++c) p[c] = rng.uniform(-1.0, 1.0);
        simplex.push_back(p);
      }
      Vec center;
      double r2 = 0.0;
      if (!circumsphere(simplex, center, r2)) continue;
      Vec q(dim);
      for (int c = 0; c < dim; ++c) q[c] = rng.uniform(-2.0, 2.0);
      const double margin = r2 - q.distance2(center);
      if (std::fabs(margin) < 1e-9 * r2) continue;  // too close to the sphere
      const double pred = in_sphere(simplex, q);
      EXPECT_EQ(pred > 0.0, margin > 0.0)
          << "dim=" << dim << " trial=" << trial << " margin=" << margin << " pred=" << pred;
    }
  }
}

TEST(Predicates, CircumsphereEquidistant) {
  Rng rng(123);
  for (int dim = 2; dim <= 5; ++dim) {
    std::vector<Vec> simplex;
    for (int i = 0; i <= dim; ++i) {
      Vec p(dim);
      for (int c = 0; c < dim; ++c) p[c] = rng.uniform(0.0, 10.0);
      simplex.push_back(p);
    }
    Vec center;
    double r2 = 0.0;
    ASSERT_TRUE(circumsphere(simplex, center, r2));
    for (const Vec& p : simplex) EXPECT_NEAR(p.distance2(center), r2, 1e-6 * (1.0 + r2));
  }
}

TEST(Predicates, DegenerateSimplexRejected) {
  // Collinear "triangle" has no circumcircle.
  const std::vector<Vec> collinear{Vec{0, 0}, Vec{1, 1}, Vec{2, 2}};
  Vec center;
  double r2 = 0.0;
  EXPECT_FALSE(circumsphere(collinear, center, r2));
}

TEST(Predicates, LargestSupportedDimension) {
  // d = 12 is the largest dimension the triangulation accepts: the origin
  // and the unit vectors span a simplex whose circumsphere has center
  // (1/2, ..., 1/2) and squared radius 12/4.
  constexpr int kDim = 12;
  std::vector<Vec> simplex{Vec::zero(kDim)};
  for (int i = 0; i < kDim; ++i) {
    Vec e = Vec::zero(kDim);
    e[i] = 1.0;
    simplex.push_back(e);
  }
  EXPECT_NE(orient(simplex), 0.0);
  Vec center;
  double r2 = 0.0;
  ASSERT_TRUE(circumsphere(simplex, center, r2));
  EXPECT_NEAR(r2, 3.0, 1e-12);
  Vec outside = Vec::zero(kDim);
  outside[0] = -1.0;
  EXPECT_GT(in_sphere(simplex, center), 0.0);
  EXPECT_LT(in_sphere(simplex, outside), 0.0);
}

TEST(Predicates, DeterminantKnownValues) {
  std::vector<std::vector<double>> m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(determinant_inplace(m), -2.0);
  std::vector<std::vector<double>> id{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  EXPECT_DOUBLE_EQ(determinant_inplace(id), 1.0);
  std::vector<std::vector<double>> sing{{1, 2, 3}, {2, 4, 6}, {1, 1, 1}};
  EXPECT_DOUBLE_EQ(determinant_inplace(sing), 0.0);
}

// ---------- triangulation vs oracle ----------

struct DtCase {
  int n;
  int dim;
  std::uint64_t seed;
};

class DelaunayOracleTest : public ::testing::TestWithParam<DtCase> {};

TEST_P(DelaunayOracleTest, MatchesBruteForce) {
  const auto [n, dim, seed] = GetParam();
  const auto pts = random_points(n, dim, seed);
  const DelaunayGraph dt = delaunay_graph(pts);
  ASSERT_FALSE(dt.complete_graph_fallback);
  const auto oracle = brute_force_delaunay_edges(pts);
  EXPECT_EQ(dt.edges, oracle) << "n=" << n << " dim=" << dim << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DelaunayOracleTest,
    ::testing::Values(DtCase{5, 2, 1}, DtCase{10, 2, 2}, DtCase{20, 2, 3}, DtCase{35, 2, 4},
                      DtCase{35, 2, 5}, DtCase{6, 3, 6}, DtCase{12, 3, 7}, DtCase{20, 3, 8},
                      DtCase{25, 3, 9}, DtCase{8, 4, 10}, DtCase{14, 4, 11}, DtCase{18, 4, 12},
                      DtCase{20, 2, 13}, DtCase{20, 3, 14}, DtCase{16, 4, 15}));

TEST(Delaunay, EmptyCircumsphereProperty) {
  for (int dim = 2; dim <= 4; ++dim) {
    const auto pts = random_points(40, dim, 99u + static_cast<std::uint64_t>(dim));
    Triangulation t;
    ASSERT_TRUE(t.build(pts));
    EXPECT_TRUE(t.empty_circumsphere_property()) << "dim=" << dim;
  }
}

TEST(Delaunay, GridPointsNeedJitter) {
  // A perfect grid is maximally degenerate (co-circular quadruples); the
  // built-in jitter must still produce a valid triangulation.
  std::vector<Vec> pts;
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c) pts.push_back(Vec{static_cast<double>(c), static_cast<double>(r)});
  const DelaunayGraph dt = delaunay_graph(pts);
  EXPECT_FALSE(dt.complete_graph_fallback);
  // All 60 grid edges must be Delaunay edges (they are the shortest pairs).
  for (int r = 0; r < 6; ++r)
    for (int c = 0; c < 6; ++c) {
      const int u = r * 6 + c;
      if (c + 1 < 6) {
        EXPECT_TRUE(dt.has_edge(u, u + 1));
      }
      if (r + 1 < 6) {
        EXPECT_TRUE(dt.has_edge(u, u + 6));
      }
    }
}

TEST(Delaunay, EdgeCountsPlausible2D) {
  // Euler's formula: a 2D Delaunay triangulation of n points with h hull
  // points has 3n - 3 - h edges; so between 2n-3 and 3n-6 for n >= 3.
  for (std::uint64_t seed = 20; seed < 30; ++seed) {
    const int n = 60;
    const auto pts = random_points(n, 2, seed);
    const DelaunayGraph dt = delaunay_graph(pts);
    ASSERT_FALSE(dt.complete_graph_fallback);
    EXPECT_GE(static_cast<int>(dt.edges.size()), 2 * n - 3);
    EXPECT_LE(static_cast<int>(dt.edges.size()), 3 * n - 6);
  }
}

TEST(Delaunay, ConnectedGraph) {
  // DT of any point set is connected.
  for (int dim = 2; dim <= 4; ++dim) {
    const auto pts = random_points(50, dim, 400u + static_cast<std::uint64_t>(dim));
    const DelaunayGraph dt = delaunay_graph(pts);
    std::vector<char> seen(pts.size(), 0);
    std::vector<int> stack{0};
    seen[0] = 1;
    while (!stack.empty()) {
      const int u = stack.back();
      stack.pop_back();
      for (int v : dt.nbrs[static_cast<std::size_t>(u)])
        if (!seen[static_cast<std::size_t>(v)]) {
          seen[static_cast<std::size_t>(v)] = 1;
          stack.push_back(v);
        }
    }
    EXPECT_TRUE(std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; }));
  }
}

TEST(Delaunay, SmallInputs) {
  // n <= dim+1 points: complete graph, no fallback flag.
  const auto pts = random_points(3, 3, 1);
  const DelaunayGraph dt = delaunay_graph(pts);
  EXPECT_FALSE(dt.complete_graph_fallback);
  EXPECT_EQ(dt.edges.size(), 3u);

  const auto one = random_points(1, 2, 1);
  EXPECT_TRUE(delaunay_graph(one).edges.empty());
  EXPECT_TRUE(delaunay_graph(std::vector<Vec>{}).edges.empty());
}

TEST(Delaunay, DegenerateCollinearFallsBack) {
  std::vector<Vec> pts;
  for (int i = 0; i < 8; ++i) pts.push_back(Vec{static_cast<double>(i), 2.0 * i});
  const DelaunayGraph dt = delaunay_graph(pts);
  // Perfectly collinear input has affine rank 1 < 2. Jitter may rescue it or
  // the build falls back to the complete graph; either way every consecutive
  // pair must be connected (they are Delaunay neighbors of the jittered set).
  for (int i = 0; i + 1 < 8; ++i) EXPECT_TRUE(dt.has_edge(i, i + 1));
}

TEST(Delaunay, CoincidentPointsSurvive) {
  std::vector<Vec> pts = random_points(10, 2, 5);
  pts.push_back(pts[0]);  // exact duplicate
  pts.push_back(pts[3]);
  const DelaunayGraph dt = delaunay_graph(pts);
  EXPECT_EQ(static_cast<int>(dt.nbrs.size()), 12);
  // Duplicates must be adjacent to their twin (nearest neighbor is always a
  // DT neighbor).
  EXPECT_TRUE(dt.has_edge(0, 10));
  EXPECT_TRUE(dt.has_edge(3, 11));
}

TEST(Delaunay, DeterministicAcrossRuns) {
  const auto pts = random_points(30, 3, 42);
  const DelaunayGraph a = delaunay_graph(pts);
  const DelaunayGraph b = delaunay_graph(pts);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(Delaunay, NearestNeighborIsAlwaysDTNeighbor) {
  // Classic property: each point's nearest neighbor is a Delaunay neighbor.
  for (int dim = 2; dim <= 4; ++dim) {
    const auto pts = random_points(40, dim, 700u + static_cast<std::uint64_t>(dim));
    const DelaunayGraph dt = delaunay_graph(pts);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      int nn = -1;
      double best = 1e300;
      for (std::size_t j = 0; j < pts.size(); ++j) {
        if (i == j) continue;
        const double d = pts[i].distance2(pts[j]);
        if (d < best) {
          best = d;
          nn = static_cast<int>(j);
        }
      }
      EXPECT_TRUE(dt.has_edge(static_cast<int>(i), nn)) << "dim=" << dim << " i=" << i;
    }
  }
}

// ---------- walk kernel vs original linear-scan kernel ----------
//
// The hint-seeded visibility walk replaced the exhaustive per-insert conflict
// scan; these tests pin the two kernels against each other (and, where small
// enough, against the brute-force oracle) on random and adversarial inputs.

std::pair<DelaunayGraph, DelaunayGraph> both_kernels(std::span<const Vec> pts,
                                                     DelaunayOptions opts = {}) {
  opts.force_linear_scan = false;
  const DelaunayGraph walk = delaunay_graph(pts, opts);
  opts.force_linear_scan = true;
  const DelaunayGraph linear = delaunay_graph(pts, opts);
  return {walk, linear};
}

TEST(DelaunayWalk, MatchesLinearScanRandom) {
  for (int dim = 2; dim <= 4; ++dim) {
    for (int n : {10, 40, 120}) {
      const auto pts =
          random_points(n, dim, 9000u + static_cast<std::uint64_t>(dim) * 31 +
                                    static_cast<std::uint64_t>(n));
      const auto [walk, linear] = both_kernels(pts);
      EXPECT_EQ(walk.complete_graph_fallback, linear.complete_graph_fallback)
          << "dim=" << dim << " n=" << n;
      EXPECT_EQ(walk.edges, linear.edges) << "dim=" << dim << " n=" << n;
    }
  }
}

TEST(DelaunayWalk, MatchesLinearScanAndOracleSmall) {
  // Small enough for the O(n^(d+2)) oracle: all three implementations agree.
  for (int dim = 2; dim <= 4; ++dim) {
    const auto pts = random_points(14, dim, 7100u + static_cast<std::uint64_t>(dim));
    const auto [walk, linear] = both_kernels(pts);
    ASSERT_FALSE(walk.complete_graph_fallback);
    const auto oracle = brute_force_delaunay_edges(pts);
    EXPECT_EQ(walk.edges, oracle) << "dim=" << dim;
    EXPECT_EQ(linear.edges, oracle) << "dim=" << dim;
  }
}

TEST(DelaunayWalk, MatchesLinearScanCosphericalGrid) {
  // Perfect grids are maximally degenerate (co-circular / co-spherical
  // quadruples everywhere), so every insertion lands on a jittered
  // near-tie -- the worst case for a walk that reasons about conflict signs.
  std::vector<Vec> grid2;
  for (int r = 0; r < 7; ++r)
    for (int c = 0; c < 7; ++c)
      grid2.push_back(Vec{static_cast<double>(c), static_cast<double>(r)});
  std::vector<Vec> grid3;
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      for (int z = 0; z < 4; ++z)
        grid3.push_back(Vec{static_cast<double>(x), static_cast<double>(y),
                            static_cast<double>(z)});
  {
    const auto [walk, linear] = both_kernels(grid2);
    EXPECT_EQ(walk.complete_graph_fallback, linear.complete_graph_fallback);
    EXPECT_EQ(walk.edges, linear.edges);
  }
  // In 3D the default 1e-9 jitter leaves some in-sphere values below the
  // floating-point noise floor. There neither kernel is a reliable DT (the
  // original exhaustive scan included -- it can collect conflict cells
  // disconnected, in the inexact arithmetic, from the seed's region and
  // still pass the cavity-consistency check), so exact equivalence is
  // asserted with a jitter large enough to make every predicate decisive,
  // and under the default jitter only like-for-like behavior is required:
  // both kernels build without hitting the complete-graph fallback.
  {
    DelaunayOptions decisive;
    decisive.jitter_rel = 1e-6;
    const auto [walk, linear] = both_kernels(grid3, decisive);
    ASSERT_FALSE(walk.complete_graph_fallback);
    EXPECT_EQ(walk.edges, linear.edges);
  }
  {
    const auto [walk, linear] = both_kernels(grid3);
    EXPECT_EQ(walk.complete_graph_fallback, linear.complete_graph_fallback);
  }
}

TEST(DelaunayWalk, MatchesLinearScanNearDuplicates) {
  // Clusters of points 1e-13 apart: conflict regions collapse to slivers and
  // the walk must still terminate and agree with the exhaustive scan.
  for (int dim = 2; dim <= 3; ++dim) {
    auto pts = random_points(20, dim, 8200u + static_cast<std::uint64_t>(dim));
    const std::size_t base = pts.size();
    for (std::size_t i = 0; i < 6; ++i) {
      Vec p = pts[i];
      p[static_cast<int>(i) % dim] += 1e-13;
      pts.push_back(p);
    }
    ASSERT_EQ(pts.size(), base + 6);
    const auto [walk, linear] = both_kernels(pts);
    EXPECT_EQ(walk.complete_graph_fallback, linear.complete_graph_fallback) << "dim=" << dim;
    EXPECT_EQ(walk.edges, linear.edges) << "dim=" << dim;
  }
}

TEST(DelaunayWalk, MatchesLinearScanThroughJitterRetry) {
  // A grid with an absurdly small initial jitter forces the build through the
  // retry path (jitter grows 1000x per attempt); both kernels must walk the
  // same retry sequence and land on the same graph.
  std::vector<Vec> pts;
  for (int r = 0; r < 5; ++r)
    for (int c = 0; c < 5; ++c)
      pts.push_back(Vec{static_cast<double>(c), static_cast<double>(r)});
  DelaunayOptions opts;
  opts.jitter_rel = 1e-18;
  const auto [walk, linear] = both_kernels(pts, opts);
  EXPECT_EQ(walk.complete_graph_fallback, linear.complete_graph_fallback);
  EXPECT_EQ(walk.edges, linear.edges);
}

TEST(DelaunayWalk, TriangulationEdgeSetsAgreeAcrossLocateModes) {
  // Same point set through the Triangulation class directly, once per locate
  // mode: identical finite edge sets and both satisfy the empty-circumsphere
  // property.
  for (int dim = 2; dim <= 4; ++dim) {
    const auto pts = random_points(60, dim, 6400u + static_cast<std::uint64_t>(dim));
    Triangulation walk;
    walk.set_locate_mode(Triangulation::LocateMode::kWalk);
    ASSERT_TRUE(walk.build(pts));
    Triangulation linear;
    linear.set_locate_mode(Triangulation::LocateMode::kLinearScan);
    ASSERT_TRUE(linear.build(pts));
    EXPECT_EQ(walk.finite_edges(), linear.finite_edges()) << "dim=" << dim;
    EXPECT_TRUE(walk.empty_circumsphere_property()) << "dim=" << dim;
  }
}

TEST(DelaunayWalk, LocateConflictAgreesWithLinearOnConflictExistence) {
  // locate_conflict must find *a* conflicting cell exactly when the
  // exhaustive scan finds one (the specific cell may differ; the Bowyer-
  // Watson flood regionalizes from any seed).
  const auto pts = random_points(80, 2, 3300);
  Triangulation tri;
  ASSERT_TRUE(tri.build(pts));
  Triangulation ref;
  ref.set_locate_mode(Triangulation::LocateMode::kLinearScan);
  ASSERT_TRUE(ref.build(pts));
  const auto queries = random_points(200, 2, 3301, /*scale=*/1.4);  // some outside the hull
  for (const Vec& q : queries) {
    const int a = tri.locate_conflict(q);
    const int b = ref.locate_conflict(q);
    EXPECT_EQ(a >= 0, b >= 0);
    if (a >= 0) {
      EXPECT_TRUE(tri.cells()[static_cast<std::size_t>(a)].alive);
    }
  }
}

// ---------- local DT: one center's star ----------
//
// Triangulation::star_neighbors() computes one point's Delaunay neighbors
// from its star alone. The oracle is delaunay_graph() over bit-identical
// coordinates (its own jitter switched off): every point of each set takes a
// turn as the center, hull points and outliers included.

// Deterministic test-side jitter, so degenerate inputs reach both
// implementations already in general position.
std::vector<Vec> jittered(std::vector<Vec> pts, double mag, std::uint64_t seed) {
  Rng rng(seed);
  for (Vec& p : pts)
    for (int c = 0; c < p.dim(); ++c) p[c] += rng.uniform(-mag, mag);
  return pts;
}

void expect_stars_match_graph(std::span<const Vec> pts, const std::string& where) {
  DelaunayOptions as_given;
  as_given.jitter_rel = 0.0;
  const DelaunayGraph g = delaunay_graph(pts, as_given);
  ASSERT_FALSE(g.complete_graph_fallback) << where;
  Triangulation tri;
  std::vector<int> nbrs;
  for (int c = 0; c < static_cast<int>(pts.size()); ++c) {
    ASSERT_TRUE(tri.star_neighbors(pts, c, nbrs)) << where << " center=" << c;
    EXPECT_EQ(nbrs, g.nbrs[static_cast<std::size_t>(c)]) << where << " center=" << c;
  }
}

TEST(LocalDelaunayStar, MatchesGraphRandom) {
  for (int dim = 2; dim <= 4; ++dim)
    for (int n : {dim + 2, 12, 40})
      for (std::uint64_t seed : {1u, 2u, 3u}) {
        const auto pts =
            random_points(n, dim, 12000u + seed * 97 + static_cast<std::uint64_t>(dim * n));
        expect_stars_match_graph(pts, "random dim=" + std::to_string(dim) + " n=" +
                                          std::to_string(n) + " seed=" + std::to_string(seed));
      }
}

TEST(LocalDelaunayStar, MatchesGraphHullCenters) {
  // Box corners and far outliers: centers whose stars stay open (infinite
  // cells) until the last point, and interior points whose stars close early.
  for (int dim = 2; dim <= 4; ++dim) {
    auto pts = random_points(30, dim, 12500u + static_cast<std::uint64_t>(dim));
    for (int corner = 0; corner < (1 << dim); ++corner) {
      Vec p(dim);
      for (int c = 0; c < dim; ++c) p[c] = (corner >> c) & 1 ? 1.0 : 0.0;
      pts.push_back(p);
    }
    Vec far(dim);
    for (int c = 0; c < dim; ++c) far[c] = 5.0 + c;
    pts.push_back(far);
    expect_stars_match_graph(jittered(pts, 1e-7, 12600u + static_cast<std::uint64_t>(dim)),
                             "hull dim=" + std::to_string(dim));
  }
}

TEST(LocalDelaunayStar, MatchesGraphNearDuplicates) {
  // Pairs about 1e-9 apart (1e-13 before the production-sized jitter): the
  // stars of both twins are slivers around the pair.
  for (int dim = 2; dim <= 3; ++dim) {
    auto pts = random_points(20, dim, 12700u + static_cast<std::uint64_t>(dim));
    for (std::size_t i = 0; i < 6; ++i) {
      Vec p = pts[i];
      p[static_cast<int>(i) % dim] += 1e-13;
      pts.push_back(p);
    }
    expect_stars_match_graph(jittered(pts, 1e-9, 12800u + static_cast<std::uint64_t>(dim)),
                             "near-duplicates dim=" + std::to_string(dim));
  }
}

TEST(LocalDelaunayStar, MatchesGraphJitteredCosphericalGrid) {
  // Perfect grids are co-circular / co-spherical everywhere; the jitter is
  // the only thing separating candidate stars. The jitter is large enough
  // to make every predicate decisive: at the production 1e-9, the slivers
  // along a grid's hull sides have circumradii near 1e8, below the cached
  // circumsphere's floating-point noise floor, so the DT depends on the
  // insertion order -- delaunay_graph() alone gives 13 of this 2-D grid's
  // 49 points a different neighbor set when the input is reversed (see
  // also DelaunayWalk.MatchesLinearScanCosphericalGrid).
  std::vector<Vec> grid2;
  for (int r = 0; r < 7; ++r)
    for (int c = 0; c < 7; ++c) grid2.push_back(Vec{static_cast<double>(c), static_cast<double>(r)});
  expect_stars_match_graph(jittered(grid2, 1e-6 * 7, 12900), "grid 2-D");
  std::vector<Vec> grid3;
  for (int x = 0; x < 4; ++x)
    for (int y = 0; y < 4; ++y)
      for (int z = 0; z < 4; ++z)
        grid3.push_back(Vec{static_cast<double>(x), static_cast<double>(y), static_cast<double>(z)});
  expect_stars_match_graph(jittered(grid3, 1e-6 * 4, 12901), "grid 3-D");
}

TEST(LocalDelaunayStar, MatchesGraphNearCollinearTrains) {
  // Points strung along a line with tiny lateral offsets: every cell is a
  // sliver and every star is long and thin.
  for (int dim = 2; dim <= 3; ++dim) {
    Rng rng(13000u + static_cast<std::uint64_t>(dim));
    std::vector<Vec> pts;
    for (int i = 0; i < 16; ++i) {
      Vec p(dim);
      p[0] = static_cast<double>(i) + rng.uniform(-0.3, 0.3);
      for (int c = 1; c < dim; ++c) p[c] = rng.uniform(-1e-4, 1e-4);
      pts.push_back(p);
    }
    expect_stars_match_graph(pts, "train dim=" + std::to_string(dim));
  }
}

TEST(LocalDelaunayStar, SmallSetsAreCompleteGraphs) {
  // d+1 points form one simplex: every other point is a neighbor. Fewer
  // cannot span the space, and the star computation reports failure.
  for (int dim = 2; dim <= 4; ++dim) {
    const auto pts = random_points(dim + 1, dim, 13100u + static_cast<std::uint64_t>(dim));
    Triangulation tri;
    std::vector<int> nbrs;
    for (int c = 0; c <= dim; ++c) {
      ASSERT_TRUE(tri.star_neighbors(pts, c, nbrs));
      std::vector<int> want;
      for (int j = 0; j <= dim; ++j)
        if (j != c) want.push_back(j);
      EXPECT_EQ(nbrs, want) << "dim=" << dim << " center=" << c;
    }
    const std::vector<Vec> too_few(pts.begin(), pts.end() - 1);
    EXPECT_FALSE(tri.star_neighbors(too_few, 0, nbrs)) << "dim=" << dim;
  }
}

// ---------- local DT: one node's input sequence (LocalDelaunay) ----------

using Key = LocalDelaunay::Key;

// The center's neighbors in delaunay_graph() over the raw positions, as
// keys. Valid as an oracle on random inputs, where the 1e-9 production
// jitter cannot change the triangulation.
std::vector<Key> graph_neighbors(Key center, const std::map<Key, Vec>& set) {
  std::vector<Vec> pts;
  std::vector<Key> keys;
  for (const auto& [k, p] : set) {
    keys.push_back(k);
    pts.push_back(p);
  }
  const int c = static_cast<int>(std::find(keys.begin(), keys.end(), center) - keys.begin());
  DelaunayOptions as_given;
  as_given.jitter_rel = 0.0;
  const DelaunayGraph g = delaunay_graph(pts, as_given);
  std::vector<Key> out;
  for (int j : g.nbrs[static_cast<std::size_t>(c)]) out.push_back(keys[static_cast<std::size_t>(j)]);
  return out;
}

TEST(LocalDelaunay, OverlayInputSequence) {
  // The input sequence MdtOverlay::recompute produces for one node: a core
  // of long-lived points (physical neighbors), a fringe of candidates that
  // comes and goes, positions nudged each adjustment period. Checks N_u
  // against the oracle, the unchanged-input early-out and the diff counters
  // after every step, for both locate modes.
  const auto counters = [](const DynamicDtStats& s) {
    return std::make_tuple(s.inserts, s.removes, s.moves, s.move_early_outs, s.full_rebuilds,
                           s.walk_fallbacks);
  };
  for (const bool linear_scan : {false, true}) {
    DelaunayOptions opts;
    opts.force_linear_scan = linear_scan;
    for (int dim : {2, 3}) {
      SCOPED_TRACE(::testing::Message() << (linear_scan ? "linear" : "walk") << " dim=" << dim);
      Rng rng(0x5747u + static_cast<std::uint64_t>(dim));
      LocalDelaunay local(opts);
      std::map<Key, Vec> set;
      const Key center = 7;
      const auto random_pos = [&] {
        Vec p(dim);
        for (int c = 0; c < dim; ++c) p[c] = rng.uniform(0.0, 1.0);
        return p;
      };
      // Applies one input and checks the counters moved by exactly the key
      // diff against the previous input.
      std::map<Key, Vec> prev;
      const auto update = [&](const char* where) {
        std::uint64_t ins = 0, rem = 0, mov = 0;
        for (const auto& [k, p] : set) {
          const auto it = prev.find(k);
          if (it == prev.end())
            ++ins;
          else if (!(it->second == p))
            ++mov;
        }
        for (const auto& [k, p] : prev)
          if (!set.count(k)) ++rem;
        const DynamicDtStats before = local.stats();
        const bool changed =
            local.update(center, std::vector<std::pair<Key, Vec>>(set.begin(), set.end()));
        EXPECT_EQ(changed, ins + rem + mov > 0) << where;
        EXPECT_EQ(local.stats().inserts, before.inserts + ins) << where;
        EXPECT_EQ(local.stats().removes, before.removes + rem) << where;
        EXPECT_EQ(local.stats().moves, before.moves + mov) << where;
        EXPECT_EQ(local.stats().full_rebuilds, before.full_rebuilds) << where;
        if (static_cast<int>(set.size()) >= dim + 2) {
          EXPECT_EQ(local.neighbors(), graph_neighbors(center, set)) << where;
        }
        prev = set;
        return changed;
      };

      for (Key k = 0; k < 30; ++k) set.emplace(k, random_pos());
      EXPECT_TRUE(update("initial"));

      // An unchanged input is no work: same N_u, same counters.
      const DynamicDtStats s0 = local.stats();
      const std::vector<Key> n0 = local.neighbors();
      EXPECT_FALSE(update("unchanged"));
      EXPECT_EQ(counters(local.stats()), counters(s0));
      EXPECT_EQ(local.neighbors(), n0);

      // A -> B -> A: a fringe of candidates is learned, pruned, relearned.
      std::vector<std::pair<Key, Vec>> fringe;
      for (Key k = 100; k < 104; ++k) fringe.emplace_back(k, random_pos());
      for (int round = 0; round < 3; ++round) {
        set.insert(fringe.begin(), fringe.end());
        EXPECT_TRUE(update("fringe learned"));
        for (const auto& [k, p] : fringe) set.erase(k);
        EXPECT_TRUE(update("fringe pruned"));
      }

      // Sparse and mass nudges, the center's own position included.
      for (int round = 0; round < 4; ++round) {
        for (int c = 0; c < dim; ++c) set[rng.uniform_index(30)][c] += rng.uniform(-0.05, 0.05);
        EXPECT_TRUE(update("sparse moves"));
      }
      for (int round = 0; round < 3; ++round) {
        for (auto& [k, p] : set)
          for (int c = 0; c < dim; ++c) p[c] += rng.uniform(-0.05, 0.05);
        EXPECT_TRUE(update("mass moves"));
      }

      // Shrink below dim+2 points (complete graph) and grow back.
      while (static_cast<int>(set.size()) > dim) {
        for (int i = 0; i < 7 && static_cast<int>(set.size()) > dim; ++i) {
          auto it = set.begin();
          std::advance(it, rng.uniform_index(static_cast<int>(set.size())));
          if (it->first != center) set.erase(it);
        }
        update("shrink");
      }
      std::vector<Key> others;
      for (const auto& [k, p] : set)
        if (k != center) others.push_back(k);
      EXPECT_EQ(local.neighbors(), others);
      for (Key k = 200; k < 220; ++k) {
        set.emplace(k, random_pos());
        if (k % 5 == 4) {
          EXPECT_TRUE(update("grow"));
        }
      }

      // Same points, another center: a new input.
      const DynamicDtStats s1 = local.stats();
      EXPECT_TRUE(local.update(200, std::vector<std::pair<Key, Vec>>(set.begin(), set.end())));
      EXPECT_EQ(counters(local.stats()), counters(s1));
      EXPECT_EQ(local.neighbors(), graph_neighbors(200, set));
    }
  }
}

TEST(LocalDelaunay, JitterEscalationAndCompleteFallback) {
  // Exactly collinear points in 2-D have affine rank 1: the star needs the
  // jitter. Scaled down to 1e-16, only the third rung (1e-10) clears the
  // rank tolerance; at zero no rung does, and N_u is every other key. Both
  // count as full rebuilds.
  std::vector<std::pair<Key, Vec>> line;
  for (Key i = 0; i < 8; ++i)
    line.emplace_back(i, Vec{static_cast<double>(i), 2.0 * static_cast<double>(i)});
  DelaunayOptions tiny;
  tiny.jitter_rel = 1e-16;
  LocalDelaunay escalated(tiny);
  EXPECT_TRUE(escalated.update(3, line));
  EXPECT_EQ(escalated.stats().full_rebuilds, 1u);
  // Consecutive points stay neighbors whatever the jitter (Gabriel edges).
  const std::vector<Key>& n3 = escalated.neighbors();
  EXPECT_TRUE(std::binary_search(n3.begin(), n3.end(), Key{2}));
  EXPECT_TRUE(std::binary_search(n3.begin(), n3.end(), Key{4}));
  EXPECT_LT(n3.size(), 7u);

  DelaunayOptions none;
  none.jitter_rel = 0.0;
  LocalDelaunay fallback(none);
  EXPECT_TRUE(fallback.update(3, line));
  EXPECT_EQ(fallback.stats().full_rebuilds, 1u);
  EXPECT_EQ(fallback.neighbors(), (std::vector<Key>{0, 1, 2, 4, 5, 6, 7}));
}

}  // namespace
}  // namespace gdvr::geom
