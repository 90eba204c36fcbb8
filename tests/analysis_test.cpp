// Tests for SVD / PCA and embedding-quality analysis.
#include <gtest/gtest.h>

#include <cmath>

#include "analysis/embedding.hpp"
#include "analysis/matrix.hpp"
#include "analysis/svd.hpp"
#include "common/rng.hpp"

namespace gdvr::analysis {
namespace {

Matrix random_matrix(int r, int c, std::uint64_t seed) {
  Rng rng(seed);
  Matrix m(r, c);
  for (int i = 0; i < r; ++i)
    for (int j = 0; j < c; ++j) m.at(i, j) = rng.uniform(-1.0, 1.0);
  return m;
}

TEST(Matrix, MulAndTranspose) {
  Matrix m(2, 3);
  m.at(0, 0) = 1;
  m.at(0, 1) = 2;
  m.at(0, 2) = 3;
  m.at(1, 0) = 4;
  m.at(1, 1) = 5;
  m.at(1, 2) = 6;
  const auto y = m.mul({1.0, 1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const auto z = m.mul_transpose({1.0, 1.0});
  EXPECT_DOUBLE_EQ(z[0], 5.0);
  EXPECT_DOUBLE_EQ(z[1], 7.0);
  EXPECT_DOUBLE_EQ(z[2], 9.0);
}

TEST(Svd, DiagonalMatrix) {
  Matrix m(3, 3);
  m.at(0, 0) = 3.0;
  m.at(1, 1) = -5.0;  // singular value is |.|
  m.at(2, 2) = 1.0;
  const auto sv = jacobi_singular_values(m);
  ASSERT_EQ(sv.size(), 3u);
  EXPECT_NEAR(sv[0], 5.0, 1e-10);
  EXPECT_NEAR(sv[1], 3.0, 1e-10);
  EXPECT_NEAR(sv[2], 1.0, 1e-10);
}

TEST(Svd, KnownRankOne) {
  // Outer product u v^T has one singular value |u||v|.
  const int n = 8;
  Matrix m(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m.at(i, j) = static_cast<double>(i + 1) * (j + 1);
  const auto sv = jacobi_singular_values(m);
  double norm2 = 0.0;
  for (int i = 1; i <= n; ++i) norm2 += static_cast<double>(i) * i;
  EXPECT_NEAR(sv[0], norm2, 1e-8);
  for (std::size_t k = 1; k < sv.size(); ++k) EXPECT_NEAR(sv[k], 0.0, 1e-7);
}

TEST(Svd, FrobeniusNormPreserved) {
  const Matrix m = random_matrix(20, 20, 5);
  const auto sv = jacobi_singular_values(m);
  double frob2 = 0.0;
  for (double x : m.data()) frob2 += x * x;
  double sv2 = 0.0;
  for (double s : sv) sv2 += s * s;
  EXPECT_NEAR(frob2, sv2, 1e-8 * frob2);
}

TEST(Svd, SubspaceIterationMatchesJacobi) {
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    const Matrix m = random_matrix(30, 30, seed);
    const auto full = jacobi_singular_values(m);
    const auto top = top_singular_values(m, 5, 120, seed);
    ASSERT_EQ(top.size(), 5u);
    for (int k = 0; k < 5; ++k)
      EXPECT_NEAR(top[static_cast<std::size_t>(k)], full[static_cast<std::size_t>(k)],
                  1e-4 * full[0])
          << "seed=" << seed << " k=" << k;
  }
}

TEST(Svd, NormalizedDividesByLargest) {
  const auto norm = normalized({4.0, 2.0, 1.0});
  EXPECT_DOUBLE_EQ(norm[0], 1.0);
  EXPECT_DOUBLE_EQ(norm[1], 0.5);
  EXPECT_DOUBLE_EQ(norm[2], 0.25);
  EXPECT_TRUE(normalized({}).empty());
}

TEST(Svd, LowDimCostMatrixHasFewLargeSingularValues) {
  // Distances of points in a 2D box embed (approximately) in low dimension:
  // the first ~3 singular values dominate -- the premise of Figure 9.
  Rng rng(9);
  const int n = 60;
  std::vector<Vec> pts;
  for (int i = 0; i < n; ++i) pts.push_back(Vec{rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0)});
  Matrix m(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m.at(i, j) = pts[static_cast<std::size_t>(i)].distance(pts[static_cast<std::size_t>(j)]);
  const auto sv = normalized(jacobi_singular_values(m));
  EXPECT_LT(sv[4], 0.1);  // 5th singular value tiny relative to the 1st
}

// ---------- embedding quality ----------

TEST(Embedding, PerfectEmbeddingHasZeroError) {
  Rng rng(4);
  std::vector<Vec> pts;
  for (int i = 0; i < 20; ++i) pts.push_back(Vec{rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)});
  Matrix costs(20, 20);
  for (int i = 0; i < 20; ++i)
    for (int j = 0; j < 20; ++j)
      costs.at(i, j) = pts[static_cast<std::size_t>(i)].distance(pts[static_cast<std::size_t>(j)]);
  const auto q = embedding_quality(pts, costs);
  EXPECT_NEAR(q.mean_rel_error, 0.0, 1e-12);
  EXPECT_NEAR(q.stress, 0.0, 1e-12);
  EXPECT_NEAR(q.local_rel_error, 0.0, 1e-12);
  EXPECT_NEAR(q.global_rel_error, 0.0, 1e-12);
}

TEST(Embedding, ScaledEmbeddingHasExpectedError) {
  // Positions at half scale: every estimate is 50% low.
  Rng rng(6);
  std::vector<Vec> pts, half;
  for (int i = 0; i < 15; ++i) {
    const Vec p{rng.uniform(0.0, 5.0), rng.uniform(0.0, 5.0)};
    pts.push_back(p);
    half.push_back(p * 0.5);
  }
  Matrix costs(15, 15);
  for (int i = 0; i < 15; ++i)
    for (int j = 0; j < 15; ++j)
      costs.at(i, j) = pts[static_cast<std::size_t>(i)].distance(pts[static_cast<std::size_t>(j)]);
  const auto q = embedding_quality(half, costs);
  EXPECT_NEAR(q.mean_rel_error, 0.5, 1e-9);
  EXPECT_NEAR(q.median_rel_error, 0.5, 1e-9);
  EXPECT_NEAR(q.stress, 0.5, 1e-9);
}

TEST(Embedding, CollapsedGlobalStructureShowsInGlobalError) {
  // Paper Figure 2's failure mode: everything near the origin looks fine
  // locally but global distances collapse.
  std::vector<Vec> truth, collapsed;
  for (int i = 0; i < 10; ++i) {
    truth.push_back(Vec{static_cast<double>(i) * 10.0, 0.0});
    collapsed.push_back(Vec{static_cast<double>(i % 2), 0.0});
  }
  Matrix costs(10, 10);
  for (int i = 0; i < 10; ++i)
    for (int j = 0; j < 10; ++j)
      costs.at(i, j) = truth[static_cast<std::size_t>(i)].distance(truth[static_cast<std::size_t>(j)]);
  const auto q = embedding_quality(collapsed, costs);
  EXPECT_GT(q.global_rel_error, 0.8);  // long distances almost entirely lost
}

TEST(Embedding, CostMatrixMatchesDijkstra) {
  graph::GraphBuilder gb(4);
  gb.add_bidirectional(0, 1, 1.0, 2.0);
  gb.add_bidirectional(1, 2, 3.0, 3.0);
  const graph::Graph g = gb.build();
  const Matrix m = cost_matrix(g);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(m.at(0, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.at(2, 0), 5.0);  // asymmetric
  EXPECT_EQ(m.at(0, 3), graph::kInf);
}

}  // namespace
}  // namespace gdvr::analysis
