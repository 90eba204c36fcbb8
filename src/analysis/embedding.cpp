#include "analysis/embedding.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/stats.hpp"

namespace gdvr::analysis {

EmbeddingQuality embedding_quality(std::span<const Vec> positions, const Matrix& costs) {
  const int n = static_cast<int>(positions.size());
  GDVR_ASSERT(costs.rows() == n && costs.cols() == n);
  EmbeddingQuality q;

  std::vector<double> all_costs;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double c = costs.at(i, j);
      if (std::isfinite(c) && c > 0.0) all_costs.push_back(c);
    }
  if (all_costs.empty()) return q;
  const double lo_cut = percentile(all_costs, 0.25);
  const double hi_cut = percentile(all_costs, 0.75);

  std::vector<double> rel_errors;
  rel_errors.reserve(all_costs.size());
  RunningStat local, global, overall;
  double err2 = 0.0, cost2 = 0.0;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const double c = costs.at(i, j);
      if (!std::isfinite(c) || c <= 0.0) continue;
      const double est =
          positions[static_cast<std::size_t>(i)].distance(positions[static_cast<std::size_t>(j)]);
      const double rel = std::fabs(est - c) / c;
      rel_errors.push_back(rel);
      overall.add(rel);
      if (c <= lo_cut) local.add(rel);
      if (c >= hi_cut) global.add(rel);
      err2 += (est - c) * (est - c);
      cost2 += c * c;
    }

  q.mean_rel_error = overall.mean();
  q.median_rel_error = median_of(std::move(rel_errors));
  q.stress = cost2 > 0.0 ? std::sqrt(err2 / cost2) : 0.0;
  q.local_rel_error = local.mean();
  q.global_rel_error = global.mean();
  return q;
}

Matrix cost_matrix(const graph::Graph& g) {
  const int n = g.size();
  Matrix m(n, n);
  // All-pairs Dijkstra fanned over GDVR_THREADS workers; the result is
  // bit-identical at any thread count.
  const std::vector<double> dist = graph::all_pairs_distances(g);
  for (int src = 0; src < n; ++src)
    for (int dst = 0; dst < n; ++dst)
      m.at(src, dst) = dist[static_cast<std::size_t>(src) * static_cast<std::size_t>(n) +
                            static_cast<std::size_t>(dst)];
  return m;
}

}  // namespace gdvr::analysis
