// One overlay node's local Delaunay triangulation.
//
// The MDT overlay needs one geometric fact per node u: N_u, u's neighbors in
// the DT of {u} + P_u + C_u. This class holds the node's last keyed input,
// its last N_u and its counters; when the input changes it recomputes N_u
// from u's Delaunay star alone (Triangulation::star_neighbors) over scratch
// shared per thread, so no triangulation outlives a recompute.
//
// Determinism contract: jitter is a pure function of (key, position,
// escalation level) -- never of the rest of the set -- and the star is exact,
// so N_u equals u's neighbor list in delaunay_graph() over the same jittered
// coordinates. geom_test pins both.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/delaunay.hpp"

namespace gdvr::geom {

// Local-DT counters, exported per overlay node through the metric registry
// (mdt.dt.* in VpodRunner::export_metrics). The name predates LocalDelaunay;
// the end-to-end benchmark compiles against it.
struct DynamicDtStats {
  // The key diff between a node's successive inputs: keys that appeared,
  // disappeared, or kept their key but changed position.
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  std::uint64_t moves = 0;
  // Always 0, like walk_fallbacks: the star computation has neither move
  // certificates nor a locate walk (every insertion is seeded from a
  // conflicting star cell). Kept so the exported mdt.dt.* set stays the same.
  std::uint64_t move_early_outs = 0;
  // Star computations that escalated the jitter or fell back to the
  // complete graph.
  std::uint64_t full_rebuilds = 0;
  std::uint64_t walk_fallbacks = 0;
};

class LocalDelaunay {
 public:
  using Key = std::int64_t;

  LocalDelaunay() = default;
  explicit LocalDelaunay(const DelaunayOptions& opts) : opts_(opts) {}

  // Takes `points` (sorted by key, keys unique, `center` among them) as the
  // node's input and returns whether it differs from the previous one. Only
  // then is N_u recomputed -- an unchanged input costs one diff and no
  // geometry. The star computation runs the same jitter-escalation ladder as
  // delaunay_graph(); below dim+2 points, or on a set that defeats every
  // attempt, N_u is every other key -- the same safe over-approximation.
  bool update(Key center, std::span<const std::pair<Key, Vec>> points);

  // Sorted keys of the center's Delaunay neighbors in the last input.
  const std::vector<Key>& neighbors() const { return nbrs_; }
  const DynamicDtStats& stats() const { return stats_; }

 private:
  Vec jittered(Key key, const Vec& pos, int level) const;
  void recompute();

  DelaunayOptions opts_;
  Key center_ = 0;
  std::vector<std::pair<Key, Vec>> points_;  // last input, key-sorted
  std::vector<Key> nbrs_;
  DynamicDtStats stats_;
};

}  // namespace gdvr::geom
