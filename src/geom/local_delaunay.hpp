// One overlay node's local Delaunay triangulation.
//
// The MDT overlay needs one geometric fact per node u: N_u, u's neighbors in
// the DT of {u} + P_u + C_u. This class holds the node's last keyed input,
// its last N_u, the certificate of the star N_u came from, and its counters.
// When the input changes and a changed point could touch u's star, it
// recomputes N_u from the star alone (Triangulation::star_neighbors) over
// scratch shared per thread, so no triangulation outlives a recompute.
//
// Determinism contract: jitter is a pure function of (key, position,
// escalation level) -- never of the rest of the set -- and the star is exact,
// so N_u equals u's neighbor list in delaunay_graph() over the input jittered
// at the first level whose star succeeds. A certified update keeps a level-0
// star, which is still u's exact star over the new input's level-0
// coordinates; it can differ from a rebuild only where the rebuild would
// fail numerically at level 0 and escalate. geom_test pins N_u after every
// step of an input history against a fresh LocalDelaunay and the graph
// oracle.
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
  // Moved keys absorbed by certified updates, which kept N_u without a
  // rebuild (mdt.dt.early_out_ratio = move_early_outs / moves).
  std::uint64_t move_early_outs = 0;
  // Star computations that escalated the jitter or fell back to the
  // complete graph.
  std::uint64_t full_rebuilds = 0;
  // Always 0: the star computation has no locate walk (every insertion is
  // seeded from a conflicting star cell). Kept so the exported mdt.dt.* set
  // stays the same.
  std::uint64_t walk_fallbacks = 0;
};

class LocalDelaunay {
 public:
  // As wide as the overlay's NodeId, so neighbors() is the overlay's N_u.
  using Key = int;

  LocalDelaunay() = default;
  explicit LocalDelaunay(const DelaunayOptions& opts) : opts_(opts) {}

  // Takes `points` (sorted by key, keys unique, `center` among them) as the
  // node's input and returns whether it differs from the previous one. An
  // unchanged input costs one diff and no geometry. A changed one keeps N_u
  // when the certificate holds: the same center at the same position, no
  // removed or moved key in N_u, at least dim+2 points, and every inserted or
  // moved point (jittered at level 0) outside every certified cell. Otherwise
  // N_u is recomputed. The star computation runs the same jitter-escalation
  // ladder as delaunay_graph(); below dim+2 points, or on a set that defeats
  // every attempt, N_u is every other key -- the same safe over-approximation.
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
  // The star nbrs_ came from, when it was built at jitter level 0; empty
  // otherwise.
  StarCertificate cert_;
  DynamicDtStats stats_;
};

}  // namespace gdvr::geom
