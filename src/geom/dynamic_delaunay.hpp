// Dynamic Delaunay triangulation over a keyed point set.
//
// The MDT overlay maintains, per node, the Delaunay neighbors of the node
// within a small churning candidate set. delaunay_graph() recomputes that
// triangulation from scratch on every input change; this wrapper owns the
// node's keyed point set, keeps one live Triangulation over it and applies
// O(affected) insert / remove / move updates instead, falling back to a full
// rebuild when a diff is dense or an incremental operation reports an
// inconsistency.
//
// Determinism contract: jitter is a pure function of (key, position,
// escalation level) -- never of insertion order or of the rest of the set --
// so an incrementally maintained instance and a freshly assign()ed oracle
// holding the same logical points place every point at bit-identical
// coordinates. Structural equality of the two complexes is pinned in
// geom_test across randomized insert/remove/move schedules and update()
// sequences.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "geom/delaunay.hpp"

namespace gdvr::geom {

// Maintenance counters, exported per overlay node through the metric
// registry (mdt.dt.* in VpodRunner::export_metrics).
struct DynamicDtStats {
  std::uint64_t inserts = 0;
  std::uint64_t removes = 0;
  std::uint64_t moves = 0;
  // Always 0: every move is a remove + reinsert. Kept so the exported
  // mdt.dt.* metric set stays the same.
  std::uint64_t move_early_outs = 0;
  std::uint64_t full_rebuilds = 0;    // rebuilt from scratch: an op failed or a diff was dense
  std::uint64_t walk_fallbacks = 0;   // forwarded from the walk-based locate kernel
};

class DynamicDelaunay {
 public:
  using Key = std::int64_t;

  explicit DynamicDelaunay(int dim, const DelaunayOptions& opts = {});

  // Replaces the whole point set and builds from scratch. It runs the same
  // jitter-escalation ladder every time, so two instances assigned the same
  // set are bit-identical: this is the reference the incremental paths are
  // tested against.
  void assign(std::span<const std::pair<Key, Vec>> points);

  void insert(Key key, const Vec& pos);
  void remove(Key key);
  void move(Key key, const Vec& pos);

  // Makes the instance hold exactly `points` (sorted by key, keys unique)
  // and returns whether anything changed. The diff against the current set
  // -- absent keys removed, new keys inserted, keys whose position value
  // changed moved -- lands on the same complex as assign(points), since the
  // jittered set's DT is unique; only the repair policy differs. The diff is
  // costed in units of one insert (a cavity dig): a remove also builds the
  // link DT of its hole (2), a move is a remove + reinsert (3). Up to half a
  // from-scratch rebuild it is applied point by point, past that as one
  // rebuild, so a mostly-moved set (the VPoD steady state: every position
  // nudged each adjustment period) costs no more than a rebuild while a
  // mostly-unchanged set stays O(affected).
  bool update(std::span<const std::pair<Key, Vec>> points);

  bool contains(Key key) const;
  int size() const { return static_cast<int>(raw_.size()); }
  int dim() const { return dim_; }

  // Sorted keys of `key`'s Delaunay neighbors. In complete-graph mode (fewer
  // than dim+2 points, or a point set that defeated every build attempt)
  // every other key is returned -- the same safe over-approximation
  // delaunay_graph() falls back to.
  std::vector<Key> neighbors(Key key);

  bool complete_fallback() const { return !tri_ok_ && static_cast<int>(raw_.size()) >= 2; }
  int jitter_level() const { return level_; }
  DynamicDtStats stats() const;

  // Test hook: the live complex (only meaningful when !complete_fallback()).
  const Triangulation& triangulation() const { return tri_; }
  bool has_triangulation() const { return tri_ok_; }

 private:
  Vec jittered(Key key, const Vec& pos, int level) const;
  void rebuild();

  int dim_;
  DelaunayOptions opts_;
  // Sorted-by-key flat maps. The per-node candidate sets are tiny (tens of
  // points) and re-diffed every adjustment period, so binary-searched vectors
  // beat node-allocating std::map on lookups and on the rebuild() scan. The
  // key-sorted order is load-bearing: vertex index i is the i-th smallest
  // key, the same order a from-scratch assign() oracle produces.
  std::vector<std::pair<Key, Vec>> raw_;  // authoritative key -> raw position
  std::vector<std::pair<Key, int>> idx_;  // key -> tri vertex index (tri mode only)
  std::vector<Key> key_of_;               // vertex index -> key
  Triangulation tri_;
  bool tri_ok_ = false;
  int level_ = 0;  // jitter-escalation level the current complex was built at
  DynamicDtStats stats_;
  std::vector<int> nbr_scratch_;
  std::vector<Vec> pts_scratch_;
  // update()'s diff: removed keys, and indices into its input of the
  // inserted and moved points.
  std::vector<Key> removed_scratch_;
  std::vector<std::size_t> inserted_scratch_;
  std::vector<std::size_t> moved_scratch_;
};

}  // namespace gdvr::geom
