// Incremental Delaunay triangulation in arbitrary dimension (2 <= d <= 12).
//
// This is the geometric engine under both MDT (multi-hop Delaunay
// triangulation) and VPoD: every node repeatedly computes the Delaunay
// neighbors of its own (virtual) position within a small candidate set
// (star_neighbors(), which triangulates only that node's star), and the
// centralized baselines / test oracles triangulate whole networks (build()).
//
// Algorithm: Bowyer-Watson insertion with a single symbolic infinite vertex
// (the CGAL convention). A cell is either finite (d+1 real vertices) or
// infinite (a convex-hull facet joined to the infinite vertex). Conflict
// tests on finite cells use the lifted in-sphere predicate; on infinite
// cells they reduce to a hull-visibility orientation test, so no gigantic
// super-simplex coordinates are ever involved.
//
// Robustness: inputs are deterministically jittered (paper Section II-B also
// jitters positions to avoid degeneracy). If an insertion still produces an
// inconsistent conflict region, the build retries with a larger jitter and
// finally falls back to reporting the complete graph, which is a safe
// over-approximation of DT neighbors for the MDT protocols.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/vec.hpp"

namespace gdvr::geom {

struct DelaunayOptions {
  // Jitter magnitude relative to the point set's bounding-box diagonal.
  double jitter_rel = 1e-9;
  // Seed for the deterministic per-index jitter.
  std::uint64_t jitter_seed = 0x5eedULL;
  // Maximum rebuild attempts (jitter grows 1000x per attempt).
  int max_attempts = 3;
  // Testing hook: collect each insertion's conflict region by exhaustive
  // linear scan (the original kernel) instead of the hint-seeded walk + BFS
  // flood. Equivalence tests pin the two against each other.
  bool force_linear_scan = false;
};

// The Delaunay *graph* of a point set: per-point sorted neighbor lists plus
// the edge list (u < v). This is all the routing protocols consume.
struct DelaunayGraph {
  int dim = 0;
  // True when the input was degenerate (affine rank < dim) or triangulation
  // failed after retries; in that case the complete graph is returned.
  bool complete_graph_fallback = false;
  std::vector<std::vector<int>> nbrs;
  std::vector<std::pair<int, int>> edges;

  bool has_edge(int u, int v) const;
};

DelaunayGraph delaunay_graph(std::span<const Vec> points, const DelaunayOptions& opts = {});

// Exposed for tests and benchmarks: the full cell complex.
class Triangulation {
 public:
  static constexpr int kInfinite = -1;
  static constexpr int kMaxVerts = 13;  // dim + 1 for dim <= 12

  struct Cell {
    // Vertex indices (kInfinite possible) and the neighbor cell across the
    // facet opposite each vertex; entries 0..dim are valid.
    std::array<int, kMaxVerts> v;
    std::array<int, kMaxVerts> nbr;
    // Cached circumsphere (finite cells only): conflict tests reduce to one
    // squared-distance comparison instead of a determinant evaluation.
    Vec center;
    double radius2 = 0.0;
    bool alive = true;
  };

  // Builds the triangulation of jittered copies of `points`. Returns false if
  // the input is degenerate or an insertion failed (caller should retry or
  // fall back).
  bool build(std::span<const Vec> points);

  // Conflict-region seed strategy. kWalk (default) runs a hint-seeded
  // visibility walk from the last created cell; kLinearScan is the original
  // exhaustive scan, kept as the walk's fallback and as the reference kernel
  // for equivalence tests.
  enum class LocateMode { kWalk, kLinearScan };
  void set_locate_mode(LocateMode mode) { locate_mode_ = mode; }

  // Exposed for tests and benchmarks: one cell (alive) whose circumsphere /
  // hull-visibility region contains q -- the seed of the Bowyer-Watson
  // cavity. Returns -1 if no cell is in conflict.
  int locate_conflict(const Vec& q);
  // How many walks gave up and fell back to the linear scan (diagnostics).
  std::uint64_t walk_fallbacks() const { return walk_fallbacks_; }

  int dim() const { return dim_; }
  const std::vector<Cell>& cells() const { return cells_; }

  // Collect the finite-finite edge set (u < v, deduplicated).
  std::vector<std::pair<int, int>> finite_edges() const;

  // Sorted indices of points[center]'s neighbors in the Delaunay
  // triangulation of `points`, computed from center's star alone. The caller
  // supplies already-jittered coordinates -- no jitter is added here. The
  // other points are visited by (distance to center, index); after a seed
  // simplex through center, a point is inserted only if it conflicts with a
  // cell of center's current star, and the visit stops at the first point
  // beyond every star cell's circumsphere once the star is closed (has no
  // infinite cell). Exact, not an approximation: a point outside every star
  // cell never changes the star when inserted, and the region where a new
  // point would join the star only shrinks as points are added, so every
  // skipped point stays irrelevant. Returns false when the input is
  // degenerate or an insertion failed (caller should retry or fall back).
  bool star_neighbors(std::span<const Vec> points, int center, std::vector<int>& out);

  // Validation helper for tests, after build(): true iff no jittered input
  // point lies strictly inside the circumsphere of any alive finite cell
  // (tolerance is absolute on the predicate value).
  bool empty_circumsphere_property(double tol = 1e-9) const;

  void set_jitter(double rel, std::uint64_t seed) {
    jitter_rel_ = rel;
    jitter_seed_ = seed;
  }

 private:
  // Open-addressing hash table matching facets/ridges by their sorted vertex
  // tuple. Entries pair up and vanish; a consistent cavity leaves the table
  // empty. Storage is reused across inserts (epoch-stamped slots, no per-use
  // clearing).
  class FacetTable {
   public:
    void reset(int dim, std::size_t expected_entries);
    // If `key` is already present, removes it, fills *other_cell /
    // *other_facet with the stored pair and returns true; otherwise inserts
    // (cell, facet) under `key` and returns false.
    bool match_or_insert(const std::array<int, 12>& key, int cell, int facet, int* other_cell,
                         int* other_facet);
    bool empty() const { return live_ == 0; }

   private:
    struct Slot {
      std::array<int, 12> key;
      int cell = -1;
      int facet = -1;
      std::uint64_t stamp = 0;  // epoch the slot was written in
      bool tombstone = false;
    };
    std::vector<Slot> slots_;
    std::uint64_t epoch_ = 0;
    std::size_t mask_ = 0;
    std::size_t live_ = 0;
    int dim_ = 0;
  };

  // Builds the first simplex from the first dim+1 affinely independent
  // points of order_ (order_[0] always among them, recorded in chosen_) plus
  // one infinite cell per facet, over the coordinates already in pts_.
  bool init_complex();
  // Bowyer-Watson insertion of vertex p, given one cell in conflict with it.
  bool insert(int p, int seed);
  bool in_conflict(const Cell& c, const Vec& p) const;
  bool cache_circumsphere(Cell& c);
  int infinite_index(const Cell& c) const;
  bool has_vertex(const Cell& c, int v) const;
  // Visibility walk from the hint cell; -1 directs the caller to fall back.
  int locate_walk(const Vec& q);
  int locate_linear(const Vec& q) const;
  // Orientation sign of the simplex formed by cell c's vertices with the one
  // at index `replace` (if >= 0) substituted by q. Stack buffers only.
  double cell_orient(const Cell& c, int replace, const Vec& q) const;
  // Takes a slot off the free list (or grows cells_); returns its id.
  int alloc_cell();

  int dim_ = 0;
  double jitter_rel_ = 1e-9;
  std::uint64_t jitter_seed_ = 0x5eedULL;
  LocateMode locate_mode_ = LocateMode::kWalk;
  std::vector<Vec> pts_;
  std::vector<Cell> cells_;
  // Tombstoned cell slots available for reuse, so cells_ stays proportional
  // to the live complex instead of growing monotonically with inserts.
  std::vector<int> free_cells_;
  int hint_ = -1;  // last created cell: the walk's starting point
  std::uint64_t walk_fallbacks_ = 0;
  // Scratch reused across inserts (conflict marks, BFS queue, created list,
  // predicate vertex buffer -- Vec default-construction zeroes kMaxDim
  // coordinates, so a fresh array per in_conflict call costs more than the
  // conflict test itself).
  mutable std::array<Vec, kMaxVerts> vert_scratch_;
  std::vector<std::uint64_t> mark_;
  std::uint64_t mark_epoch_ = 0;
  std::vector<int> conflict_;
  std::vector<int> created_;
  FacetTable facets_;
  // Insertion order and first-simplex vertices of the current build; for
  // star_neighbors() also the squared distances to the center and the
  // center's current star.
  std::vector<int> order_;
  std::vector<int> chosen_;
  std::vector<double> dist2_;
  std::vector<int> star_;
};

}  // namespace gdvr::geom
