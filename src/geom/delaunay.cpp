#include "geom/delaunay.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/log.hpp"
#include "geom/predicates.hpp"
#include "obs/profile.hpp"

namespace gdvr::geom {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Deterministic jitter in [-1, 1) keyed by (seed, point index, coordinate).
double jitter_unit(std::uint64_t seed, std::size_t idx, int coord) {
  const std::uint64_t h = splitmix(seed ^ splitmix(idx * 131 + static_cast<std::uint64_t>(coord)));
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

double bbox_diagonal(std::span<const Vec> points) {
  if (points.empty()) return 1.0;
  const int dim = points[0].dim();
  Vec lo = points[0], hi = points[0];
  for (const Vec& p : points)
    for (int c = 0; c < dim; ++c) {
      lo[c] = std::min(lo[c], p[c]);
      hi[c] = std::max(hi[c], p[c]);
    }
  const double diag = lo.distance(hi);
  return diag > 0.0 ? diag : 1.0;
}

// Sorted facet key: the dim vertex ids of a facet.
using FacetKey = std::array<int, Vec::kMaxDim>;

FacetKey facet_key(const Triangulation::Cell& c, int skip, int dim) {
  FacetKey key;
  int w = 0;
  // Insertion sort while filling: facets have at most Vec::kMaxDim vertices,
  // where this beats std::sort and the full-array fill it would require.
  for (int i = 0; i <= dim; ++i) {
    if (i == skip) continue;
    const int x = c.v[static_cast<std::size_t>(i)];
    int j = w++;
    while (j > 0 && key[static_cast<std::size_t>(j - 1)] > x) {
      key[static_cast<std::size_t>(j)] = key[static_cast<std::size_t>(j - 1)];
      --j;
    }
    key[static_cast<std::size_t>(j)] = x;
  }
  return key;
}

std::uint64_t facet_hash(const FacetKey& key, int dim) {
  std::uint64_t h = 0x243F6A8885A308D3ull;
  for (int i = 0; i < dim; ++i)
    h = splitmix(h ^ static_cast<std::uint64_t>(static_cast<std::uint32_t>(key[static_cast<std::size_t>(i)])));
  return h;
}

// The two conflict predicates, over raw coordinates. Triangulation::in_conflict
// and StarCertificate::conflicts both call them, so a certified star and a
// rebuilt one decide every point alike.

// Finite cell: q strictly inside its circumsphere (one squared-distance
// comparison against the cached sphere).
bool sphere_conflict(const double* center, double radius2, const double* q, int dim) {
  double d2 = 0.0;
  for (int i = 0; i < dim; ++i) {
    const double diff = q[i] - center[i];
    d2 += diff * diff;
  }
  return d2 < radius2;
}

// Infinite cell over the hull facet F (its dim vertices): q lies strictly on
// the outer side of F, away from the apex of the finite cell across F, or on
// F's hyperplane but inside that cell's circumsphere (center, radius2).
bool hull_conflict(const double* const* facet, const double* apex, const double* center,
                   double radius2, const double* q, int dim) {
  // Orientation of (F, x): rows f_1 - f_0, ..., f_{dim-1} - f_0, x - f_0.
  const auto orient_facet = [facet, dim](const double* x) {
    double buf[Vec::kMaxDim * Vec::kMaxDim];
    for (int r = 0; r < dim; ++r) {
      const double* row = r + 1 < dim ? facet[r + 1] : x;
      for (int c = 0; c < dim; ++c) buf[r * dim + c] = row[c] - facet[0][c];
    }
    return det_inplace(buf, dim);
  };
  const double op = orient_facet(q);
  const double ow = orient_facet(apex);
  if (ow == 0.0) return false;
  if (op == 0.0) return sphere_conflict(center, radius2, q, dim);
  return (op > 0.0) != (ow > 0.0);
}

}  // namespace

// ---------------------------------------------------------------------------
// StarCertificate

bool StarCertificate::conflicts(const Vec& q) const {
  GDVR_ASSERT(q.dim() == dim_);
  const double* x = q.coords().data();
  const auto d = static_cast<std::size_t>(dim_);
  const double* p = data_.data();
  for (int i = 0; i < spheres_; ++i, p += d + 1)
    if (sphere_conflict(p, p[d], x, dim_)) return true;
  const double* facet[Vec::kMaxDim];
  for (const double* end = data_.data() + data_.size(); p != end; p += d * d + 2 * d + 1) {
    for (std::size_t k = 0; k < d; ++k) facet[k] = p + k * d;
    const double* apex = p + d * d;
    if (hull_conflict(facet, apex, apex + d, apex[2 * d], x, dim_)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// FacetTable

void Triangulation::FacetTable::reset(int dim, std::size_t expected_entries) {
  dim_ = dim;
  std::size_t want = 16;
  while (want < expected_entries * 2 + 2) want <<= 1;
  if (slots_.size() < want) {
    slots_.assign(want, Slot{});
    epoch_ = 0;
  }
  mask_ = slots_.size() - 1;
  ++epoch_;
  live_ = 0;
}

bool Triangulation::FacetTable::match_or_insert(const FacetKey& key, int cell, int facet,
                                                int* other_cell, int* other_facet) {
  std::size_t i = facet_hash(key, dim_) & mask_;
  std::size_t insert_at = slots_.size();  // first reusable slot seen while probing
  for (;; i = (i + 1) & mask_) {
    Slot& s = slots_[i];
    if (s.stamp != epoch_) {
      // Empty for this use: key is absent.
      if (insert_at == slots_.size()) insert_at = i;
      break;
    }
    if (s.tombstone) {
      if (insert_at == slots_.size()) insert_at = i;
      continue;
    }
    if (std::equal(s.key.begin(), s.key.begin() + dim_, key.begin())) {
      *other_cell = s.cell;
      *other_facet = s.facet;
      s.tombstone = true;
      --live_;
      return true;
    }
  }
  Slot& s = slots_[insert_at];
  s.key = key;
  s.cell = cell;
  s.facet = facet;
  s.stamp = epoch_;
  s.tombstone = false;
  ++live_;
  return false;
}

// ---------------------------------------------------------------------------
// Triangulation

bool DelaunayGraph::has_edge(int u, int v) const {
  const auto& n = nbrs[static_cast<std::size_t>(u)];
  return std::binary_search(n.begin(), n.end(), v);
}

int Triangulation::infinite_index(const Cell& c) const {
  for (int i = 0; i <= dim_; ++i)
    if (c.v[static_cast<std::size_t>(i)] == kInfinite) return i;
  return -1;
}

bool Triangulation::has_vertex(const Cell& c, int v) const {
  for (int i = 0; i <= dim_; ++i)
    if (c.v[static_cast<std::size_t>(i)] == v) return true;
  return false;
}

bool Triangulation::init_complex() {
  const double diag = bbox_diagonal(pts_);
  const double tol = 1e-12 * diag;
  chosen_.clear();
  chosen_.push_back(order_[0]);
  // Greedy affine-rank growth with Gram-Schmidt on difference vectors.
  std::vector<Vec> basis;
  for (std::size_t k = 1; k < order_.size() && static_cast<int>(chosen_.size()) < dim_ + 1; ++k) {
    const int i = order_[k];
    Vec r = pts_[static_cast<std::size_t>(i)] - pts_[static_cast<std::size_t>(chosen_[0])];
    for (const Vec& b : basis) r -= b * r.dot(b);
    if (r.norm() > tol) {
      basis.push_back(r.unit());
      chosen_.push_back(i);
    }
  }
  if (static_cast<int>(chosen_.size()) != dim_ + 1) return false;

  cells_.clear();
  free_cells_.clear();
  mark_.clear();
  mark_epoch_ = 0;
  // Initial complex: one finite cell plus one infinite cell per facet.
  Cell fin;
  fin.nbr.fill(-1);
  for (int i = 0; i <= dim_; ++i)
    fin.v[static_cast<std::size_t>(i)] = chosen_[static_cast<std::size_t>(i)];
  if (!cache_circumsphere(fin)) return false;
  cells_.push_back(fin);
  for (int k = 0; k <= dim_; ++k) {
    Cell inf;
    inf.nbr.fill(-1);
    int w = 0;
    for (int i = 0; i <= dim_; ++i)
      if (i != k) inf.v[static_cast<std::size_t>(w++)] = chosen_[static_cast<std::size_t>(i)];
    inf.v[static_cast<std::size_t>(dim_)] = kInfinite;
    cells_.push_back(inf);
  }
  // Wire adjacency by matching facets (sorted vertex tuples).
  facets_.reset(dim_, cells_.size() * static_cast<std::size_t>(dim_ + 1));
  for (int ci = 0; ci < static_cast<int>(cells_.size()); ++ci) {
    for (int k = 0; k <= dim_; ++k) {
      const FacetKey key = facet_key(cells_[static_cast<std::size_t>(ci)], k, dim_);
      int cj = -1, kj = -1;
      if (facets_.match_or_insert(key, ci, k, &cj, &kj)) {
        cells_[static_cast<std::size_t>(ci)].nbr[static_cast<std::size_t>(k)] = cj;
        cells_[static_cast<std::size_t>(cj)].nbr[static_cast<std::size_t>(kj)] = ci;
      }
    }
  }
  hint_ = 0;
  return facets_.empty();
}

bool Triangulation::in_conflict(const Cell& c, const Vec& p) const {
  const int inf = infinite_index(c);
  if (inf < 0) return sphere_conflict(c.center.coords().data(), c.radius2, p.coords().data(), dim_);
  const int apex = hull_apex(c, inf);
  if (apex < 0) return false;  // degenerate flat hull; retry path handles it
  const double* facet[Vec::kMaxDim];
  int w = 0;
  for (int i = 0; i <= dim_; ++i)
    if (i != inf)
      facet[w++] = pts_[static_cast<std::size_t>(c.v[static_cast<std::size_t>(i)])].coords().data();
  const Cell& fin = cells_[static_cast<std::size_t>(c.nbr[static_cast<std::size_t>(inf)])];
  return hull_conflict(facet, pts_[static_cast<std::size_t>(apex)].coords().data(),
                       fin.center.coords().data(), fin.radius2, p.coords().data(), dim_);
}

int Triangulation::hull_apex(const Cell& c, int inf) const {
  const Cell& fin = cells_[static_cast<std::size_t>(c.nbr[static_cast<std::size_t>(inf)])];
  if (infinite_index(fin) >= 0) return -1;
  for (int i = 0; i <= dim_; ++i) {
    const int fv = fin.v[static_cast<std::size_t>(i)];
    bool on_facet = false;
    for (int j = 0; j <= dim_; ++j)
      if (j != inf && c.v[static_cast<std::size_t>(j)] == fv) on_facet = true;
    if (!on_facet) return fv;
  }
  return -1;
}

void Triangulation::certify(StarCertificate& cert) const {
  cert.clear();
  cert.dim_ = dim_;
  // Sized exactly: every overlay node keeps one certificate.
  const auto d = static_cast<std::size_t>(dim_);
  std::size_t hulls = 0;
  for (int ci : star_) hulls += infinite_index(cells_[static_cast<std::size_t>(ci)]) >= 0 ? 1 : 0;
  cert.data_.reserve((star_.size() - hulls) * (d + 1) + hulls * (d * d + 2 * d + 1));
  const auto append = [&cert](const Vec& x) {
    cert.data_.insert(cert.data_.end(), x.coords().begin(), x.coords().end());
  };
  for (int ci : star_) {
    const Cell& sc = cells_[static_cast<std::size_t>(ci)];
    if (infinite_index(sc) >= 0) continue;
    append(sc.center);
    cert.data_.push_back(sc.radius2);
    ++cert.spheres_;
  }
  for (int ci : star_) {
    const Cell& sc = cells_[static_cast<std::size_t>(ci)];
    const int inf = infinite_index(sc);
    if (inf < 0) continue;
    const int apex = hull_apex(sc, inf);
    if (apex < 0) {  // no sound conflict region to certify
      cert.clear();
      return;
    }
    for (int i = 0; i <= dim_; ++i)
      if (i != inf) append(pts_[static_cast<std::size_t>(sc.v[static_cast<std::size_t>(i)])]);
    append(pts_[static_cast<std::size_t>(apex)]);
    const Cell& fin = cells_[static_cast<std::size_t>(sc.nbr[static_cast<std::size_t>(inf)])];
    append(fin.center);
    cert.data_.push_back(fin.radius2);
  }
}

bool Triangulation::cache_circumsphere(Cell& c) {
  if (infinite_index(c) >= 0) return true;  // infinite cells need no sphere
  const double* rows[kMaxVerts];
  for (int i = 0; i <= dim_; ++i)
    rows[static_cast<std::size_t>(i)] =
        pts_[static_cast<std::size_t>(c.v[static_cast<std::size_t>(i)])].coords().data();
  return circumsphere_rows(rows, dim_, c.center, c.radius2);
}

double Triangulation::cell_orient(const Cell& c, int replace, const Vec& q) const {
  // Rows of the orientation matrix: (w_i - w_0) for i = 1..dim, where w_k is
  // either the cell's k-th vertex or q. Flat stack buffer, no temporaries.
  const double* w[kMaxVerts];
  for (int i = 0; i <= dim_; ++i) {
    if (i == replace)
      w[static_cast<std::size_t>(i)] = q.coords().data();
    else
      w[static_cast<std::size_t>(i)] =
          pts_[static_cast<std::size_t>(c.v[static_cast<std::size_t>(i)])].coords().data();
  }
  double buf[Vec::kMaxDim * Vec::kMaxDim];
  for (int r = 0; r < dim_; ++r)
    for (int col = 0; col < dim_; ++col)
      buf[r * dim_ + col] = w[static_cast<std::size_t>(r + 1)][col] - w[0][col];
  return det_inplace(buf, dim_);
}

int Triangulation::locate_linear(const Vec& q) const {
  for (std::size_t ci = 0; ci < cells_.size(); ++ci)
    if (cells_[ci].alive && in_conflict(cells_[ci], q)) return static_cast<int>(ci);
  return -1;
}

int Triangulation::locate_walk(const Vec& q) {
  int cur = hint_;
  if (cur < 0 || !cells_[static_cast<std::size_t>(cur)].alive) {
    for (std::size_t ci = 0; ci < cells_.size(); ++ci)
      if (cells_[ci].alive) {
        cur = static_cast<int>(ci);
        break;
      }
  }
  if (cur < 0) return -1;

  // Remembering visibility walk: step across any facet whose hyperplane
  // strictly separates q from the cell, never stepping straight back. On a
  // Delaunay triangulation the visibility walk cannot cycle; the step cap
  // and every degenerate branch fall back to the exhaustive scan, which is
  // always correct.
  int prev = -1;
  const int max_steps = static_cast<int>(cells_.size()) + 16;
  for (int step = 0; step < max_steps; ++step) {
    const Cell& c = cells_[static_cast<std::size_t>(cur)];
    if (in_conflict(c, q)) return cur;
    const int inf = infinite_index(c);
    if (inf >= 0) {
      // Non-conflicting infinite cell: q is on the inner side of this hull
      // facet; re-enter the triangulation through the adjacent finite cell.
      const int nb = c.nbr[static_cast<std::size_t>(inf)];
      if (nb < 0 || nb == prev) break;
      prev = cur;
      cur = nb;
      continue;
    }
    const double oc = cell_orient(c, -1, q);
    if (oc == 0.0) break;  // degenerate sliver: let the scan decide
    int next = -1;
    for (int i = 0; i <= dim_; ++i) {
      // Rotate the facet scan origin with the step count so a numerically
      // ambiguous pair of facets cannot trap the walk in a 2-cycle.
      const int k = (i + step) % (dim_ + 1);
      const int nb = c.nbr[static_cast<std::size_t>(k)];
      if (nb < 0 || nb == prev) continue;
      const double oq = cell_orient(c, k, q);
      if ((oq > 0.0) != (oc > 0.0) && oq != 0.0) {
        next = nb;
        break;
      }
    }
    if (next < 0) break;  // inside the cell yet outside its sphere: impossible unless degenerate
    prev = cur;
    cur = next;
  }
  return -1;
}

int Triangulation::locate_conflict(const Vec& q) {
  if (locate_mode_ == LocateMode::kWalk) {
    const int seed = locate_walk(q);
    if (seed >= 0) return seed;
  }
  return locate_linear(q);
}

int Triangulation::alloc_cell() {
  if (!free_cells_.empty()) {
    const int id = free_cells_.back();
    free_cells_.pop_back();
    return id;
  }
  cells_.emplace_back();
  return static_cast<int>(cells_.size()) - 1;
}

bool Triangulation::build(std::span<const Vec> points) {
  GDVR_PROFILE_SCOPE("geom.delaunay_build");
  GDVR_ASSERT(!points.empty());
  dim_ = points[0].dim();
  GDVR_ASSERT(dim_ >= 2 && dim_ <= Vec::kMaxDim);
  const int n = static_cast<int>(points.size());
  if (n < dim_ + 1) return false;

  // Jittered working copies.
  pts_.assign(points.begin(), points.end());
  const double diag = bbox_diagonal(points);
  const double mag = jitter_rel_ * diag;
  for (std::size_t i = 0; i < pts_.size(); ++i)
    for (int c = 0; c < dim_; ++c) pts_[i][c] += mag * jitter_unit(jitter_seed_, i, c);

  // Live complex size is roughly linear in n (about 7n tetrahedra in 3D);
  // reserving avoids reallocation copies of the fat Cell structs mid-build.
  cells_.reserve(static_cast<std::size_t>(n) * static_cast<std::size_t>(4 * dim_) + 64);
  order_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order_[static_cast<std::size_t>(i)] = i;
  if (!init_complex()) return false;

  // Insert the remaining points in index order.
  for (int p = 0; p < n; ++p) {
    if (std::find(chosen_.begin(), chosen_.end(), p) != chosen_.end()) continue;
    if (!insert(p, locate_conflict(pts_[static_cast<std::size_t>(p)]), kNoCenter)) return false;
  }
  return true;
}

bool Triangulation::star_neighbors(std::span<const Vec> points, int center, std::vector<int>& out,
                                   StarCertificate& cert) {
  // Shares build()'s site name: the profile report merges the two, so the
  // geom.delaunay_build row counts every local-DT computation.
  GDVR_PROFILE_SCOPE("geom.delaunay_build");
  out.clear();
  cert.clear();
  GDVR_ASSERT(!points.empty());
  dim_ = points[0].dim();
  GDVR_ASSERT(dim_ >= 2 && dim_ <= Vec::kMaxDim);
  const int n = static_cast<int>(points.size());
  GDVR_ASSERT(center >= 0 && center < n);
  if (n < dim_ + 1) return false;

  // Visit order: the center, then the rest by (distance to it, index).
  pts_.assign(points.begin(), points.end());
  const Vec& c = pts_[static_cast<std::size_t>(center)];
  dist2_.resize(static_cast<std::size_t>(n));
  order_.clear();
  order_.push_back(center);
  for (int i = 0; i < n; ++i) {
    dist2_[static_cast<std::size_t>(i)] = pts_[static_cast<std::size_t>(i)].distance2(c);
    if (i != center) order_.push_back(i);
  }
  std::sort(order_.begin() + 1, order_.end(), [this](int a, int b) {
    const double da = dist2_[static_cast<std::size_t>(a)], db = dist2_[static_cast<std::size_t>(b)];
    return da < db || (da == db && a < b);
  });
  if (!init_complex()) return false;

  star_.clear();
  for (int ci = 0; ci < static_cast<int>(cells_.size()); ++ci)
    if (has_vertex(cells_[static_cast<std::size_t>(ci)], center)) star_.push_back(ci);
  // Squared distance from the center past which no point can conflict with
  // a star cell: infinite while the star has an infinite cell (the center is
  // on the hull, whose outside is unbounded), else the largest R + |c - o|
  // over star cells with circumcenter o and radius R -- a point farther than
  // that lies outside every circumsphere by the triangle inequality, and so
  // does every later point, being no closer. The relative slack absorbs
  // rounding in the distances.
  double reach2 = std::numeric_limits<double>::infinity();
  for (std::size_t k = 1; k < order_.size(); ++k) {
    const int p = order_[k];
    if (dist2_[static_cast<std::size_t>(p)] > reach2) break;
    if (std::find(chosen_.begin(), chosen_.end(), p) != chosen_.end()) continue;
    const Vec& q = pts_[static_cast<std::size_t>(p)];
    int seed = -1;
    for (int ci : star_)
      if (in_conflict(cells_[static_cast<std::size_t>(ci)], q)) {
        seed = ci;
        break;
      }
    if (seed < 0) continue;  // outside the star: inserting p would not change it
    if (!insert(p, seed, center)) return false;
    // The insert killed exactly the conflicting star cells and created only
    // cells through the center.
    std::erase_if(star_, [this](int ci) { return !cells_[static_cast<std::size_t>(ci)].alive; });
    star_.insert(star_.end(), created_.begin(), created_.end());
    double reach = 0.0;
    for (int ci : star_) {
      const Cell& sc = cells_[static_cast<std::size_t>(ci)];
      if (infinite_index(sc) >= 0) {
        reach = std::numeric_limits<double>::infinity();
        break;
      }
      reach = std::max(reach, std::sqrt(sc.radius2) + sc.center.distance(c));
    }
    reach *= 1.0 + 1e-9;
    reach2 = reach * reach;
  }

  for (int ci : star_) {
    const Cell& sc = cells_[static_cast<std::size_t>(ci)];
    for (int i = 0; i <= dim_; ++i) {
      const int w = sc.v[static_cast<std::size_t>(i)];
      if (w != center && w != kInfinite) out.push_back(w);
    }
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  certify(cert);
  return true;
}

bool Triangulation::insert(int p, int seed, int center) {
  const Vec& q = pts_[static_cast<std::size_t>(p)];

  // Conflict region: the seed cell, then a BFS flood over cell adjacency --
  // the conflict region of a point is connected, so the flood collects all
  // of it (with a center: the star part of it, which is connected through
  // facets containing the center, DESIGN.md §4h). Marks, queue and created
  // list are scratch reused across inserts.
  if (seed < 0) return false;
  if (mark_.size() < cells_.size()) mark_.resize(cells_.size(), 0);
  ++mark_epoch_;
  conflict_.clear();
  conflict_.push_back(seed);
  mark_[static_cast<std::size_t>(seed)] = mark_epoch_;
  for (std::size_t i = 0; i < conflict_.size(); ++i) {
    const Cell& c = cells_[static_cast<std::size_t>(conflict_[i])];
    for (int k = 0; k <= dim_; ++k) {
      const int nb = c.nbr[static_cast<std::size_t>(k)];
      if (c.v[static_cast<std::size_t>(k)] == center || nb < 0 ||
          mark_[static_cast<std::size_t>(nb)] == mark_epoch_)
        continue;
      if (in_conflict(cells_[static_cast<std::size_t>(nb)], q)) {
        mark_[static_cast<std::size_t>(nb)] = mark_epoch_;
        conflict_.push_back(nb);
      }
    }
  }
  if (locate_mode_ == LocateMode::kLinearScan) {
    // Reference kernel: the scan marks every conflicting cell, flood or not
    // (with a center, every conflicting star cell: the cells off the star
    // are not maintained).
    for (std::size_t ci = 0; ci < cells_.size(); ++ci) {
      if (!cells_[ci].alive || mark_[ci] == mark_epoch_) continue;
      if (center != kNoCenter && !has_vertex(cells_[ci], center)) continue;
      if (in_conflict(cells_[ci], q)) {
        mark_[ci] = mark_epoch_;
        conflict_.push_back(static_cast<int>(ci));
      }
    }
  }

  // Build one new cell per boundary facet of the conflict region (with a
  // center, per boundary facet through it). New cells reuse tombstoned slots
  // where possible; the dying cells' slots are only recycled after this
  // insert completes, so their vertex/neighbor arrays stay readable
  // throughout.
  created_.clear();
  for (std::size_t i = 0; i < conflict_.size(); ++i) {
    const int ci = conflict_[i];
    for (int k = 0; k <= dim_; ++k) {
      const int nb = cells_[static_cast<std::size_t>(ci)].nbr[static_cast<std::size_t>(k)];
      if (cells_[static_cast<std::size_t>(ci)].v[static_cast<std::size_t>(k)] == center ||
          nb < 0 || mark_[static_cast<std::size_t>(nb)] == mark_epoch_)
        continue;
      // Boundary facet: vertices of the dying cell except v[k]; the facet
      // survives and gets joined to p. p sits at index dim_, opposite it.
      const int fresh_id = alloc_cell();
      Cell& fresh = cells_[static_cast<std::size_t>(fresh_id)];
      fresh.nbr.fill(-1);
      fresh.alive = true;
      int w = 0;
      const Cell& dying = cells_[static_cast<std::size_t>(ci)];
      for (int j = 0; j <= dim_; ++j)
        if (j != k) fresh.v[static_cast<std::size_t>(w++)] = dying.v[static_cast<std::size_t>(j)];
      fresh.v[static_cast<std::size_t>(dim_)] = p;
      fresh.nbr[static_cast<std::size_t>(dim_)] = nb;
      // Redirect the outside neighbor's pointer from the dying cell to us.
      Cell& out = cells_[static_cast<std::size_t>(nb)];
      bool redirected = false;
      for (int j = 0; j <= dim_; ++j)
        if (out.nbr[static_cast<std::size_t>(j)] == ci) {
          out.nbr[static_cast<std::size_t>(j)] = fresh_id;
          redirected = true;
          break;
        }
      if (!redirected) return false;
      if (!cache_circumsphere(fresh)) return false;  // degenerate: retry with more jitter
      created_.push_back(fresh_id);
    }
  }
  if (created_.empty()) return false;

  // Wire new-cell-to-new-cell adjacency across ridges (facets containing p;
  // with a center, those containing it too: a new cell's facet opposite the
  // center borders a new cell off the star, which is not built).
  facets_.reset(dim_, created_.size() * static_cast<std::size_t>(dim_));
  for (int ci : created_) {
    for (int k = 0; k < dim_; ++k) {  // facets opposite each non-p vertex
      if (cells_[static_cast<std::size_t>(ci)].v[static_cast<std::size_t>(k)] == center) continue;
      const FacetKey key = facet_key(cells_[static_cast<std::size_t>(ci)], k, dim_);
      int cj = -1, kj = -1;
      if (facets_.match_or_insert(key, ci, k, &cj, &kj)) {
        cells_[static_cast<std::size_t>(ci)].nbr[static_cast<std::size_t>(k)] = cj;
        cells_[static_cast<std::size_t>(cj)].nbr[static_cast<std::size_t>(kj)] = ci;
      }
    }
  }
  if (!facets_.empty()) return false;  // inconsistent region; caller retries

  for (int ci : conflict_) {
    cells_[static_cast<std::size_t>(ci)].alive = false;
    free_cells_.push_back(ci);
  }
  hint_ = created_.back();
  return true;
}

std::vector<std::pair<int, int>> Triangulation::finite_edges() const {
  // Each edge shows up in every incident cell (five-ish tetrahedra per edge
  // in 3D), so dedup through a small open-addressing set before the final
  // sort instead of sorting the whole multiset.
  std::vector<std::pair<int, int>> edges;
  std::size_t cap = 64;
  while (cap < cells_.size() * static_cast<std::size_t>(dim_ + 1)) cap <<= 1;
  std::vector<std::uint64_t> seen(cap, UINT64_MAX);
  const std::size_t mask = cap - 1;
  for (const Cell& c : cells_) {
    if (!c.alive || infinite_index(c) >= 0) continue;
    for (int i = 0; i <= dim_; ++i)
      for (int j = i + 1; j <= dim_; ++j) {
        const int a = std::min(c.v[static_cast<std::size_t>(i)], c.v[static_cast<std::size_t>(j)]);
        const int b = std::max(c.v[static_cast<std::size_t>(i)], c.v[static_cast<std::size_t>(j)]);
        const std::uint64_t packed =
            (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
            static_cast<std::uint32_t>(b);
        std::size_t s = splitmix(packed) & mask;
        while (seen[s] != UINT64_MAX && seen[s] != packed) s = (s + 1) & mask;
        if (seen[s] == packed) continue;
        seen[s] = packed;
        edges.emplace_back(a, b);
      }
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

bool Triangulation::empty_circumsphere_property(double tol) const {
  std::array<Vec, kMaxVerts> verts;
  for (const Cell& c : cells_) {
    if (!c.alive || infinite_index(c) >= 0) continue;
    for (int i = 0; i <= dim_; ++i)
      verts[static_cast<std::size_t>(i)] =
          pts_[static_cast<std::size_t>(c.v[static_cast<std::size_t>(i)])];
    for (std::size_t pi = 0; pi < pts_.size(); ++pi) {
      if (has_vertex(c, static_cast<int>(pi))) continue;
      if (in_sphere({verts.data(), static_cast<std::size_t>(dim_ + 1)}, pts_[pi]) > tol)
        return false;
    }
  }
  return true;
}

DelaunayGraph delaunay_graph(std::span<const Vec> points, const DelaunayOptions& opts) {
  DelaunayGraph g;
  const int n = static_cast<int>(points.size());
  g.dim = points.empty() ? 0 : points[0].dim();
  g.nbrs.assign(static_cast<std::size_t>(n), {});
  if (n <= 1) return g;

  auto complete = [&] {
    for (int u = 0; u < n; ++u)
      for (int v = u + 1; v < n; ++v) g.edges.emplace_back(u, v);
  };

  // With at most dim+1 points in general position, every pair is a Delaunay
  // neighbor; return the complete graph directly.
  if (n <= g.dim + 1) {
    complete();
  } else {
    bool built = false;
    double rel = opts.jitter_rel;
    for (int attempt = 0; attempt < opts.max_attempts && !built; ++attempt, rel *= 1e3) {
      Triangulation t;
      t.set_jitter(rel, opts.jitter_seed + static_cast<std::uint64_t>(attempt) * 0x1234567ull);
      if (opts.force_linear_scan) t.set_locate_mode(Triangulation::LocateMode::kLinearScan);
      if (t.build(points)) {
        g.edges = t.finite_edges();
        built = true;
      }
    }
    if (!built) {
      GDVR_LOG_WARN("delaunay_graph: triangulation failed after retries (n=%d dim=%d); "
                    "falling back to complete graph",
                    n, g.dim);
      g.complete_graph_fallback = true;
      complete();
    }
  }

  for (const auto& [u, v] : g.edges) {
    g.nbrs[static_cast<std::size_t>(u)].push_back(v);
    g.nbrs[static_cast<std::size_t>(v)].push_back(u);
  }
  for (auto& lst : g.nbrs) std::sort(lst.begin(), lst.end());
  return g;
}

}  // namespace gdvr::geom
