#include "geom/dynamic_delaunay.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace gdvr::geom {

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Deterministic jitter in [-1, 1) keyed by (seed, key hash, coordinate) --
// the keyed counterpart of the per-index jitter in delaunay.cpp.
double jitter_unit(std::uint64_t seed, std::uint64_t kh, int coord) {
  const std::uint64_t h = splitmix(seed ^ splitmix(kh * 131 + static_cast<std::uint64_t>(coord)));
  return static_cast<double>(h >> 11) * 0x1.0p-52 - 1.0;
}

// Binary search over a key-sorted vector of pairs: position a key would
// occupy, and exact-match lookup (end() when absent).
template <class Flat>
auto key_slot(Flat& v, DynamicDelaunay::Key k) {
  return std::lower_bound(v.begin(), v.end(), k,
                          [](const auto& e, DynamicDelaunay::Key key) { return e.first < key; });
}

template <class Flat>
auto key_find(Flat& v, DynamicDelaunay::Key k) {
  auto it = key_slot(v, k);
  return (it != v.end() && it->first == k) ? it : v.end();
}

}  // namespace

DynamicDelaunay::DynamicDelaunay(int dim, const DelaunayOptions& opts)
    : dim_(dim), opts_(opts) {
  GDVR_ASSERT(dim >= 2 && dim <= 12);
  if (opts_.force_linear_scan) tri_.set_locate_mode(Triangulation::LocateMode::kLinearScan);
  // All jitter is applied here, keyed by Key; the Triangulation must not add
  // a second, index-keyed layer on rebuilds.
  tri_.set_jitter(0.0, 0);
}

Vec DynamicDelaunay::jittered(Key key, const Vec& pos, int level) const {
  // Magnitude is relative to the point's own coordinate scale rather than
  // the set's bounding box: the set changes under churn, the point does not,
  // and the oracle contract needs jitter to depend on nothing mutable.
  double scale = 1.0;
  for (int c = 0; c < dim_; ++c) scale = std::max(scale, std::abs(pos[c]));
  double mag = opts_.jitter_rel * scale;
  for (int l = 0; l < level; ++l) mag *= 1e3;
  const std::uint64_t kh = splitmix(static_cast<std::uint64_t>(key));
  const std::uint64_t seed =
      opts_.jitter_seed + static_cast<std::uint64_t>(level) * 0x1234567ull;
  Vec out = pos;
  for (int c = 0; c < dim_; ++c) out[c] += mag * jitter_unit(seed, kh, c);
  return out;
}

bool DynamicDelaunay::contains(Key key) const { return key_find(raw_, key) != raw_.end(); }

void DynamicDelaunay::assign(std::span<const std::pair<Key, Vec>> points) {
  raw_.clear();
  for (const auto& [k, p] : points) {
    GDVR_ASSERT(p.dim() == dim_);
    auto it = key_slot(raw_, k);
    if (it != raw_.end() && it->first == k)
      it->second = p;
    else
      raw_.insert(it, {k, p});
  }
  rebuild();
}

void DynamicDelaunay::rebuild() {
  tri_ok_ = false;
  idx_.clear();
  key_of_.clear();
  const int n = static_cast<int>(raw_.size());
  if (n < dim_ + 2) return;  // with <= dim+1 points every pair is a DT neighbor
  // The same escalation ladder as delaunay_graph(): retry with 1000x the
  // jitter when a build fails on a degenerate set. The level is part of the
  // coordinates, so a from-scratch oracle walking the same ladder on the
  // same set lands on the same jittered points.
  for (int lv = 0; lv < std::max(1, opts_.max_attempts) && !tri_ok_; ++lv) {
    pts_scratch_.clear();
    for (const auto& [k, p] : raw_) pts_scratch_.push_back(jittered(k, p, lv));
    if (tri_.build(pts_scratch_)) {
      tri_ok_ = true;
      level_ = lv;
    }
  }
  if (!tri_ok_) {
    GDVR_LOG_WARN(
        "DynamicDelaunay: rebuild failed after retries (n=%d dim=%d); "
        "complete-graph fallback",
        n, dim_);
    return;
  }
  key_of_.reserve(raw_.size());
  idx_.reserve(raw_.size());
  int i = 0;
  for (const auto& [k, p] : raw_) {
    (void)p;
    idx_.push_back({k, i});  // raw_ is key-sorted, so idx_ comes out sorted too
    key_of_.push_back(k);
    ++i;
  }
}

void DynamicDelaunay::insert(Key key, const Vec& pos) {
  GDVR_ASSERT(pos.dim() == dim_);
  ++stats_.inserts;
  auto rt = key_slot(raw_, key);
  GDVR_ASSERT(rt == raw_.end() || rt->first != key);
  raw_.insert(rt, {key, pos});
  if (!tri_ok_) {
    // Either still below the triangulable size (first viable build is not a
    // fallback) or in degenerate fallback, where a fresh point may well make
    // the set triangulable again.
    if (static_cast<int>(raw_.size()) >= dim_ + 2) rebuild();
    return;
  }
  const int idx = tri_.insert_point(jittered(key, pos, level_));
  if (idx < 0) {
    ++stats_.full_rebuilds;
    rebuild();
    return;
  }
  if (idx == static_cast<int>(key_of_.size()))
    key_of_.push_back(key);
  else
    key_of_[static_cast<std::size_t>(idx)] = key;
  auto it = key_slot(idx_, key);
  if (it != idx_.end() && it->first == key)
    it->second = idx;
  else
    idx_.insert(it, {key, idx});
}

void DynamicDelaunay::remove(Key key) {
  auto it = key_find(raw_, key);
  if (it == raw_.end()) return;
  ++stats_.removes;
  raw_.erase(it);
  if (!tri_ok_) {
    if (static_cast<int>(raw_.size()) >= dim_ + 2) rebuild();  // degenerate point may be gone
    return;
  }
  if (static_cast<int>(raw_.size()) < dim_ + 2) {
    tri_ok_ = false;  // too small to triangulate: complete-graph mode
    idx_.clear();
    key_of_.clear();
    return;
  }
  auto ii = key_find(idx_, key);
  if (ii == idx_.end() || !tri_.remove_point(ii->second)) {
    ++stats_.full_rebuilds;
    rebuild();
    return;
  }
  idx_.erase(ii);
}

void DynamicDelaunay::move(Key key, const Vec& pos) {
  auto it = key_find(raw_, key);
  GDVR_ASSERT(it != raw_.end());
  GDVR_ASSERT(pos.dim() == dim_);
  ++stats_.moves;
  if (it->second == pos) return;
  it->second = pos;
  if (!tri_ok_) {
    if (idx_.empty() && static_cast<int>(raw_.size()) >= dim_ + 2)
      rebuild();  // degenerate fallback: the move may have broken the tie
    return;
  }
  const auto ii = key_find(idx_, key);
  if (ii == idx_.end() || !tri_.move_point(ii->second, jittered(key, pos, level_))) {
    ++stats_.full_rebuilds;
    rebuild();
  }
}

bool DynamicDelaunay::update(std::span<const std::pair<Key, Vec>> points) {
  // Two-pointer diff of the key-sorted input against raw_.
  removed_scratch_.clear();
  inserted_scratch_.clear();
  moved_scratch_.clear();
  std::size_t ni = 0;
  for (auto old = raw_.begin(); old != raw_.end() || ni < points.size();) {
    if (ni == points.size() || (old != raw_.end() && old->first < points[ni].first)) {
      removed_scratch_.push_back(old->first);
      ++old;
      continue;
    }
    GDVR_ASSERT(ni == 0 || points[ni - 1].first < points[ni].first);
    GDVR_ASSERT(points[ni].second.dim() == dim_);
    if (old == raw_.end() || points[ni].first < old->first) {
      inserted_scratch_.push_back(ni);
    } else {
      if (!(old->second == points[ni].second)) moved_scratch_.push_back(ni);
      ++old;
    }
    ++ni;
  }
  if (removed_scratch_.empty() && inserted_scratch_.empty() && moved_scratch_.empty())
    return false;

  // The bar is half a rebuild, not a whole one: a rebuild is about one
  // insert per live point, but the per-point ops run on a complex the diff
  // keeps perturbing and their constants are worse than bulk insertion.
  // Measured on the VPoD steady state, n/2 and n/3 tie while a full-n bar
  // loses ~15% by staying per-point too long.
  const std::size_t cost =
      inserted_scratch_.size() + 2 * removed_scratch_.size() + 3 * moved_scratch_.size();
  if (!tri_ok_ || cost > raw_.size() / 2) {
    // Undersized, complete-graph or dense diff: one build over the new set
    // (a nudge may also make a degenerate set triangulable again).
    stats_.inserts += inserted_scratch_.size();
    stats_.removes += removed_scratch_.size();
    stats_.moves += moved_scratch_.size();
    if (tri_ok_) ++stats_.full_rebuilds;
    assign(points);
    return true;
  }
  // remove()/insert()/move() recover from their own failures with a rebuild.
  for (Key k : removed_scratch_) remove(k);
  for (std::size_t i : inserted_scratch_) insert(points[i].first, points[i].second);
  for (std::size_t i : moved_scratch_) move(points[i].first, points[i].second);
  return true;
}

std::vector<DynamicDelaunay::Key> DynamicDelaunay::neighbors(Key key) {
  std::vector<Key> out;
  if (!contains(key)) return out;
  if (tri_ok_) {
    const auto ii = key_find(idx_, key);
    if (ii != idx_.end() && tri_.vertex_neighbors(ii->second, nbr_scratch_)) {
      out.reserve(nbr_scratch_.size());
      for (int vi : nbr_scratch_) out.push_back(key_of_[static_cast<std::size_t>(vi)]);
      std::sort(out.begin(), out.end());
      return out;
    }
    // A live complex whose star walk fails is poisoned: rebuild and retry.
    ++stats_.full_rebuilds;
    rebuild();
    if (tri_ok_) {
      const auto ij = key_find(idx_, key);
      if (ij != idx_.end() && tri_.vertex_neighbors(ij->second, nbr_scratch_)) {
        out.reserve(nbr_scratch_.size());
        for (int vi : nbr_scratch_) out.push_back(key_of_[static_cast<std::size_t>(vi)]);
        std::sort(out.begin(), out.end());
        return out;
      }
    }
  }
  // Complete-graph mode.
  out.reserve(raw_.size());
  for (const auto& [k, p] : raw_) {
    (void)p;
    if (k != key) out.push_back(k);
  }
  return out;
}

DynamicDtStats DynamicDelaunay::stats() const {
  DynamicDtStats s = stats_;
  // tri_ persists across rebuilds (build() reassigns the complex but never
  // resets the counter), so this is monotone over the instance's lifetime.
  s.walk_fallbacks = tri_.walk_fallbacks();
  return s;
}

}  // namespace gdvr::geom
