#include "geom/local_delaunay.hpp"

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

// Star scratch, one per thread: the sharded engine recomputes different
// nodes concurrently, and nothing here outlives one recompute.
struct StarScratch {
  Triangulation tri;
  std::vector<Vec> pts;
  std::vector<int> nbrs;
};

StarScratch& star_scratch() {
  thread_local StarScratch scratch;
  return scratch;
}

}  // namespace

Vec LocalDelaunay::jittered(Key key, const Vec& pos, int level) const {
  // Magnitude is relative to the point's own coordinate scale rather than
  // the set's bounding box: the set changes under churn, the point does not,
  // so a point's coordinates depend on nothing but itself.
  const int dim = pos.dim();
  double scale = 1.0;
  for (int c = 0; c < dim; ++c) scale = std::max(scale, std::abs(pos[c]));
  double mag = opts_.jitter_rel * scale;
  for (int l = 0; l < level; ++l) mag *= 1e3;
  const std::uint64_t kh = splitmix(static_cast<std::uint64_t>(key));
  const std::uint64_t seed =
      opts_.jitter_seed + static_cast<std::uint64_t>(level) * 0x1234567ull;
  Vec out = pos;
  for (int c = 0; c < dim; ++c) out[c] += mag * jitter_unit(seed, kh, c);
  return out;
}

bool LocalDelaunay::update(Key center, std::span<const std::pair<Key, Vec>> points) {
  GDVR_ASSERT(!points.empty());
  const int dim = points[0].second.dim();
  // Whether the certified star is still u's star (DESIGN.md §4h): a removed
  // or moved key must be neither u nor in N_u, and a new position must
  // conflict with no certified cell.
  bool certified = !cert_.empty() && center == center_ && points_[0].second.dim() == dim &&
                   points.size() >= static_cast<std::size_t>(dim + 2);
  const auto in_star = [&](Key k) {
    return k == center || std::binary_search(nbrs_.begin(), nbrs_.end(), k);
  };
  const auto conflicts = [&](const std::pair<Key, Vec>& e) {
    return cert_.conflicts(jittered(e.first, e.second, 0));
  };
  // Two-pointer key diff of the input against the previous one.
  std::uint64_t inserts = 0, removes = 0, moves = 0;
  std::size_t ni = 0;
  for (auto old = points_.begin(); old != points_.end() || ni < points.size();) {
    if (ni == points.size() || (old != points_.end() && old->first < points[ni].first)) {
      ++removes;
      certified = certified && !in_star(old->first);
      ++old;
      continue;
    }
    GDVR_ASSERT(ni == 0 || points[ni - 1].first < points[ni].first);
    GDVR_ASSERT(points[ni].second.dim() == dim);
    if (old == points_.end() || points[ni].first < old->first) {
      ++inserts;
      certified = certified && !conflicts(points[ni]);
    } else {
      if (!(old->second == points[ni].second)) {
        ++moves;
        certified = certified && !in_star(old->first) && !conflicts(points[ni]);
      }
      ++old;
    }
    ++ni;
  }
  if (inserts == 0 && removes == 0 && moves == 0 && center == center_) return false;
  stats_.inserts += inserts;
  stats_.removes += removes;
  stats_.moves += moves;
  center_ = center;
  points_.assign(points.begin(), points.end());
  if (certified)
    stats_.move_early_outs += moves;
  else
    recompute();
  return true;
}

void LocalDelaunay::recompute() {
  nbrs_.clear();
  const auto self = std::lower_bound(
      points_.begin(), points_.end(), center_,
      [](const std::pair<Key, Vec>& e, Key key) { return e.first < key; });
  GDVR_ASSERT(self != points_.end() && self->first == center_);
  const int n = static_cast<int>(points_.size());
  const int dim = points_[0].second.dim();
  if (n >= dim + 2) {  // with <= dim+1 points every pair is a DT neighbor
    StarScratch& s = star_scratch();
    s.tri.set_locate_mode(opts_.force_linear_scan ? Triangulation::LocateMode::kLinearScan
                                                  : Triangulation::LocateMode::kWalk);
    for (int lv = 0; lv < std::max(1, opts_.max_attempts); ++lv) {
      s.pts.clear();
      for (const auto& [k, p] : points_) s.pts.push_back(jittered(k, p, lv));
      if (s.tri.star_neighbors(s.pts, static_cast<int>(self - points_.begin()), s.nbrs, cert_)) {
        if (lv > 0) {
          // The next update jitters changed points at level 0 only.
          cert_.clear();
          ++stats_.full_rebuilds;
        }
        // Indices follow the key-sorted input, so the keys come out sorted.
        for (int i : s.nbrs) nbrs_.push_back(points_[static_cast<std::size_t>(i)].first);
        return;
      }
    }
    GDVR_LOG_WARN(
        "LocalDelaunay: star failed after retries (n=%d dim=%d); complete-graph fallback", n,
        dim);
    ++stats_.full_rebuilds;
  }
  cert_.clear();
  for (const auto& [k, p] : points_)
    if (k != center_) nbrs_.push_back(k);
}

}  // namespace gdvr::geom
