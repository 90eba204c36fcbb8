#include "scenario/geo_wan.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace gdvr::scenario {

namespace {

constexpr double kEarthRadiusKm = 6371.0;
constexpr double kDegToRad = 3.14159265358979323846 / 180.0;
// Propagation speed in fiber is roughly 2/3 c: ~200 km per millisecond.
constexpr double kKmPerMs = 200.0;

}  // namespace

double haversine_km(double lat1, double lon1, double lat2, double lon2) {
  const double phi1 = lat1 * kDegToRad;
  const double phi2 = lat2 * kDegToRad;
  const double dphi = (lat2 - lat1) * kDegToRad;
  const double dlam = (lon2 - lon1) * kDegToRad;
  const double sp = std::sin(0.5 * dphi);
  const double sl = std::sin(0.5 * dlam);
  const double a = sp * sp + std::cos(phi1) * std::cos(phi2) * sl * sl;
  return kEarthRadiusKm * 2.0 * std::atan2(std::sqrt(a), std::sqrt(1.0 - a));
}

radio::Topology make_geo_wan(const GeoWanConfig& config) {
  GDVR_ASSERT(config.n >= 2);
  GDVR_ASSERT(config.drop_fraction >= 0.0 && config.drop_fraction < 1.0);
  Rng rng(config.seed);

  // City centers, then routers normally scattered around a uniformly chosen
  // city, clamped into the box.
  const int cities = std::max(1, config.cities);
  std::vector<std::pair<double, double>> centers;
  centers.reserve(static_cast<std::size_t>(cities));
  for (int c = 0; c < cities; ++c)
    centers.emplace_back(rng.uniform(config.lat_min, config.lat_max),
                         rng.uniform(config.lon_min, config.lon_max));
  std::vector<double> lat(static_cast<std::size_t>(config.n));
  std::vector<double> lon(static_cast<std::size_t>(config.n));
  for (int i = 0; i < config.n; ++i) {
    const auto& [clat, clon] = centers[static_cast<std::size_t>(rng.uniform_index(cities))];
    lat[static_cast<std::size_t>(i)] =
        std::clamp(rng.normal(clat, config.city_spread_deg), config.lat_min, config.lat_max);
    lon[static_cast<std::size_t>(i)] =
        std::clamp(rng.normal(clon, config.city_spread_deg), config.lon_min, config.lon_max);
  }

  // All pairwise great-circle distances (n is WAN-scale, O(n^2) is fine),
  // then the symmetrized k-nearest-neighbor candidate edge set.
  const std::size_t nn = static_cast<std::size_t>(config.n);
  std::vector<double> dist(nn * nn, 0.0);
  for (int i = 0; i < config.n; ++i)
    for (int j = i + 1; j < config.n; ++j) {
      const double d = haversine_km(lat[static_cast<std::size_t>(i)],
                                    lon[static_cast<std::size_t>(i)],
                                    lat[static_cast<std::size_t>(j)],
                                    lon[static_cast<std::size_t>(j)]);
      dist[static_cast<std::size_t>(i) * nn + static_cast<std::size_t>(j)] = d;
      dist[static_cast<std::size_t>(j) * nn + static_cast<std::size_t>(i)] = d;
    }

  struct Edge {
    int i, j;
    double km;
  };
  std::vector<Edge> candidates;
  {
    const int k = std::clamp(config.k_nearest, 1, config.n - 1);
    std::vector<char> picked(nn * nn, 0);
    std::vector<int> order(nn);
    for (int i = 0; i < config.n; ++i) {
      const std::size_t si = static_cast<std::size_t>(i);
      for (int j = 0; j < config.n; ++j) order[static_cast<std::size_t>(j)] = j;
      std::nth_element(order.begin(), order.begin() + k, order.end(), [&](int a, int b) {
        // Self-distance is 0; push i past the k nearest by treating it as inf.
        const double da = a == i ? 1e30 : dist[si * nn + static_cast<std::size_t>(a)];
        const double db = b == i ? 1e30 : dist[si * nn + static_cast<std::size_t>(b)];
        if (da != db) return da < db;
        return a < b;
      });
      for (int r = 0; r < k; ++r) {
        const int j = order[static_cast<std::size_t>(r)];
        const int a = std::min(i, j), b = std::max(i, j);
        char& seen = picked[static_cast<std::size_t>(a) * nn + static_cast<std::size_t>(b)];
        if (seen) continue;
        seen = 1;
        candidates.push_back({a, b, dist[static_cast<std::size_t>(a) * nn +
                                         static_cast<std::size_t>(b)]});
      }
    }
    // nth_element leaves the k nearest in unspecified order; sort candidates
    // so the drop lottery below is enumeration-order independent.
    std::sort(candidates.begin(), candidates.end(), [](const Edge& a, const Edge& b) {
      if (a.i != b.i) return a.i < b.i;
      return a.j < b.j;
    });
  }

  // Drop `drop_fraction` of the candidates: Fisher-Yates the kept prefix,
  // mirroring the snippet's random.sample(edges, keep).
  const std::size_t keep = static_cast<std::size_t>(
      std::llround(static_cast<double>(candidates.size()) * (1.0 - config.drop_fraction)));
  for (std::size_t r = 0; r < keep && r + 1 < candidates.size(); ++r) {
    const std::size_t pick =
        r + static_cast<std::size_t>(rng.uniform_int(candidates.size() - r));
    std::swap(candidates[r], candidates[pick]);
  }
  candidates.resize(keep);
  std::sort(candidates.begin(), candidates.end(), [](const Edge& a, const Edge& b) {
    if (a.i != b.i) return a.i < b.i;
    return a.j < b.j;
  });

  // Project (lat, lon) to kilometers: equirectangular about the box's middle
  // latitude, shifted into the positive quadrant. Great-circle edge costs
  // come from the haversine distances, not from these projected positions --
  // the projection only gives the greedy routers a 2D embedding to steer by,
  // so position-space and cost-space disagree slightly (as they do on any
  // real WAN), which is part of what this scenario tests.
  radio::Topology topo;
  const double mid_phi = 0.5 * (config.lat_min + config.lat_max) * kDegToRad;
  const double kx = kEarthRadiusKm * std::cos(mid_phi) * kDegToRad;
  const double ky = kEarthRadiusKm * kDegToRad;
  topo.positions.reserve(nn);
  for (std::size_t i = 0; i < nn; ++i)
    topo.positions.push_back(Vec{(lon[i] - config.lon_min) * kx,
                                 (lat[i] - config.lat_min) * ky});

  // ETX and energy both carry the great-circle distance, ETT its delay.
  graph::GraphBuilder km(config.n), ms(config.n);
  for (const Edge& e : candidates) {
    km.add_bidirectional(e.i, e.j, e.km, e.km);
    const double delay = e.km / kKmPerMs;
    ms.add_bidirectional(e.i, e.j, delay, delay);
  }
  topo.etx = km.build();
  topo.hops = topo.etx.with_unit_costs();
  topo.ett = ms.build();
  topo.energy = topo.etx;
  return radio::keep_largest_component(std::move(topo));
}

}  // namespace gdvr::scenario
