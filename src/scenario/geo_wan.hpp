// Geographic WAN topologies: lat/lon router sets with haversine great-circle
// link costs and fractional edge drop.
//
// This is the workload of the distance-vector exemplar (SNIPPETS.md snippet
// 1): routers at geographic coordinates, candidate links weighted by
// great-circle kilometers, and a fraction of candidate edges removed to
// simulate network sparsity. Unlike the snippet's complete graph we start
// from the k-nearest-neighbor graph -- at WAN scale a complete graph makes
// greedy routing trivially one-hop -- and then drop `drop_fraction` of the
// candidate edges at random, which is what creates the long-way-around
// detours that stress greedy forwarding on Internet-like geometry.
//
// The emitted Topology reuses the standard metric slots with WAN semantics:
//   etx    = great-circle kilometers (the routing cost)
//   hops   = 1 per link (for stretch accounting)
//   ett    = propagation delay in ms (km / 200 km-per-ms fiber speed)
//   energy = kilometers (no radio energy model on a WAN)
// Positions are an equirectangular projection of (lat, lon) into kilometers,
// shifted to the positive quadrant, so everything downstream that consumes
// positions (centralized MDT, GPSR planarization, spatial shards) works
// unchanged.
#pragma once

#include <cstdint>

#include "radio/topology.hpp"

namespace gdvr::scenario {

struct GeoWanConfig {
  int n = 120;
  std::uint64_t seed = 1;
  // Geographic box the routers are scattered over; defaults approximate the
  // continental United States.
  double lat_min = 25.0, lat_max = 49.0;
  double lon_min = -124.0, lon_max = -67.0;
  // Routers cluster around `cities` metro centers (normal spread in degrees)
  // rather than filling the box uniformly -- WAN node density is lumpy.
  int cities = 12;
  double city_spread_deg = 1.5;
  // Candidate links: each router connects to its k nearest routers by
  // great-circle distance (symmetrized).
  int k_nearest = 6;
  // Fraction of candidate edges removed at random (snippet 1's T).
  double drop_fraction = 0.15;
};

// Great-circle distance in kilometers between two (lat, lon) points in
// degrees (haversine formula, R = 6371 km).
double haversine_km(double lat1, double lon1, double lat2, double lon2);

// The backbone's largest connected component (ids compacted), like every
// radio generator's output.
radio::Topology make_geo_wan(const GeoWanConfig& config);

}  // namespace gdvr::scenario
