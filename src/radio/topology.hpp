// Topology generation: random node placement in a 2D physical space with the
// lossy link model, optional rectangular obstacles, and regular grids.
//
// This reproduces the paper's methodology (Section IV-A): N nodes placed
// uniformly at random; a physical link exists when PRR > 0.1; ETX per
// direction is 1/PRR; obstacles are squares that exclude node placement and
// block any link whose line of sight intersects them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/vec.hpp"
#include "graph/graph.hpp"
#include "radio/link_model.hpp"

namespace gdvr::radio {

struct Obstacle {
  double x0 = 0.0, y0 = 0.0, x1 = 0.0, y1 = 0.0;  // axis-aligned, x0<x1, y0<y1

  bool contains(const Vec& p) const {
    return p[0] >= x0 && p[0] <= x1 && p[1] >= y0 && p[1] <= y1;
  }
  // True iff the open segment a-b crosses this rectangle.
  bool blocks(const Vec& a, const Vec& b) const;
};

// Routing metrics the generator can derive for every link. All are positive
// and additive, as GDV requires (paper Section III-A).
enum class Metric {
  kHopCount,  // 1 per link
  kEtx,       // expected transmissions: 1 / PRR, per direction
  kEtt,       // expected transmission time: ETX * frame_time / bandwidth share
  kEnergy,    // transmit energy: ETX * per-attempt energy (power-dependent)
};

struct TopologyConfig {
  int n = 200;
  double width_m = 100.0;
  double height_m = 100.0;
  // Physical space dimension: 2 (paper default) or 3 (paper Sec. I: GDV
  // provides guaranteed delivery for nodes placed in 2D, 3D and higher).
  // In 3D the z extent equals depth_m; obstacles are 2D-only.
  int space_dim = 2;
  double depth_m = 100.0;
  LinkModelParams radio;
  double prr_threshold = 0.1;
  int num_obstacles = 0;
  double obstacle_size_m = 10.0;
  std::uint64_t seed = 1;
  // When > 0, tx_power_dbm is auto-tuned so the generated network has about
  // this average physical degree (the paper keeps 14.5 at every N).
  double target_avg_degree = 0.0;
  // ETT model: nominal link rate is drawn per link pair from this range
  // (multi-rate radios), frame_bits from the radio config.
  double min_rate_mbps = 1.0;
  double max_rate_mbps = 11.0;
};

struct Topology {
  std::vector<Vec> positions;       // true physical positions (2D or 3D)
  graph::Graph etx;                 // directed ETX link costs (1/PRR)
  graph::Graph hops;                // same adjacency, unit costs
  graph::Graph ett;                 // expected transmission time (ms)
  graph::Graph energy;              // transmit energy per delivered packet (uJ)
  std::vector<Obstacle> obstacles;
  LinkModelParams radio;            // parameters actually used (post-calibration)

  int size() const { return static_cast<int>(positions.size()); }
  const graph::Graph& metric_graph(bool use_etx) const { return use_etx ? etx : hops; }
  const graph::Graph& metric_graph(Metric m) const {
    switch (m) {
      case Metric::kHopCount: return hops;
      case Metric::kEtx: return etx;
      case Metric::kEtt: return ett;
      case Metric::kEnergy: return energy;
    }
    return hops;
  }
};

const char* metric_name(Metric m);

// The part of `topo` on the nodes in `keep` (ascending ids; node keep[i]
// becomes node i): their positions and every link among them, in all four
// metric graphs. Obstacles and radio parameters carry over.
Topology induced_topology(const Topology& topo, std::span<const int> keep);

// `topo` restricted to its largest connected component
// (graph::largest_component of the ETX graph); a connected topology comes
// back as it is. Routing experiments need a connected graph, so the random
// generators and make_geo_wan end here.
Topology keep_largest_component(Topology topo);

// Random lossy-radio topology per the config, restricted to its largest
// connected component (ids compacted). Deterministic in `seed`.
Topology make_random_topology(const TopologyConfig& config);

// Realizes the lossy-radio link model over externally supplied positions
// (mobility rounds, scripted layouts) instead of placing nodes itself;
// config.n is ignored in favor of positions.size(). Per-node hardware
// offsets and obstacles are drawn from config.seed exactly as in
// make_random_topology, and link realization uses the same counter-based
// per-pair randomness -- so for a fixed seed, successive mobility rounds see
// stable hardware and a link set that depends only on where the two
// endpoints currently are, never on how the rest of the network moved.
Topology make_topology_from_positions(const TopologyConfig& config,
                                      std::vector<Vec> positions);

// Regular grid with ideal (PRR = 1) links between nodes within
// `connect_radius_factor * spacing` of each other; factor 1.0 gives the
// 4-neighbor grid of the paper's Figure 1. Used by the grid embedding
// experiments (Figures 1, 2, 5).
Topology make_grid(int rows, int cols, double spacing_m = 1.0,
                   double connect_radius_factor = 1.0);

// Spatial shard partition for the sharded simulator engine (DESIGN.md §4g):
// buckets nodes on the same uniform grid the link scan uses, then packs the
// grid cells -- visited in row-major order, so consecutive cells are spatial
// neighbors -- into `shards` groups with balanced node counts. Physical
// neighbors land in the same or a nearby shard with high probability, which
// keeps cross-shard message traffic (and thus barrier pressure) low.
// `shards == 0` picks clamp(n / 128, 1, 64), overridable via the
// GDVR_SIM_SHARDS environment variable. Returns one shard id in [0, k) per
// node, suitable for Simulator::configure_sharding.
std::vector<int> spatial_shards(const Topology& topo, int shards = 0);

// Binary-searches the transmit power that yields `target_avg_degree` for the
// given config: 24 steps over [-30, 30] dBm, each reading the average degree
// 2 * links / n of three placements (seeds seed + 7919 s, s = 0..2) over all
// their nodes. The placements are drawn once; a step only counts the links
// the sweep admits at its power.
double calibrate_tx_power(const TopologyConfig& config, double target_avg_degree);

// Randomly places `count` square obstacles (side `size_m`) fully inside the
// area. Deterministic in `rng`.
std::vector<Obstacle> random_obstacles(int count, double size_m, double width_m, double height_m,
                                       Rng& rng);

}  // namespace gdvr::radio
