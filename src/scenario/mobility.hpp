// Continuous mobility drivers: random-waypoint and RPGM-style group motion.
//
// A MobilityDriver owns per-node kinematic state and advances it in discrete
// steps; each step reports which nodes moved, so consumers can hand the new
// positions to an incremental path (DynamicDelaunay::update, the local-DT
// maintenance under MdtOverlay::recompute) instead of rebuilding from scratch
// every round.
//
// Models:
//  * kRandomWaypoint -- each node independently picks a uniform waypoint and
//    a uniform speed, travels there in a straight line, pauses, repeats.
//  * kGroup -- RPGM: `groups` leaders do random-waypoint; members hold a
//    fixed offset from their leader plus a small per-step jitter inside
//    group_radius_m, so clusters of nodes move coherently (vehicle convoys,
//    conference crowds).
//
// Determinism: all state derives from per-node Rng::split streams of
// config.seed, so a (config, step count) pair always reproduces the same
// positions regardless of how the steps were batched.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/vec.hpp"

namespace gdvr::scenario {

struct MobilityConfig {
  enum class Model { kRandomWaypoint, kGroup };
  Model model = Model::kRandomWaypoint;
  int n = 120;
  // Placement box; 0 auto-scales like the paper's workload (200 nodes per
  // 100 m x 100 m, i.e. side = 100 * sqrt(n / 200)).
  double width_m = 0.0;
  double height_m = 0.0;
  double speed_min_mps = 0.5;
  double speed_max_mps = 2.0;
  double pause_s = 2.0;        // dwell at each waypoint (random-waypoint)
  int groups = 6;              // kGroup: number of leaders
  double group_radius_m = 8.0; // kGroup: member jitter radius around offset
  std::uint64_t seed = 1;
};

class MobilityDriver {
 public:
  explicit MobilityDriver(const MobilityConfig& config);

  const std::vector<Vec>& positions() const { return positions_; }
  double width_m() const { return width_m_; }
  double height_m() const { return height_m_; }

  // Indices of nodes whose position changed in the last step().
  const std::vector<int>& moved() const { return moved_; }

  // Advance all nodes by dt seconds.
  void step(double dt);

  // Back to the initial (step-0) placement and kinematic state.
  void reset();

 private:
  struct NodeState {
    Rng rng;          // private stream: waypoint, speed, pause, jitter draws
    Vec target;       // current waypoint (leaders / independent nodes)
    double speed = 0.0;
    double pause_left = 0.0;
    int leader = -1;  // kGroup members: index of their leader
    Vec offset;       // kGroup members: nominal offset from the leader
  };

  void init_nodes();
  void step_waypoint(int i, double dt);

  MobilityConfig config_;
  double width_m_ = 0.0, height_m_ = 0.0;
  std::vector<Vec> positions_;
  std::vector<NodeState> nodes_;
  std::vector<int> moved_;
};

}  // namespace gdvr::scenario
