#include "scenario/mobility.hpp"

#include <algorithm>
#include <cmath>

#include "common/assert.hpp"

namespace gdvr::scenario {

MobilityDriver::MobilityDriver(const MobilityConfig& config) : config_(config) {
  GDVR_ASSERT(config.n > 0);
  GDVR_ASSERT(config.speed_min_mps > 0.0 && config.speed_max_mps >= config.speed_min_mps);
  const double auto_side = 100.0 * std::sqrt(static_cast<double>(config.n) / 200.0);
  width_m_ = config.width_m > 0.0 ? config.width_m : auto_side;
  height_m_ = config.height_m > 0.0 ? config.height_m : auto_side;
  init_nodes();
}

void MobilityDriver::reset() { init_nodes(); }

void MobilityDriver::init_nodes() {
  const std::size_t n = static_cast<std::size_t>(config_.n);
  positions_.assign(n, Vec{0.0, 0.0});
  nodes_.assign(n, NodeState());
  moved_.clear();
  Rng base(config_.seed);
  const Vec extent{width_m_, height_m_};

  if (config_.model == MobilityConfig::Model::kRandomWaypoint) {
    for (std::size_t i = 0; i < n; ++i) {
      NodeState& s = nodes_[i];
      s.rng = base.split(static_cast<std::uint64_t>(i));
      positions_[i] = s.rng.point_in_box(extent);
      s.target = s.rng.point_in_box(extent);
      s.speed = s.rng.uniform(config_.speed_min_mps, config_.speed_max_mps);
    }
    return;
  }

  // kGroup: the first `groups` node indices are leaders doing random
  // waypoint; the rest are members tethered to leader (i % groups).
  const int groups = std::clamp(config_.groups, 1, config_.n);
  for (std::size_t i = 0; i < n; ++i) {
    NodeState& s = nodes_[i];
    s.rng = base.split(static_cast<std::uint64_t>(i));
    if (static_cast<int>(i) < groups) {
      positions_[i] = s.rng.point_in_box(extent);
      s.target = s.rng.point_in_box(extent);
      s.speed = s.rng.uniform(config_.speed_min_mps, config_.speed_max_mps);
    } else {
      s.leader = static_cast<int>(i) % groups;
      const double ang = s.rng.uniform(0.0, 6.283185307179586);
      const double rad = config_.group_radius_m * std::sqrt(s.rng.uniform());
      s.offset = Vec{rad * std::cos(ang), rad * std::sin(ang)};
    }
  }
  // Members start at their nominal spot around the leader's initial position.
  for (std::size_t i = 0; i < n; ++i) {
    NodeState& s = nodes_[i];
    if (s.leader < 0) continue;
    Vec p = positions_[static_cast<std::size_t>(s.leader)] + s.offset;
    p[0] = std::clamp(p[0], 0.0, width_m_);
    p[1] = std::clamp(p[1], 0.0, height_m_);
    positions_[i] = p;
  }
}

void MobilityDriver::step_waypoint(int i, double dt) {
  const std::size_t si = static_cast<std::size_t>(i);
  NodeState& s = nodes_[si];
  double budget = dt;
  while (budget > 0.0) {
    if (s.pause_left > 0.0) {
      const double rest = std::min(s.pause_left, budget);
      s.pause_left -= rest;
      budget -= rest;
      continue;
    }
    const Vec to = s.target - positions_[si];
    const double d = to.norm();
    const double reach = s.speed * budget;
    if (reach < d) {
      positions_[si] = positions_[si] + to * (reach / d);
      break;
    }
    // Arrive, pause, then draw the next leg.
    positions_[si] = s.target;
    budget -= s.speed > 0.0 ? d / s.speed : budget;
    s.pause_left = config_.pause_s;
    s.target = s.rng.point_in_box(Vec{width_m_, height_m_});
    s.speed = s.rng.uniform(config_.speed_min_mps, config_.speed_max_mps);
  }
}

void MobilityDriver::step(double dt) {
  GDVR_ASSERT(dt > 0.0);
  moved_.clear();
  const std::size_t n = positions_.size();
  std::vector<Vec> before(positions_);
  for (std::size_t i = 0; i < n; ++i)
    if (nodes_[i].leader < 0) step_waypoint(static_cast<int>(i), dt);
  // Members follow after every leader has moved this step.
  for (std::size_t i = 0; i < n; ++i) {
    NodeState& s = nodes_[i];
    if (s.leader < 0) continue;
    const double ang = s.rng.uniform(0.0, 6.283185307179586);
    const double rad = 0.25 * config_.group_radius_m * s.rng.uniform();
    Vec p = positions_[static_cast<std::size_t>(s.leader)] + s.offset +
            Vec{rad * std::cos(ang), rad * std::sin(ang)};
    p[0] = std::clamp(p[0], 0.0, width_m_);
    p[1] = std::clamp(p[1], 0.0, height_m_);
    positions_[i] = p;
  }
  for (std::size_t i = 0; i < n; ++i)
    if (!(positions_[i] == before[i])) moved_.push_back(static_cast<int>(i));
}

}  // namespace gdvr::scenario
