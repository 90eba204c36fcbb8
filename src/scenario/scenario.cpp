#include "scenario/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "sim/churn.hpp"

namespace gdvr::scenario {

namespace {

radio::TopologyConfig paper_config(int n, std::uint64_t seed) {
  radio::TopologyConfig tc;
  tc.n = n;
  tc.seed = seed;
  const double scale = std::sqrt(static_cast<double>(n) / 200.0);
  tc.width_m = 100.0 * scale;
  tc.height_m = 100.0 * scale;
  tc.target_avg_degree = 14.5;
  return tc;
}

class UnitSquareScenario final : public Scenario {
 public:
  UnitSquareScenario(int n, std::uint64_t seed, int rounds)
      : n_(n), seed_(seed), rounds_(rounds) {}
  const std::string& name() const override { return name_; }
  int rounds() const override { return rounds_; }
  Round round(int k) override {
    GDVR_ASSERT(k >= 0 && k < rounds_);
    Round r;
    r.time_s = static_cast<double>(k);
    r.topo = radio::make_random_topology(paper_config(n_, seed_ + static_cast<std::uint64_t>(k)));
    return r;
  }

 private:
  std::string name_ = "unit_square";
  int n_;
  std::uint64_t seed_;
  int rounds_;
};

class GeoWanScenario final : public Scenario {
 public:
  GeoWanScenario(const GeoWanConfig& config, int rounds) : config_(config), rounds_(rounds) {}
  const std::string& name() const override { return name_; }
  int rounds() const override { return rounds_; }
  Round round(int k) override {
    GDVR_ASSERT(k >= 0 && k < rounds_);
    GeoWanConfig c = config_;
    c.seed += static_cast<std::uint64_t>(k);
    Round r;
    r.time_s = static_cast<double>(k);
    r.topo = make_geo_wan(c);
    return r;
  }

 private:
  std::string name_ = "geo_wan";
  GeoWanConfig config_;
  int rounds_;
};

class MobilityScenario final : public Scenario {
 public:
  explicit MobilityScenario(const MobilityScenarioConfig& config)
      : config_(config), driver_(config.mobility) {
    name_ = config.mobility.model == MobilityConfig::Model::kGroup ? "mobility_group"
                                                                   : "mobility_waypoint";
    // Radio config the rounds share. The seed is the mobility seed and the
    // node count never changes, so make_topology_from_positions draws the
    // same obstacles (none) and per-node hardware every round: the only
    // round-to-round difference in the link set is the motion itself.
    tc_.n = config.mobility.n;
    tc_.seed = config.mobility.seed;
    tc_.width_m = driver_.width_m();
    tc_.height_m = driver_.height_m();
    tc_.radio = config.radio;
    if (config.target_avg_degree > 0.0) {
      radio::TopologyConfig cal = tc_;
      tc_.radio.tx_power_dbm = radio::calibrate_tx_power(cal, config.target_avg_degree);
    }
  }
  const std::string& name() const override { return name_; }
  int rounds() const override { return config_.rounds; }
  Round round(int k) override {
    GDVR_ASSERT(k >= 0 && k < config_.rounds);
    if (k < current_) {
      driver_.reset();
      current_ = 0;
    }
    for (; current_ < k; ++current_) driver_.step(config_.step_dt_s);
    Round r;
    r.time_s = static_cast<double>(k) * config_.step_dt_s;
    r.topo = radio::make_topology_from_positions(tc_, driver_.positions());
    return r;
  }

 private:
  std::string name_;
  MobilityScenarioConfig config_;
  MobilityDriver driver_;
  radio::TopologyConfig tc_;
  int current_ = 0;
};

class FlashCrowdScenario final : public Scenario {
 public:
  explicit FlashCrowdScenario(const FlashCrowdScenarioConfig& config) : config_(config) {
    base_ = radio::make_random_topology(paper_config(config.n, config.seed));
    const int n = base_.size();
    const int latent =
        std::clamp(static_cast<int>(std::lround(config.latent_fraction * n)), 0, n - 2);

    // Project the alive set through each flash crowd exactly as sim/churn
    // schedules it: round 0 is the pre-churn network, round k the network
    // after crowd k swapped flash_fraction of the alive population for
    // latent/dead nodes.
    std::set<int> alive;
    for (int u = 0; u < n - latent; ++u) alive.insert(u);
    std::set<int> dead;
    for (int u = n - latent; u < n; ++u) dead.insert(u);
    alive_by_round_.push_back({alive.begin(), alive.end()});
    for (int c = 0; c < config.crowds; ++c) {
      const std::vector<int> leave_pool(alive.begin(), alive.end());
      const std::vector<int> join_pool(dead.begin(), dead.end());
      const int leaves = std::clamp(
          static_cast<int>(std::lround(config.flash_fraction * static_cast<double>(alive.size()))),
          0, static_cast<int>(alive.size()) - 2);
      const int joins = std::min<int>(leaves, static_cast<int>(join_pool.size()));
      const sim::FaultSchedule crowd =
          sim::flash_crowd(static_cast<double>(c + 1) * config.period_s, leaves, leave_pool,
                           joins, join_pool, config.seed + static_cast<std::uint64_t>(c));
      schedule_.merge(crowd);
      for (const sim::FaultAction& a : crowd.actions()) {
        if (a.kind == sim::FaultKind::kCrash) {
          alive.erase(a.node);
          dead.insert(a.node);
        } else if (a.kind == sim::FaultKind::kRecover) {
          dead.erase(a.node);
          alive.insert(a.node);
        }
      }
      alive_by_round_.push_back({alive.begin(), alive.end()});
    }
  }
  const std::string& name() const override { return name_; }
  int rounds() const override { return static_cast<int>(alive_by_round_.size()); }
  Round round(int k) override {
    GDVR_ASSERT(k >= 0 && k < rounds());
    Round r;
    r.time_s = static_cast<double>(k) * config_.period_s;
    // The alive set's largest component: the same guarantee the generator
    // gives, applied to an externally chosen node subset.
    r.topo = radio::keep_largest_component(
        radio::induced_topology(base_, alive_by_round_[static_cast<std::size_t>(k)]));
    return r;
  }

  // The composed crash/recover schedule, for experiments that want to drive
  // a live protocol through the same membership shocks.
  const sim::FaultSchedule& schedule() const { return schedule_; }

 private:
  std::string name_ = "flash_crowd";
  FlashCrowdScenarioConfig config_;
  radio::Topology base_;
  sim::FaultSchedule schedule_;
  std::vector<std::vector<int>> alive_by_round_;
};

}  // namespace

std::unique_ptr<Scenario> unit_square_scenario(int n, std::uint64_t seed, int rounds) {
  return std::make_unique<UnitSquareScenario>(n, seed, rounds);
}

std::unique_ptr<Scenario> geo_wan_scenario(const GeoWanConfig& config, int rounds) {
  return std::make_unique<GeoWanScenario>(config, rounds);
}

std::unique_ptr<Scenario> mobility_scenario(const MobilityScenarioConfig& config) {
  return std::make_unique<MobilityScenario>(config);
}

std::unique_ptr<Scenario> flash_crowd_scenario(const FlashCrowdScenarioConfig& config) {
  return std::make_unique<FlashCrowdScenario>(config);
}

}  // namespace gdvr::scenario
