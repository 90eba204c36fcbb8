// Randomized churn fuzzing of the MDT overlay with state-invariant checks.
//
// A random schedule of node failures, rejoins, position changes and
// maintenance rounds is applied; after every settling window the overlay's
// internal state must satisfy the structural invariants below. This is the
// kind of silent-corruption bug net that unit tests on fixed scenarios miss.
// Reproduction workflow: every operation the fuzzer applies is recorded.
// When any invariant check fails, the test prints the seed and the schedule
// prefix that led to the failure; rerun exactly that schedule with
// GDVR_FUZZ_SEED=<seed> ./mdt_fuzz_test --gtest_filter='*EnvSeed*'.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mdt/overlay.hpp"
#include "radio/topology.hpp"
#include "sim/simulator.hpp"

namespace gdvr::mdt {
namespace {

struct Fuzzer {
  radio::Topology topo;
  sim::Simulator sim;
  std::unique_ptr<Net> net;
  std::unique_ptr<MdtOverlay> overlay;
  Rng rng;
  std::uint64_t seed;
  // Every applied operation, in order -- the failure-reproduction transcript.
  std::vector<std::string> schedule;

  explicit Fuzzer(std::uint64_t fuzz_seed) : rng(fuzz_seed), seed(fuzz_seed) {
    radio::TopologyConfig tc;
    tc.n = 60;
    tc.seed = seed;
    tc.target_avg_degree = 14.5;
    topo = radio::make_random_topology(tc);
    net = std::make_unique<Net>(sim, topo.etx, 0.01, 0.1, seed);
    MdtConfig mc;
    mc.dim = 2;
    mc.neighbor_stale_s = 12.0;
    overlay = std::make_unique<MdtOverlay>(*net, mc);
    overlay->attach();
    for (int u = 0; u < topo.size(); ++u)
      overlay->activate(u, topo.positions[static_cast<std::size_t>(u)], u == 0);
    for (int u = 1; u < topo.size(); ++u)
      sim.schedule_at(0.1 + rng.uniform(0.0, 1.0), [this, u] { overlay->start_join(u); });
    sim.run_until(8.0);
    maintenance();
  }

  void maintenance() {
    schedule.push_back("maintenance @" + std::to_string(sim.now()));
    const double base = sim.now();
    for (int u = 0; u < topo.size(); ++u) {
      if (!net->alive(u)) continue;
      sim.schedule_at(base + rng.uniform(0.0, 0.5), [this, u] {
        if (net->alive(u)) overlay->run_maintenance_round(u);
      });
    }
    sim.run_until(base + 6.0);
  }

  void random_op() {
    const int pick = rng.uniform_index(10);
    const int u = rng.uniform_index(topo.size());
    if (pick < 2 && u != 0 && net->alive(u)) {
      schedule.push_back("deactivate " + std::to_string(u));
      overlay->deactivate(u);
    } else if (pick < 4 && !net->alive(u)) {
      schedule.push_back("rejoin " + std::to_string(u));
      net->set_alive(u, true);
      // Rejoin near the true position with some noise.
      Vec pos = topo.positions[static_cast<std::size_t>(u)];
      pos[0] += rng.normal(0.0, 3.0);
      pos[1] += rng.normal(0.0, 3.0);
      overlay->activate(u, pos, false);
      overlay->start_join(u);
    } else if (pick < 7 && net->alive(u) && overlay->active(u)) {
      schedule.push_back("move " + std::to_string(u));
      // Position adjustment, as VPoD would make.
      Vec pos = overlay->position(u);
      pos[0] += rng.normal(0.0, 1.0);
      pos[1] += rng.normal(0.0, 1.0);
      overlay->set_position(u, pos, rng.uniform(0.05, 1.0));
    } else {
      schedule.push_back("noop " + std::to_string(u));
    }
    sim.run_until(sim.now() + rng.uniform(0.2, 1.5));
  }

  // Prints the seed and the operation prefix that led here; called when an
  // invariant check has failed so the schedule can be replayed.
  void dump_schedule() const {
    std::string out = "fuzz failure: reproduce with GDVR_FUZZ_SEED=" + std::to_string(seed) +
                      "\nschedule prefix (" + std::to_string(schedule.size()) + " ops):\n";
    for (const std::string& op : schedule) out += "  " + op + "\n";
    ADD_FAILURE() << out;
  }

  void check_invariants(const char* phase) {
    for (int u = 0; u < topo.size(); ++u) {
      if (!net->alive(u) || !overlay->active(u)) {
        // Dead nodes hold no state.
        EXPECT_TRUE(overlay->dt_neighbors(u).empty()) << phase << " node " << u;
        continue;
      }
      std::set<int> seen;
      overlay->for_each_neighbor(u, [&](const NeighborView& v) {
        EXPECT_NE(v.id, u) << phase;                    // never self
        EXPECT_TRUE(seen.insert(v.id).second) << phase; // no duplicates
        EXPECT_TRUE(std::isfinite(v.cost)) << phase;
        EXPECT_GT(v.cost, 0.0) << phase;
        EXPECT_GE(v.err, 0.0) << phase;
        EXPECT_EQ(v.pos.dim(), 2) << phase;
        if (v.is_phys) {
          EXPECT_TRUE(topo.etx.has_edge(u, v.id)) << phase;
          EXPECT_DOUBLE_EQ(v.cost, topo.etx.link_cost(u, v.id)) << phase;
        } else if (v.is_dt) {
          // Virtual-link path: well-formed, physically valid, matches cost.
          const auto& path = v.path;
          ASSERT_GE(path.size(), 2u) << phase;
          EXPECT_EQ(path.front(), u) << phase;
          EXPECT_EQ(path.back(), v.id) << phase;
          double cost = 0.0;
          for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            ASSERT_TRUE(topo.etx.has_edge(path[i], path[i + 1]))
                << phase << " broken path at " << path[i];
            cost += topo.etx.link_cost(path[i], path[i + 1]);
          }
          EXPECT_NEAR(cost, v.cost, 1e-9) << phase;
        }
      });
      EXPECT_LT(overlay->distinct_nodes_stored(u), topo.size()) << phase;
    }
  }
};

// The shared fuzz loop: `rounds` churn rounds against one seed, dumping the
// seed and schedule prefix on the first round whose invariants fail.
void run_fuzz(std::uint64_t seed, int rounds) {
  Fuzzer f(seed);
  f.check_invariants("after bootstrap");
  if (::testing::Test::HasFailure()) return f.dump_schedule();
  for (int round = 0; round < rounds; ++round) {
    for (int op = 0; op < 8; ++op) f.random_op();
    f.maintenance();
    f.maintenance();
    f.check_invariants("after churn round");
    if (::testing::Test::HasFailure()) return f.dump_schedule();
  }
  // Nothing crashed, every invariant held, and the network still functions:
  // alive nodes with neighbors are joined again after the final maintenance.
  int alive = 0, joined = 0;
  for (int u = 0; u < f.topo.size(); ++u) {
    if (!f.net->alive(u)) continue;
    ++alive;
    if (f.overlay->joined(u)) ++joined;
  }
  EXPECT_GT(alive, f.topo.size() / 2);
  EXPECT_GE(joined, alive * 8 / 10);  // stragglers may still be rejoining
  if (::testing::Test::HasFailure()) f.dump_schedule();
}

class MdtFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MdtFuzz, InvariantsHoldUnderRandomChurn) { run_fuzz(GetParam(), 4); }

INSTANTIATE_TEST_SUITE_P(Seeds, MdtFuzz, ::testing::Values(11u, 22u, 33u, 44u));

// Directed reproduction / exploration: GDVR_FUZZ_SEED=<n> runs one longer
// fuzz with that exact seed (the schedule is fully determined by it).
// Skipped when the variable is unset, so CI runs are unaffected.
TEST(MdtFuzzEnv, EnvSeedSchedule) {
  const char* env = std::getenv("GDVR_FUZZ_SEED");
  if (env == nullptr || env[0] == '\0')
    GTEST_SKIP() << "set GDVR_FUZZ_SEED=<seed> to fuzz a specific schedule";
  const std::uint64_t seed = std::strtoull(env, nullptr, 10);
  run_fuzz(seed, 8);
}

}  // namespace
}  // namespace gdvr::mdt
