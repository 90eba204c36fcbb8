// Tests for the evaluation harness: pair sampling, router evaluation, and
// the protocol runners' accounting.
#include <gtest/gtest.h>

#include <set>

#include "eval/protocol_runner.hpp"
#include "eval/routing_eval.hpp"
#include "obs/metrics.hpp"
#include "radio/topology.hpp"

namespace gdvr::eval {
namespace {

radio::Topology dense_topo(int n, std::uint64_t seed) {
  radio::TopologyConfig tc;
  tc.n = n;
  tc.seed = seed;
  tc.target_avg_degree = 14.5;
  return radio::make_random_topology(tc);
}

TEST(Pairs, ExhaustiveWhenCountNonPositive) {
  const std::vector<int> ids{3, 7, 9};
  const auto pairs = sample_pairs(ids, 0, 1);
  EXPECT_EQ(pairs.size(), 6u);  // 3 * 2 ordered pairs
  std::set<std::pair<int, int>> unique(pairs.begin(), pairs.end());
  EXPECT_EQ(unique.size(), 6u);
  for (const auto& [s, t] : pairs) EXPECT_NE(s, t);
}

TEST(Pairs, SampledDeterministicAndValid) {
  std::vector<int> ids;
  for (int i = 0; i < 50; ++i) ids.push_back(i * 2);
  const auto a = sample_pairs(ids, 100, 7);
  const auto b = sample_pairs(ids, 100, 7);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 100u);
  for (const auto& [s, t] : a) {
    EXPECT_NE(s, t);
    EXPECT_EQ(s % 2, 0);
    EXPECT_EQ(t % 2, 0);
  }
  EXPECT_NE(sample_pairs(ids, 100, 8), a);  // different seed differs
}

TEST(Pairs, TooFewNodes) {
  EXPECT_TRUE(sample_pairs({5}, 10, 1).empty());
  EXPECT_TRUE(sample_pairs({}, 10, 1).empty());
}

TEST(Evaluate, OptimalRouterHasStretchOne) {
  const radio::Topology topo = dense_topo(60, 3);
  // "Router" that walks the true shortest hop path.
  RouteFn optimal = [&](int s, int t) {
    routing::RouteResult r;
    const auto sp = graph::dijkstra(topo.hops, s);
    const auto path = graph::extract_path(sp, t);
    if (path.empty()) return r;
    r.success = true;
    r.transmissions = static_cast<int>(path.size()) - 1;
    r.cost = static_cast<double>(r.transmissions);
    return r;
  };
  std::vector<int> ids;
  for (int i = 0; i < topo.size(); ++i) ids.push_back(i);
  const auto pairs = sample_pairs(ids, 200, 5);
  const auto stats = evaluate_router(optimal, topo.hops, topo.hops, /*use_etx=*/false, pairs);
  EXPECT_DOUBLE_EQ(stats.success_rate, 1.0);
  EXPECT_NEAR(stats.stretch, 1.0, 1e-12);
  EXPECT_EQ(stats.pairs_evaluated, 200);
}

TEST(Evaluate, FailuresLowerSuccessRate) {
  RouteFn failing = [](int, int) { return routing::RouteResult{}; };
  const radio::Topology topo = dense_topo(40, 4);
  std::vector<int> ids;
  for (int i = 0; i < topo.size(); ++i) ids.push_back(i);
  const auto stats =
      evaluate_router(failing, topo.hops, topo.hops, false, sample_pairs(ids, 50, 1));
  EXPECT_DOUBLE_EQ(stats.success_rate, 0.0);
}

TEST(Evaluate, EtxModeReportsTransmissionsAndOptimal) {
  const radio::Topology topo = dense_topo(60, 6);
  const auto view = routing::centralized_mdt(topo.positions, topo.etx);
  EvalOptions opts;
  opts.use_etx = true;
  opts.pair_samples = 200;
  const auto stats = eval_gdv(view, topo, opts);
  EXPECT_GT(stats.transmissions, 1.0);
  EXPECT_GT(stats.optimal_transmissions, 1.0);
  EXPECT_GE(stats.transmissions, stats.optimal_transmissions - 1e-9);
}

TEST(Evaluate, BaselineWrappersRun) {
  const radio::Topology topo = dense_topo(60, 8);
  EvalOptions opts;
  opts.use_etx = true;
  opts.pair_samples = 100;
  const auto mdt = eval_mdt_actual(topo, opts);
  const auto nadv = eval_nadv_actual(topo, opts);
  EXPECT_GT(mdt.success_rate, 0.95);
  EXPECT_GT(nadv.success_rate, 0.7);
  EXPECT_GT(mdt.transmissions, 0.0);
  EXPECT_GT(nadv.transmissions, 0.0);
}

TEST(Runner, MessageMarkDeltas) {
  const radio::Topology topo = dense_topo(50, 9);
  vpod::VpodConfig vc;
  vc.dim = 2;
  VpodRunner runner(topo, false, vc);
  runner.run_to_period(1);
  const double first = runner.messages_per_node_since_mark();
  EXPECT_GT(first, 0.0);
  const double immediately_again = runner.messages_per_node_since_mark();
  EXPECT_DOUBLE_EQ(immediately_again, 0.0);  // nothing ran in between
  runner.run_to_period(2);
  EXPECT_GT(runner.messages_per_node_since_mark(), 0.0);
}

TEST(Runner, SnapshotMatchesOverlayState) {
  const radio::Topology topo = dense_topo(50, 10);
  vpod::VpodConfig vc;
  vc.dim = 3;
  VpodRunner runner(topo, false, vc);
  runner.run_to_period(4);
  const auto view = runner.snapshot();
  ASSERT_EQ(view.size(), topo.size());
  for (int u = 0; u < topo.size(); ++u) {
    EXPECT_EQ(view.pos[static_cast<std::size_t>(u)], runner.protocol().overlay().position(u));
    EXPECT_TRUE(view.is_alive(u));
  }
}

TEST(Runner, AvgStorageIsPositiveAndBounded) {
  const radio::Topology topo = dense_topo(50, 11);
  vpod::VpodConfig vc;
  vc.dim = 2;
  VpodRunner runner(topo, false, vc);
  runner.run_to_period(4);
  const double storage = runner.avg_storage();
  EXPECT_GT(storage, 5.0);
  EXPECT_LT(storage, static_cast<double>(topo.size()));
}

TEST(Runner, ExportsIncrementalDtCounters) {
  const radio::Topology topo = dense_topo(50, 12);
  vpod::VpodConfig vc;
  vc.dim = 3;
  VpodRunner runner(topo, false, vc);
  runner.run_to_period(8);
  obs::Registry reg;
  runner.export_metrics(reg);
  // Construction on a 50-node topology exercises the key diff: every node's
  // first recompute inserts, later ones insert/remove as candidates churn.
  // Once VPoD's adjustments settle, a candidate that moves without touching
  // a node's Delaunay star is kept by the star certificate, with no
  // rebuild. Full rebuilds may legitimately be zero.
  EXPECT_GT(reg.counter("mdt.dt.inserts").value(), 0u);
  EXPECT_GT(reg.counter("mdt.dt.removes").value(), 0u);
  EXPECT_GT(reg.counter("mdt.dt.move_early_outs").value(), 0u);
  const auto dt = runner.protocol().overlay().dt_stats();
  EXPECT_EQ(reg.counter("mdt.dt.inserts").value(), dt.inserts);
  EXPECT_EQ(reg.counter("mdt.dt.moves").value(), dt.moves);
  EXPECT_EQ(reg.counter("mdt.dt.move_early_outs").value(), dt.move_early_outs);
  EXPECT_EQ(reg.counter("mdt.dt.full_rebuilds").value(), dt.full_rebuilds);
  EXPECT_EQ(reg.counter("mdt.dt.walk_fallbacks").value(), dt.walk_fallbacks);
}

TEST(AliveNodes, FiltersMask) {
  routing::MdtView view;
  view.pos.resize(4, Vec::zero(2));
  view.alive = {1, 0, 1, 1};
  EXPECT_EQ(alive_nodes(view), (std::vector<int>{0, 2, 3}));
}

}  // namespace
}  // namespace gdvr::eval
