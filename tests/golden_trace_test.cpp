// Golden-trace regression tests: canonical seeded scenarios whose full
// hop-by-hop trace digest is pinned. Any change to forwarding behavior --
// tie-breaks, cost arithmetic, fallback triggering, control-plane schedule
// -- flips the digest and fails here.
//
// Refresh workflow: when a failure is an *intended* behavior change, run the
// failing test (the assertion message prints the new digest) and paste the
// new value over the pinned constant. Digests hash exact double bit
// patterns, so they are stable across runs, optimization levels, and thread
// counts on the CI platform (x86-64 SSE2 IEEE doubles, no -ffast-math).
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "eval/protocol_runner.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "radio/topology.hpp"
#include "routing/distance_vector.hpp"
#include "routing/mdt_view.hpp"
#include "routing/planar.hpp"
#include "routing/routers.hpp"
#include "sim/churn.hpp"
#include "sim/simulator.hpp"

namespace gdvr::routing {
namespace {

radio::Topology golden_topo(int n, std::uint64_t seed, int obstacles = 0) {
  radio::TopologyConfig tc;
  tc.n = n;
  tc.seed = seed;
  tc.num_obstacles = obstacles;
  tc.obstacle_size_m = 10.0;
  tc.target_avg_degree = 14.5;
  return radio::make_random_topology(tc);
}

// Routes `pairs` rng-drawn (s, t) pairs under the installed sink.
template <typename RouteFn>
int route_pairs(int n, int pairs, std::uint64_t seed, RouteFn&& route) {
  Rng rng(seed);
  int delivered = 0;
  for (int k = 0; k < pairs; ++k) {
    const int s = rng.uniform_index(n);
    int t = rng.uniform_index(n - 1);
    if (t >= s) ++t;
    if (route(s, t).success) ++delivered;
  }
  return delivered;
}

int count_mode(const obs::TraceSink& sink, obs::HopMode mode) {
  int n = 0;
  for (const obs::HopEvent& e : sink.events())
    if (e.mode == mode) ++n;
  return n;
}

void expect_digest(const obs::TraceSink& sink, const std::string& expected) {
  EXPECT_EQ(sink.digest_hex(), expected)
      << "golden trace changed (" << sink.events().size() << " events, "
      << sink.packets().size() << " packets); if the behavior change is "
      << "intended, pin the new digest printed above";
}

// ---------- pinned scenarios ----------

TEST(GoldenTrace, GdvOnEtxTopology) {
  const radio::Topology topo = golden_topo(60, 7);
  const MdtView view = centralized_mdt(topo.positions, topo.etx);
  obs::TraceSink sink;
  {
    obs::ScopedTrace scope(sink);
    const int ok = route_pairs(topo.size(), 30, 21,
                               [&](int s, int t) { return route_gdv(view, s, t); });
    EXPECT_EQ(ok, 30);  // guaranteed delivery on a correct MDT
  }
  EXPECT_EQ(sink.packets().size(), 30u);
  EXPECT_GT(count_mode(sink, obs::HopMode::kGreedy), 0);
  expect_digest(sink, "27ab28c89a1afa21");
}

TEST(GoldenTrace, MdtGreedyOnEtxTopology) {
  const radio::Topology topo = golden_topo(60, 7);
  const MdtView view = centralized_mdt(topo.positions, topo.etx);
  obs::TraceSink sink;
  {
    obs::ScopedTrace scope(sink);
    const int ok = route_pairs(topo.size(), 30, 33,
                               [&](int s, int t) { return route_mdt_greedy(view, s, t); });
    EXPECT_EQ(ok, 30);
  }
  EXPECT_EQ(sink.packets().size(), 30u);
  expect_digest(sink, "768377fc83032669");
}

// Recovery-mode scenario: four 10 m obstacles punch holes into the radio
// graph, so plain greedy hits local minima and GPSR's perimeter traversal
// (kRecovery events) must carry packets around them.
TEST(GoldenTrace, GpsrObstaclePerimeter) {
  const radio::Topology topo = golden_topo(80, 12, /*obstacles=*/4);
  const PlanarGraph planar(topo.positions, topo.etx);
  obs::TraceSink sink;
  {
    obs::ScopedTrace scope(sink);
    route_pairs(topo.size(), 150, 5, [&](int s, int t) {
      return route_gpsr(topo.positions, topo.etx, planar, s, t);
    });
  }
  EXPECT_GT(count_mode(sink, obs::HopMode::kRecovery), 0)
      << "obstacle scenario no longer exercises perimeter recovery";
  expect_digest(sink, "23632407f26ef575");
}

// GDV over the same obstacle field: the DV rule plus its MDT-greedy fallback
// (kRecovery) and virtual-link relays (kRelay).
TEST(GoldenTrace, GdvObstacleFallback) {
  const radio::Topology topo = golden_topo(80, 12, /*obstacles=*/4);
  const MdtView view = centralized_mdt(topo.positions, topo.etx);
  obs::TraceSink sink;
  {
    obs::ScopedTrace scope(sink);
    const int ok = route_pairs(topo.size(), 40, 5,
                               [&](int s, int t) { return route_gdv(view, s, t); });
    EXPECT_EQ(ok, 40);
  }
  EXPECT_GT(count_mode(sink, obs::HopMode::kRelay), 0)
      << "obstacle detours should traverse virtual-link relays";
  expect_digest(sink, "615136cd0d1fc680");
}

// Control-plane scenario shared by the serial golden test and the sharded
// engine-equivalence tests below: a full Distance Vector convergence run,
// traced with simulation timestamps, plus table-driven routes afterwards.
struct DvControlRun {
  std::string digest;
  int control = 0;
  std::size_t packets = 0;
  bool converged = false;
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
};

DvControlRun run_dv_control(bool sharded, int threads) {
  const radio::Topology topo = golden_topo(30, 5);
  sim::Simulator sim;
  if (sharded) sim.configure_sharding(radio::spatial_shards(topo, /*shards=*/4), threads);
  sim::NetSim<DvMsg> net(sim, topo.etx, 0.01, 0.1, /*seed=*/99);
  DistanceVector dv(net);
  obs::TraceSink sink;
  sink.set_trace_control(true);
  DvControlRun r;
  {
    obs::ScopedTrace scope(sink);
    dv.start();
    sim.run_until(30.0);
    r.converged = dv.converged();
    const int ok =
        route_pairs(topo.size(), 10, 17, [&](int s, int t) { return dv.route(s, t); });
    EXPECT_EQ(ok, 10);
  }
  r.digest = sink.digest_hex();
  r.control = count_mode(sink, obs::HopMode::kControl);
  r.packets = sink.packets().size();
  r.sent = net.total_messages_sent();
  r.lost = net.messages_lost();
  // Control events carry simulation time.
  double last_time = 0.0;
  for (const obs::HopEvent& e : sink.events())
    if (e.mode == obs::HopMode::kControl) last_time = e.time;
  EXPECT_GT(last_time, 0.0);
  return r;
}

// Control-plane golden trace: every NetSim transmission of a Distance Vector
// convergence run, with simulation timestamps, plus the table-driven routes
// afterwards. Pins the full protocol schedule, not just routing decisions.
TEST(GoldenTrace, DistanceVectorControlSchedule) {
  const DvControlRun r = run_dv_control(/*sharded=*/false, /*threads=*/1);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.control, 100) << "DV advertisement schedule shrank unexpectedly";
  EXPECT_EQ(r.packets, 10u);
  EXPECT_EQ(r.digest, "b58ca2aab9081ed9")
      << "golden trace changed; if the behavior change is intended, pin the "
      << "new digest printed above";
}

// Determinism contract of the sharded engine (DESIGN.md §4g): the same
// scenario on the conservative-parallel engine produces a bit-identical
// trace digest whether the shards run on 1 worker or 4 -- and a pinned
// digest of its own, so the window/lane trace ordering is itself frozen.
// Against the serial oracle the *ordering* of trace events differs (lanes
// are absorbed in lane order at window barriers, the serial engine
// interleaves in global time order), but every per-node observable must
// match exactly: convergence, packet count, control-event count, and the
// NetSim send/loss counters.
TEST(GoldenTrace, ShardedEngineThreadCountInvariant) {
  const DvControlRun serial = run_dv_control(/*sharded=*/false, /*threads=*/1);
  const DvControlRun one = run_dv_control(/*sharded=*/true, /*threads=*/1);
  const DvControlRun four = run_dv_control(/*sharded=*/true, /*threads=*/4);

  EXPECT_EQ(one.digest, four.digest) << "sharded trace depends on thread count";
  EXPECT_EQ(one.digest, "d384fbfd8eb541f9")
      << "sharded golden trace changed; if the behavior change is intended, "
      << "pin the new digest printed above";

  EXPECT_TRUE(serial.converged);
  EXPECT_TRUE(one.converged);
  EXPECT_TRUE(four.converged);
  EXPECT_EQ(serial.packets, one.packets);
  EXPECT_EQ(serial.control, one.control);
  EXPECT_EQ(serial.sent, one.sent);
  EXPECT_EQ(serial.lost, one.lost);
  EXPECT_EQ(one.sent, four.sent);
  EXPECT_EQ(one.lost, four.lost);
}

// ---------- overlay control schedule ----------

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

struct OverlayControlRun {
  std::string trace_digest;      // every NetSim send, with its time
  std::uint64_t metrics_hash = 0;  // FNV-1a of the export_metrics JSON
  std::uint64_t sent = 0;
};

// One VPoD/MDT run on the default (serial) engine, traced at every NetSim
// send from the token flood on. `chaos` turns on every fault path the
// overlay has: the failure detector, the reliable control transport, lossy
// links (ETX-derived plus background fault loss), duplication, and Poisson
// churn with one partition cycle.
OverlayControlRun run_overlay_control(int n, int periods, bool chaos) {
  const radio::Topology topo = golden_topo(n, 13);
  vpod::VpodConfig vc;
  vc.dim = 3;
  vc.mdt.fd.enabled = chaos;
  obs::TraceSink sink;
  sink.set_trace_control(true);
  OverlayControlRun r;
  obs::Registry reg;
  {
    obs::ScopedTrace scope(sink);
    eval::VpodRunner runner(topo, /*use_etx=*/true, vc, {}, /*net_seed=*/17);
    if (chaos) {
      const double period_len = vc.join_period_s + vc.adjust_period_s;
      runner.enable_reliable_sync();
      runner.enable_control_loss();
      runner.net().set_fault_loss(0.02);
      runner.net().set_duplication(0.05);
      sim::ChurnConfig cc;
      cc.t_begin = 1.0 + period_len;
      cc.t_end = 1.0 + 3.0 * period_len;
      cc.leave_rate_hz = 0.05 * static_cast<double>(topo.size()) / period_len;
      cc.join_rate_hz = cc.leave_rate_hz;
      cc.partition_cycles = 1;
      cc.partition_s = 0.5 * period_len;
      runner.faults().install(sim::continuous_churn(cc, 29, topo.size()));
    }
    runner.run_to_period(periods);
    runner.export_metrics(reg);
    r.sent = runner.net().total_messages_sent();
  }
  std::ostringstream json;
  reg.write_json(json);
  r.trace_digest = sink.digest_hex();
  r.metrics_hash = fnv1a(json.str());
  return r;
}

// The overlay's whole control schedule, pinned. GdvSim.PinnedOutput only
// sees routing quality after quiet runs; these two pins see every message
// the handlers send, so a change to how they treat incarnations,
// tombstones, retries or routes moves a digest. The freshness tie rule for
// C_u does not show here (equal versions name equal positions); it is
// pinned by ProtocolInternals.FirstHandContactWinsFreshnessTies. The
// metrics hashes include mdt.dt.move_early_outs, the moved keys that star
// certificates absorbed (256 quiet, 1192 chaos).
TEST(GoldenTrace, OverlayControlScheduleQuiet) {
  const OverlayControlRun r = run_overlay_control(/*n=*/40, /*periods=*/3, /*chaos=*/false);
  EXPECT_EQ(r.sent, 30677u);
  EXPECT_EQ(r.trace_digest, "cd10ca28744209a4")
      << r.sent << " sends; if the behavior change is intended, pin the new digest";
  EXPECT_EQ(r.metrics_hash, 16752465281894773368ull) << "metrics export changed";
}

TEST(GoldenTrace, OverlayControlScheduleChaos) {
  const OverlayControlRun r = run_overlay_control(/*n=*/60, /*periods=*/5, /*chaos=*/true);
  EXPECT_EQ(r.sent, 120959u);
  EXPECT_EQ(r.trace_digest, "f6beca5fbf2ba4c2")
      << r.sent << " sends; if the behavior change is intended, pin the new digest";
  EXPECT_EQ(r.metrics_hash, 125276265095848390ull) << "metrics export changed";
}

// ---------- thread-count invariance ----------

// One self-contained trial: GDV plus (on obstacle trials) GPSR perimeter
// routing, traced into a trial-local sink. Everything derives from the trial
// index; nothing is shared, so the digest must not depend on which worker
// thread ran the trial or on how many workers exist.
struct TrialResult {
  std::string digest;
  int recovery = 0;
};

TrialResult run_trial(int i) {
  const bool obstacles = (i % 2) == 1;
  const radio::Topology topo = golden_topo(50, 100 + static_cast<std::uint64_t>(i),
                                           obstacles ? 4 : 0);
  const MdtView view = centralized_mdt(topo.positions, topo.etx);
  obs::TraceSink sink;
  {
    obs::ScopedTrace scope(sink);
    route_pairs(topo.size(), 10, 7 + static_cast<std::uint64_t>(i),
                [&](int s, int t) { return route_gdv(view, s, t); });
    if (obstacles) {
      const PlanarGraph planar(topo.positions, topo.etx);
      route_pairs(topo.size(), 10, 70 + static_cast<std::uint64_t>(i), [&](int s, int t) {
        return route_gpsr(topo.positions, topo.etx, planar, s, t);
      });
    }
  }
  TrialResult r;
  r.digest = sink.digest_hex();
  r.recovery = count_mode(sink, obs::HopMode::kRecovery);
  return r;
}

std::vector<TrialResult> run_trials_with_threads(const char* threads) {
  const char* prev = std::getenv("GDVR_THREADS");
  const std::string saved = prev != nullptr ? prev : "";
  setenv("GDVR_THREADS", threads, 1);
  ParallelTrials pool(0);  // reads GDVR_THREADS
  auto out = pool.run(8, run_trial);
  if (prev != nullptr)
    setenv("GDVR_THREADS", saved.c_str(), 1);
  else
    unsetenv("GDVR_THREADS");
  return out;
}

TEST(GoldenTrace, DigestsIdenticalAcrossThreadCounts) {
  const auto seq = run_trials_with_threads("1");
  const auto par = run_trials_with_threads("4");
  ASSERT_EQ(seq.size(), par.size());
  int total_recovery = 0;
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].digest, par[i].digest) << "trial " << i;
    EXPECT_EQ(seq[i].recovery, par[i].recovery) << "trial " << i;
    total_recovery += seq[i].recovery;
  }
  EXPECT_GT(total_recovery, 0) << "no trial exercised recovery mode";
}

}  // namespace
}  // namespace gdvr::routing
