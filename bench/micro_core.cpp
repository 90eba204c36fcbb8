// Microbenchmarks (google-benchmark) for the performance-critical kernels:
// d-dimensional Delaunay construction, geometric predicates, GDV forwarding
// decisions, SVD, Dijkstra, and topology generation.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "analysis/embedding.hpp"
#include "obs/profile.hpp"
#include "analysis/svd.hpp"
#include "common.hpp"
#include "common/rng.hpp"
#include "geom/delaunay.hpp"
#include "geom/predicates.hpp"
#include "routing/distance_vector.hpp"
#include "graph/csr.hpp"
#include "graph/graph.hpp"
#include "radio/topology.hpp"
#include "routing/mdt_view.hpp"
#include "routing/routers.hpp"
#include "eval/protocol_runner.hpp"
#include "sim/netsim.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace gdvr;

std::vector<Vec> random_points(int n, int dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec> pts;
  pts.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    Vec p(dim);
    for (int c = 0; c < dim; ++c) p[c] = rng.uniform(0.0, 100.0);
    pts.push_back(p);
  }
  return pts;
}

void BM_DelaunayGraph(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const auto pts = random_points(n, dim, 42);
  for (auto _ : state) {
    const auto dt = geom::delaunay_graph(pts);
    benchmark::DoNotOptimize(dt.edges.size());
  }
  state.SetLabel("n=" + std::to_string(n) + " dim=" + std::to_string(dim));
}
BENCHMARK(BM_DelaunayGraph)
    ->Args({30, 2})
    ->Args({30, 3})
    ->Args({30, 4})
    ->Args({100, 2})
    ->Args({100, 3})
    ->Args({200, 3});

// Point location in isolation: one conflict-seed query against a prebuilt
// triangulation. kWalk is the hint-seeded visibility walk; kLinearScan is the
// original exhaustive scan it replaced.
void BM_DelaunayLocate(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const bool walk = state.range(2) != 0;
  const auto pts = random_points(n, dim, 42);
  geom::Triangulation tri;
  if (!tri.build(pts)) {
    state.SkipWithError("triangulation build failed");
    return;
  }
  tri.set_locate_mode(walk ? geom::Triangulation::LocateMode::kWalk
                           : geom::Triangulation::LocateMode::kLinearScan);
  const auto queries = random_points(256, dim, 43);
  std::size_t qi = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tri.locate_conflict(queries[qi]));
    qi = (qi + 1) % queries.size();
  }
  state.SetLabel(std::string(walk ? "walk" : "linear") + " n=" + std::to_string(n) +
                 " dim=" + std::to_string(dim));
}
BENCHMARK(BM_DelaunayLocate)
    ->Args({100, 2, 1})
    ->Args({100, 2, 0})
    ->Args({200, 3, 1})
    ->Args({200, 3, 0});

// One node's N_u from its Delaunay star alone -- the computation
// MdtOverlay::recompute runs when a node's input changed -- with the center
// cycling through the set. Sizes match BM_DelaunayGraph (which triangulates
// the whole set at once), plus n = 48 in 3-D, the end-to-end benchmark's
// candidate-set size.
void BM_LocalDelaunayStar(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  const auto pts = random_points(n, dim, 42);
  geom::Triangulation tri;
  std::vector<int> nbrs;
  int center = 0;
  double degree = 0.0;
  for (auto _ : state) {
    if (!tri.star_neighbors(pts, center, nbrs)) {
      state.SkipWithError("star computation failed");
      return;
    }
    benchmark::DoNotOptimize(nbrs.data());
    degree += static_cast<double>(nbrs.size());
    center = (center + 1) % n;
  }
  state.counters["mean_degree"] = degree / static_cast<double>(state.iterations());
  state.SetLabel("n=" + std::to_string(n) + " dim=" + std::to_string(dim));
}
BENCHMARK(BM_LocalDelaunayStar)
    ->Args({30, 2})
    ->Args({30, 3})
    ->Args({30, 4})
    ->Args({48, 3})
    ->Args({100, 2})
    ->Args({100, 3})
    ->Args({200, 3});

// Distance Vector convergence with delta vs full-table triggered updates:
// same topology, same schedule, the counter records the (dest, cost) entries
// shipped -- the Theta(N)-per-trigger vs O(changed) trade.
void BM_DeltaDvRound(benchmark::State& state) {
  const bool delta = state.range(0) != 0;
  static const radio::Topology topo = [] {
    radio::TopologyConfig tc;
    tc.n = 60;
    tc.seed = 11;
    tc.target_avg_degree = 14.5;
    return radio::make_random_topology(tc);
  }();
  routing::DvConfig cfg;
  cfg.delta_updates = delta;
  std::uint64_t entries = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    sim::NetSim<routing::DvMsg> net(sim, topo.etx, 0.001, 0.01, 7);
    routing::DistanceVector dv(net, cfg);
    dv.start();
    sim.run_until(20.0);
    const auto s = dv.dv_stats();
    entries = s.entries_full + s.entries_delta;
  }
  state.counters["entries_shipped"] = static_cast<double>(entries);
  state.SetLabel(delta ? "delta" : "full");
}
BENCHMARK(BM_DeltaDvRound)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// One full maintenance round (adjustment period) of a converged 120-node
// VPoD/MDT network: position sampling, neighbor-set sync, and every
// MdtOverlay::recompute the round triggers. The counters give the
// per-iteration local-DT op mix the round's recomputes applied.
void BM_MdtMaintenanceRound(benchmark::State& state) {
  static eval::VpodRunner* runner = [] {
    static radio::Topology topo = bench::paper_topology(120, 4242);
    auto* r = new eval::VpodRunner(topo, /*use_etx=*/true, bench::paper_vpod(3));
    r->run_to_period(10);  // converge before measuring
    return r;
  }();
  static int k = 10;
  const auto before = runner->protocol().overlay().dt_stats();
  for (auto _ : state) runner->run_to_period(++k);
  const auto after = runner->protocol().overlay().dt_stats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["dt_inserts"] = static_cast<double>(after.inserts - before.inserts) / iters;
  state.counters["dt_removes"] = static_cast<double>(after.removes - before.removes) / iters;
  state.counters["dt_moves"] = static_cast<double>(after.moves - before.moves) / iters;
  state.counters["dt_rebuilds"] =
      static_cast<double>(after.full_rebuilds - before.full_rebuilds) / iters;
}
BENCHMARK(BM_MdtMaintenanceRound)->Unit(benchmark::kMillisecond);

void BM_InSpherePredicate(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const auto pts = random_points(dim + 1, dim, 7);
  const auto q = random_points(1, dim, 8)[0];
  for (auto _ : state) benchmark::DoNotOptimize(geom::in_sphere(pts, q));
}
BENCHMARK(BM_InSpherePredicate)->Arg(2)->Arg(3)->Arg(4);

void BM_Circumsphere(benchmark::State& state) {
  const int dim = static_cast<int>(state.range(0));
  const auto pts = random_points(dim + 1, dim, 9);
  Vec center;
  double r2 = 0.0;
  for (auto _ : state) benchmark::DoNotOptimize(geom::circumsphere(pts, center, r2));
}
BENCHMARK(BM_Circumsphere)->Arg(2)->Arg(3)->Arg(4);

struct RoutingFixture {
  radio::Topology topo;
  routing::MdtView view;
  RoutingFixture() {
    radio::TopologyConfig tc;
    tc.n = 200;
    tc.seed = 5;
    tc.target_avg_degree = 14.5;
    topo = radio::make_random_topology(tc);
    view = routing::centralized_mdt(topo.positions, topo.etx);
  }
};

void BM_GdvRoute(benchmark::State& state) {
  static const RoutingFixture fx;
  Rng rng(11);
  for (auto _ : state) {
    const int s = rng.uniform_index(fx.topo.size());
    int t = rng.uniform_index(fx.topo.size() - 1);
    if (t >= s) ++t;
    benchmark::DoNotOptimize(routing::route_gdv(fx.view, s, t).cost);
  }
}
BENCHMARK(BM_GdvRoute);

void BM_MdtGreedyRoute(benchmark::State& state) {
  static const RoutingFixture fx;
  Rng rng(12);
  for (auto _ : state) {
    const int s = rng.uniform_index(fx.topo.size());
    int t = rng.uniform_index(fx.topo.size() - 1);
    if (t >= s) ++t;
    benchmark::DoNotOptimize(routing::route_mdt_greedy(fx.view, s, t).cost);
  }
}
BENCHMARK(BM_MdtGreedyRoute);

void BM_Dijkstra(benchmark::State& state) {
  static const RoutingFixture fx;
  Rng rng(13);
  for (auto _ : state) {
    const int s = rng.uniform_index(fx.topo.size());
    benchmark::DoNotOptimize(graph::dijkstra(fx.topo.etx, s).dist.size());
  }
}
BENCHMARK(BM_Dijkstra);

// Same workload as BM_Dijkstra but over the frozen CSR snapshot -- the
// representation every all-pairs sweep and routing hot loop actually uses.
void BM_CsrDijkstra(benchmark::State& state) {
  static const RoutingFixture fx;
  static const graph::CsrGraph csr(fx.topo.etx);
  graph::DijkstraWorkspace ws;
  Rng rng(13);
  for (auto _ : state) {
    const int s = rng.uniform_index(fx.topo.size());
    benchmark::DoNotOptimize(graph::dijkstra(csr, s, ws).dist.size());
  }
}
BENCHMARK(BM_CsrDijkstra);

// Full cost-matrix build (freeze + parallel all-pairs Dijkstra), the backbone
// of the embedding-quality and ETX-stretch analyses.
void BM_AllPairsDistances(benchmark::State& state) {
  static const RoutingFixture fx;
  for (auto _ : state) {
    const graph::CsrGraph csr(fx.topo.etx);
    benchmark::DoNotOptimize(graph::all_pairs_distances(csr).size());
  }
}
BENCHMARK(BM_AllPairsDistances)->Unit(benchmark::kMillisecond);

void BM_TopologyGeneration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  radio::TopologyConfig tc;
  tc.n = n;
  tc.seed = 21;
  std::uint64_t seed = 21;
  for (auto _ : state) {
    tc.seed = seed++;
    benchmark::DoNotOptimize(radio::make_random_topology(tc).size());
  }
}
BENCHMARK(BM_TopologyGeneration)->Arg(100)->Arg(400)->Arg(2000);

// The retired O(n^2) pair scan, kept as the equivalence oracle; the ratio to
// BM_TopologyGeneration/400 is the spatial grid's win at paper scale.
void BM_TopologyGenerationAllPairs(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  radio::TopologyConfig tc;
  tc.n = n;
  tc.link_scan = radio::LinkScanMode::kAllPairs;
  std::uint64_t seed = 21;
  for (auto _ : state) {
    tc.seed = seed++;
    benchmark::DoNotOptimize(radio::make_random_topology(tc).size());
  }
}
BENCHMARK(BM_TopologyGenerationAllPairs)->Arg(400);

// The serial event loop in isolation: a ring of self-rescheduling timers,
// measuring schedule + heap pop + slot recycle per event. This is the
// baseline the 4-ary EventHeap was tuned against (DESIGN.md §4g) and the
// serial term in the engine-sweep speedup curve.
void BM_SimulatorEventLoop(benchmark::State& state) {
  const int chains = static_cast<int>(state.range(0));
  std::uint64_t fired = 0;
  for (auto _ : state) {
    sim::Simulator sim;
    Rng rng(5);
    std::function<void(int)> tick = [&](int c) {
      ++fired;
      sim.schedule_in(0.5 + rng.uniform(0.0, 1.0), [&tick, c] { tick(c); });
    };
    for (int c = 0; c < chains; ++c)
      sim.schedule_in(rng.uniform(0.0, 1.0), [&tick, c] { tick(c); });
    sim.run_until(100.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(fired));
  state.SetLabel("chains=" + std::to_string(chains));
}
BENCHMARK(BM_SimulatorEventLoop)->Arg(64)->Arg(1024)->Unit(benchmark::kMillisecond);

// One NetSim transmission end to end: link-up check (LinkSet), per-node RNG
// delay draw, node-lane schedule, delivery. The dominant inner loop of every
// protocol run.
void BM_NetSimSend(benchmark::State& state) {
  static const RoutingFixture fx;
  sim::Simulator sim;
  sim::NetSim<int> net(sim, fx.topo.etx, 0.01, 0.1, /*seed=*/3);
  net.set_receiver([](int, int, int) {});
  Rng rng(9);
  const int n = fx.topo.size();
  std::uint64_t sent = 0;
  for (auto _ : state) {
    for (int k = 0; k < 64; ++k) {
      const int u = rng.uniform_index(n);
      const auto& nbrs = fx.topo.etx.neighbors(u);
      if (nbrs.empty()) continue;
      const int v = nbrs[static_cast<std::size_t>(rng.uniform_index(
                             static_cast<int>(nbrs.size())))].to;
      net.send(u, v, 0);
      ++sent;
    }
    sim.run_until(sim.now() + 1.0);  // drain deliveries
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sent));
}
BENCHMARK(BM_NetSimSend);

// Full-protocol engine comparison: one VPoD run (token flood + initial MDT
// join) through the engine-selection seam. threads == 0 is the serial
// oracle; threads >= 1 runs the sharded engine with that worker count. The
// serial-vs-sharded@1 ratio is the engine's bookkeeping overhead (a few
// percent); the sharded@N rows record the wall-clock speedup curve on
// multi-core hosts (on a single-core container they measure overhead only --
// see the engine-sweep section of EXPERIMENTS.md).
void BM_VpodEngine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  static std::map<int, radio::Topology> topos;
  auto it = topos.find(n);
  if (it == topos.end()) it = topos.emplace(n, bench::paper_topology(n, 97)).first;
  const radio::Topology& topo = it->second;

  const char* prev_engine = std::getenv("GDVR_SIM_ENGINE");
  const char* prev_threads = std::getenv("GDVR_THREADS");
  const std::string saved_engine = prev_engine != nullptr ? prev_engine : "";
  const std::string saved_threads = prev_threads != nullptr ? prev_threads : "";
  setenv("GDVR_SIM_ENGINE", threads > 0 ? "sharded" : "serial", 1);
  setenv("GDVR_THREADS", std::to_string(threads > 0 ? threads : 1).c_str(), 1);

  std::uint64_t msgs = 0;
  for (auto _ : state) {
    eval::VpodRunner runner(topo, /*use_etx=*/false, bench::paper_vpod(3));
    runner.run_to_period(0);
    msgs = runner.net().total_messages_sent();
  }

  if (prev_engine != nullptr)
    setenv("GDVR_SIM_ENGINE", saved_engine.c_str(), 1);
  else
    unsetenv("GDVR_SIM_ENGINE");
  if (prev_threads != nullptr)
    setenv("GDVR_THREADS", saved_threads.c_str(), 1);
  else
    unsetenv("GDVR_THREADS");

  state.counters["messages"] = static_cast<double>(msgs);
  state.SetLabel(std::string(threads > 0 ? "sharded" : "serial") +
                 " threads=" + std::to_string(threads > 0 ? threads : 1));
}
BENCHMARK(BM_VpodEngine)
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({500, 4})
    ->Unit(benchmark::kMillisecond);

// The downed-link set replacement (std::set<pair> -> open-addressing
// LinkSet): a fault-storm mix of inserts/erases over a mostly-hit
// contains() stream, the shape link_up() sees on the send path.
template <typename SetT, typename Contains, typename Insert, typename Erase>
void down_links_mix(benchmark::State& state, SetT& set, Contains&& contains, Insert&& insert,
                    Erase&& erase) {
  Rng rng(11);
  const int n = 2000;
  std::vector<std::pair<int, int>> downed;
  for (int i = 0; i < 200; ++i) {
    const int u = rng.uniform_index(n);
    const int v = (u + 1 + rng.uniform_index(16)) % n;
    insert(set, u, v);
    downed.emplace_back(u, v);
  }
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (int k = 0; k < 256; ++k) {
      const int u = rng.uniform_index(n);
      const int v = (u + 1 + rng.uniform_index(16)) % n;
      hits += contains(set, u, v) ? 1u : 0u;
    }
    // Churn one link per probe burst, as a fault storm would.
    const auto& flip = downed[static_cast<std::size_t>(rng.uniform_index(
        static_cast<int>(downed.size())))];
    erase(set, flip.first, flip.second);
    insert(set, flip.first, flip.second);
  }
  benchmark::DoNotOptimize(hits);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 256);
}

void BM_DownLinksStdSet(benchmark::State& state) {
  std::set<std::pair<int, int>> set;
  auto norm = [](int u, int v) { return std::make_pair(std::min(u, v), std::max(u, v)); };
  down_links_mix(
      state, set,
      [&](const auto& s, int u, int v) { return s.count(norm(u, v)) != 0; },
      [&](auto& s, int u, int v) { s.insert(norm(u, v)); },
      [&](auto& s, int u, int v) { s.erase(norm(u, v)); });
}
BENCHMARK(BM_DownLinksStdSet);

void BM_DownLinksLinkSet(benchmark::State& state) {
  sim::LinkSet set;
  down_links_mix(
      state, set,
      [](const auto& s, int u, int v) { return s.contains(sim::LinkSet::key(u, v)); },
      [](auto& s, int u, int v) { s.insert(sim::LinkSet::key(u, v)); },
      [](auto& s, int u, int v) { s.erase(sim::LinkSet::key(u, v)); });
}
BENCHMARK(BM_DownLinksLinkSet);

void BM_JacobiSvd(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(31);
  analysis::Matrix m(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m.at(i, j) = rng.uniform(0.0, 1.0);
  for (auto _ : state) benchmark::DoNotOptimize(analysis::jacobi_singular_values(m).front());
}
BENCHMARK(BM_JacobiSvd)->Arg(30)->Arg(60);

void BM_TopSingularValues(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(33);
  analysis::Matrix m(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) m.at(i, j) = rng.uniform(0.0, 1.0);
  for (auto _ : state)
    benchmark::DoNotOptimize(analysis::top_singular_values(m, 15, 30).front());
}
BENCHMARK(BM_TopSingularValues)->Arg(200)->Arg(400);

}  // namespace

// BENCHMARK_MAIN() expanded by hand so a GDVR_PROFILE=1 run can append the
// scoped-timer report (Delaunay build, overlay recompute, dijkstra, ...)
// after the benchmark table; scripts/bench.sh --profile relies on this.
int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (gdvr::obs::profiling_enabled()) gdvr::obs::write_profile_report(std::cerr);
  return 0;
}
