// Figures 15 & 16: scalability sweep over the number of nodes N (physical
// area scaled to keep average degree 14.5). One sweep produces all four
// panels, so both figures are emitted by this binary:
//   Fig 15(a) routing stretch vs N        (MDT, GDV on VPoD 2D/3D)
//   Fig 15(b) transmissions vs N (ETX)    (NADV, GDV on VPoD 2D/3D, optimal)
//   Fig 16(a) storage cost vs N           (NADV, MDT, GDV on VPoD 2D/3D)
//   Fig 16(b) routing success rate vs N   (GDV on VPoD/MDT, NADV)
//
// Every (N, run) pair is an independent trial with its own Simulator, so the
// sweep fans out over ParallelTrials; per-trial seeds depend only on (N, run)
// and results aggregate in trial order, keeping the output identical to a
// sequential run.
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>

#include "common.hpp"
#include "common/parallel.hpp"
#include "routing/mdt_view.hpp"

using namespace gdvr;
using namespace gdvr::bench;

namespace {

double mdt_actual_storage(const radio::Topology& topo) {
  const routing::MdtView view = routing::centralized_mdt(topo.positions, topo.hops);
  std::vector<std::set<int>> known(static_cast<std::size_t>(topo.size()));
  for (int u = 0; u < topo.size(); ++u) {
    for (const graph::Edge& e : topo.hops.neighbors(u)) known[static_cast<std::size_t>(u)].insert(e.to);
    for (const routing::MdtView::DtNbr& d : view.dt[static_cast<std::size_t>(u)]) {
      known[static_cast<std::size_t>(u)].insert(d.id);
      for (std::size_t i = 1; i + 1 < d.path.size(); ++i) {
        known[static_cast<std::size_t>(d.path[i])].insert(u);
        known[static_cast<std::size_t>(d.path[i])].insert(d.id);
      }
    }
  }
  double total = 0.0;
  for (const auto& k : known) total += static_cast<double>(k.size());
  return total / topo.size();
}

// Everything one (N, run) trial contributes to the four panels.
struct Trial {
  double ms = 0, g2s = 0, g3s = 0, nt = 0, g2t = 0, g3t = 0, ot = 0;
  double nst = 0, mst = 0, g2st = 0, g3st = 0, gsr = 0, nsr = 0;
};

// Large-N smoke: drives the topology -> all-pairs pipeline at sizes
// far beyond the paper's sweep (area still scaled for degree 14.5). No
// figures -- this exists to prove the pipeline completes and to show its
// wall-clock scaling. Sources for the all-pairs sweep are capped so the
// largest size stays a smoke test rather than a coffee break.
void large_smoke() {
  using clock = std::chrono::steady_clock;
  const auto ms_since = [](clock::time_point t0) {
    return std::chrono::duration<double, std::milli>(clock::now() - t0).count();
  };
  std::printf("Large-N pipeline smoke | avg degree 14.5\n");
  std::printf("%6s %10s %10s %8s %12s\n", "N", "gen_ms", "degree", "edges", "sssp_ms/src");
  for (const int n : {2000, 5000}) {
    auto t0 = clock::now();
    const radio::Topology topo = paper_topology(n, 97);
    const double gen_ms = ms_since(t0);

    // Shortest-path trees from a capped number of sources (the all-pairs
    // kernel, sampled): enough to exercise the parallel sweep end to end.
    const int sources = std::min(topo.size(), 200);
    t0 = clock::now();
    graph::DijkstraWorkspace ws;
    double reach = 0.0;
    for (int s = 0; s < sources; ++s) {
      const auto& sp = graph::dijkstra(topo.etx, s, ws);
      for (const double d : sp.dist) reach += d < graph::kInf ? 1.0 : 0.0;
    }
    const double sssp_ms = ms_since(t0) / sources;
    GDVR_ASSERT(reach > 0.0);

    std::printf("%6d %10.1f %10.2f %8zu %12.3f\n", topo.size(), gen_ms,
                topo.etx.average_degree(), topo.etx.edge_count(), sssp_ms);
  }
}

// Serial-vs-sharded engine sweep (DESIGN.md §4g): the full VPoD protocol --
// token flood, MDT joins, position adjustment -- through one adjustment
// period at large N, on the serial oracle and on the sharded engine at
// 1/2/4/8 worker threads. The sharded rows must agree with each other
// bit-for-bit (same message count at every thread count); the speedup
// column is the engine's reason to exist. check.sh --release smokes the
// n=2000 row; the n=5000 x 8-thread point is the acceptance number that
// BM_VpodEngine re-measures into BENCH_core.json.
void engine_sweep(bool smoke) {
  using clock = std::chrono::steady_clock;
  // Smoke keeps a single-core CI container honest in seconds; the full
  // sweep is sized for a multi-core host (n=5000 serial alone runs minutes).
  const std::vector<int> sizes = smoke ? std::vector<int>{500} : std::vector<int>{2000, 5000};
  const std::vector<int> threads = smoke ? std::vector<int>{0, 2} : std::vector<int>{0, 1, 2, 4, 8};
  std::printf("Engine sweep: full VPoD run to period %d | avg degree 14.5%s\n", smoke ? 0 : 1,
              smoke ? " [smoke]" : "");
  std::printf("%6s %10s %10s %12s %10s %10s\n", "N", "engine", "threads", "messages",
              "wall_ms", "speedup");
  for (const int n : sizes) {
    const radio::Topology topo = paper_topology(n, 97);
    double serial_ms = 0.0;
    std::uint64_t serial_msgs = 0, sharded_msgs = 0;
    for (const int t : threads) {
      const bool sharded = t > 0;
      setenv("GDVR_SIM_ENGINE", sharded ? "sharded" : "serial", 1);
      setenv("GDVR_THREADS", std::to_string(sharded ? t : 1).c_str(), 1);
      const auto t0 = clock::now();
      eval::VpodRunner runner(topo, /*use_etx=*/false, paper_vpod(3));
      // Smoke stops at the period-0 boundary (token flood + initial MDT
      // join, the densest traffic); the full sweep runs a whole J+A cycle.
      runner.run_to_period(smoke ? 0 : 1);
      const double ms = std::chrono::duration<double, std::milli>(clock::now() - t0).count();
      const std::uint64_t msgs = runner.net().total_messages_sent();
      if (!sharded) {
        serial_ms = ms;
        serial_msgs = msgs;
      } else if (sharded_msgs == 0) {
        sharded_msgs = msgs;
      }
      // Determinism cross-checks: sharded runs agree with each other at
      // every thread count, and with the serial oracle.
      GDVR_ASSERT(!sharded || msgs == sharded_msgs);
      GDVR_ASSERT(serial_msgs == 0 || msgs == serial_msgs);
      std::printf("%6d %10s %10d %12llu %10.1f %9.2fx\n", n,
                  sharded ? "sharded" : "serial", sharded ? t : 1,
                  static_cast<unsigned long long>(msgs), ms,
                  serial_ms > 0.0 ? serial_ms / ms : 1.0);
    }
  }
  unsetenv("GDVR_SIM_ENGINE");
  unsetenv("GDVR_THREADS");
}

}  // namespace

int main(int argc, char** argv) {
  bool want_large = false, want_sweep = false, want_smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--large") == 0) want_large = true;
    if (std::strcmp(argv[i], "--engine-sweep") == 0) want_sweep = true;
    if (std::strcmp(argv[i], "--smoke") == 0) want_smoke = true;
  }
  if (want_large) {
    large_smoke();
    return 0;
  }
  if (want_sweep) {
    engine_sweep(want_smoke);
    return 0;
  }
  const bool full = full_mode(argc, argv);
  const int runs = full ? 20 : 1;
  const int periods = full ? 25 : 10;
  const int pairs = full ? 0 : 300;
  const std::vector<int> sizes = full
      ? std::vector<int>{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
      : std::vector<int>{100, 200, 400, 1000};

  ParallelTrials pool;
  std::printf("Figures 15-16 | avg degree kept at 14.5, %d run(s) per point%s, %d thread(s)\n",
              runs, full ? " [full]" : " [quick]", pool.threads());

  const int total = static_cast<int>(sizes.size()) * runs;
  const std::vector<Trial> trials = pool.run(total, [&](int t) {
    const int n = sizes[static_cast<std::size_t>(t / runs)];
    const int run = t % runs;
    const auto seed = 1500 + static_cast<std::uint64_t>(n) * 7 +
                      static_cast<std::uint64_t>(run) * 17;
    const radio::Topology topo = paper_topology(n, seed);
    eval::EvalOptions hop_opts{pairs, seed, false, {}};
    eval::EvalOptions etx_opts{pairs, seed, true, {}};

    Trial r;
    r.ms = eval::eval_mdt_actual(topo, hop_opts).stretch;
    const auto nadv_hop = eval::eval_nadv_actual(topo, hop_opts);
    const auto nadv_etx = eval::eval_nadv_actual(topo, etx_opts);
    r.nt = nadv_etx.transmissions;
    r.ot = nadv_etx.optimal_transmissions;
    r.nsr = nadv_hop.success_rate;
    r.nst = topo.hops.average_degree();
    r.mst = mdt_actual_storage(topo);

    for (int dim : {2, 3}) {
      // Hop-metric run (stretch, success, storage measured here).
      eval::VpodRunner hop_runner(topo, false, paper_vpod(dim));
      hop_runner.run_to_period(periods);
      const auto hop_stats = eval::eval_gdv(hop_runner.snapshot(), topo, hop_opts);
      (dim == 2 ? r.g2s : r.g3s) = hop_stats.stretch;
      (dim == 2 ? r.g2st : r.g3st) = hop_runner.avg_storage();
      if (dim == 3) r.gsr = hop_stats.success_rate;
      // ETX-metric run.
      eval::VpodRunner etx_runner(topo, true, paper_vpod(dim));
      etx_runner.run_to_period(periods);
      (dim == 2 ? r.g2t : r.g3t) =
          eval::eval_gdv(etx_runner.snapshot(), topo, etx_opts).transmissions;
    }
    return r;
  });

  std::vector<double> xs;
  Series mdt_stretch{"MDT on actual", {}}, g2_stretch{"GDV VPoD 2D", {}},
      g3_stretch{"GDV VPoD 3D", {}};
  Series nadv_tx{"NADV on actual", {}}, g2_tx{"GDV VPoD 2D", {}}, g3_tx{"GDV VPoD 3D", {}},
      opt_tx{"optimal", {}};
  Series nadv_st{"NADV on actual", {}}, mdt_st{"MDT on actual", {}}, g2_st{"GDV VPoD 2D", {}},
      g3_st{"GDV VPoD 3D", {}};
  Series gdv_sr{"GDV on VPoD/MDT", {}}, nadv_sr{"NADV on actual", {}};

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    xs.push_back(sizes[si]);
    Trial sum;
    for (int run = 0; run < runs; ++run) {
      const Trial& r = trials[si * static_cast<std::size_t>(runs) + static_cast<std::size_t>(run)];
      sum.ms += r.ms; sum.g2s += r.g2s; sum.g3s += r.g3s;
      sum.nt += r.nt; sum.g2t += r.g2t; sum.g3t += r.g3t; sum.ot += r.ot;
      sum.nst += r.nst; sum.mst += r.mst; sum.g2st += r.g2st; sum.g3st += r.g3st;
      sum.gsr += r.gsr; sum.nsr += r.nsr;
    }
    mdt_stretch.values.push_back(sum.ms / runs);
    g2_stretch.values.push_back(sum.g2s / runs);
    g3_stretch.values.push_back(sum.g3s / runs);
    nadv_tx.values.push_back(sum.nt / runs);
    g2_tx.values.push_back(sum.g2t / runs);
    g3_tx.values.push_back(sum.g3t / runs);
    opt_tx.values.push_back(sum.ot / runs);
    nadv_st.values.push_back(sum.nst / runs);
    mdt_st.values.push_back(sum.mst / runs);
    g2_st.values.push_back(sum.g2st / runs);
    g3_st.values.push_back(sum.g3st / runs);
    gdv_sr.values.push_back(sum.gsr / runs);
    nadv_sr.values.push_back(sum.nsr / runs);
  }

  print_table("Fig 15(a): routing stretch vs N (hop count)", "N", xs,
              {mdt_stretch, g2_stretch, g3_stretch});
  print_table("Fig 15(b): transmissions per delivery vs N (ETX)", "N", xs,
              {nadv_tx, g2_tx, g3_tx, opt_tx});
  print_table("Fig 16(a): ave. distinct nodes stored vs N", "N", xs,
              {nadv_st, mdt_st, g2_st, g3_st});
  print_table("Fig 16(b): routing success rate vs N", "N", xs, {gdv_sr, nadv_sr});
  std::printf("\nexpected shape: GDV stretch stays low and beats MDT; at N=1000 GDV's ETX\n"
              "transmissions are roughly half of NADV's; GDV/MDT success stays 1.0 while\n"
              "NADV's drops below 1 and decreases with N; storage stays low for all.\n");
  return 0;
}
