// gdv_sim: configurable command-line driver for the whole stack.
//
// Runs one experiment end to end -- topology generation, VPoD convergence,
// GDV routing evaluation against the baselines -- with every major knob
// exposed as a flag. Useful for exploring the design space beyond the
// paper's figure settings.
//
//   $ ./build/examples/gdv_sim --nodes 300 --metric ett --dim 4 --obstacles 2
//   $ ./build/examples/gdv_sim --help
//
// With GDVR_PROFILE=1 in the environment, the scoped-timer report (local DT,
// overlay recompute, dijkstra, ...) follows the run on stderr; stdout is the
// same either way.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "common/vec.hpp"
#include "eval/protocol_runner.hpp"
#include "eval/routing_eval.hpp"
#include "obs/profile.hpp"
#include "radio/topology.hpp"

using namespace gdvr;

namespace {

struct Args {
  int nodes = 200;
  int dim = 3;
  int space_dim = 2;
  int obstacles = 0;
  int periods = 12;
  int pairs = 400;
  double cc = 0.1;
  double degree = 14.5;
  std::uint64_t seed = 1;
  radio::Metric metric = radio::Metric::kEtx;
  bool fixed_timeout = false;
  double timeout_s = 2.0;
  bool per_period = false;
};

void usage() {
  std::printf(
      "gdv_sim -- run one GDV/VPoD experiment\n"
      "  --nodes N        number of nodes (default 200)\n"
      "  --dim D          virtual space dimension 2..%d (default 3)\n"
      "  --space-dim D    physical space dimension 2 or 3 (default 2)\n"
      "  --metric M       hop | etx | ett | energy (default etx)\n"
      "  --obstacles K    number of 10x10m obstacles, 2D only (default 0)\n"
      "  --periods P      adjustment periods to run (default 12)\n"
      "  --pairs K        sampled src-dst pairs, 0 = all (default 400)\n"
      "  --cc X           VPoD position tuning parameter (default 0.1)\n"
      "  --degree X       target average physical degree, 0 < X <= N - 1 (default 14.5)\n"
      "  --seed S         RNG seed (default 1)\n"
      "  --fixed-timeout T  use a fixed adjustment timeout of T seconds\n"
      "  --per-period     print routing quality after every period\n",
      Vec::kMaxDim);
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (flag == "--help") return false;
    if (flag == "--per-period") {
      a.per_period = true;
      continue;
    }
    const char* v = next();
    if (!v) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    if (flag == "--nodes") a.nodes = std::atoi(v);
    else if (flag == "--dim") a.dim = std::atoi(v);
    else if (flag == "--space-dim") a.space_dim = std::atoi(v);
    else if (flag == "--obstacles") a.obstacles = std::atoi(v);
    else if (flag == "--periods") a.periods = std::atoi(v);
    else if (flag == "--pairs") a.pairs = std::atoi(v);
    else if (flag == "--cc") a.cc = std::atof(v);
    else if (flag == "--degree") a.degree = std::atof(v);
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--fixed-timeout") {
      a.fixed_timeout = true;
      a.timeout_s = std::atof(v);
    } else if (flag == "--metric") {
      if (!std::strcmp(v, "hop")) a.metric = radio::Metric::kHopCount;
      else if (!std::strcmp(v, "etx")) a.metric = radio::Metric::kEtx;
      else if (!std::strcmp(v, "ett")) a.metric = radio::Metric::kEtt;
      else if (!std::strcmp(v, "energy")) a.metric = radio::Metric::kEnergy;
      else {
        std::fprintf(stderr, "unknown metric %s\n", v);
        return false;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (a.dim < 2 || a.dim > Vec::kMaxDim) {
    std::fprintf(stderr, "--dim must be in 2..%d\n", Vec::kMaxDim);
    return false;
  }
  // Each of these would otherwise crash the run or print NaN ratios.
  const auto reject = [](const char* why) {
    std::fprintf(stderr, "%s\n", why);
    return false;
  };
  if (a.nodes < 2) return reject("--nodes must be at least 2");
  // Written so that NaN fails too. Above nodes - 1 the calibration would pin
  // the power at its +30 dBm edge and run at whatever degree that gives.
  if (!(a.degree > 0.0 && a.degree <= a.nodes - 1))
    return reject("--degree must be > 0 and at most --nodes - 1");
  if (a.space_dim != 2 && a.space_dim != 3) return reject("--space-dim must be 2 or 3");
  if (a.obstacles < 0) return reject("--obstacles must be >= 0");
  if (a.obstacles > 0 && a.space_dim != 2) return reject("--obstacles needs --space-dim 2");
  if (a.periods < 0) return reject("--periods must be >= 0");
  if (a.fixed_timeout && !(a.timeout_s > 0.0)) return reject("--fixed-timeout must be > 0");
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    usage();
    return 1;
  }

  radio::TopologyConfig tc;
  tc.n = a.nodes;
  tc.seed = a.seed;
  tc.space_dim = a.space_dim;
  tc.num_obstacles = a.obstacles;
  tc.target_avg_degree = a.degree;
  const double scale = std::sqrt(static_cast<double>(a.nodes) / 200.0);
  tc.width_m = 100.0 * scale;
  tc.height_m = 100.0 * scale;
  const radio::Topology topo = radio::make_random_topology(tc);
  std::printf("topology: %d nodes (%dD space), avg degree %.1f, %d obstacles\n", topo.size(),
              a.space_dim, topo.etx.average_degree(), a.obstacles);
  std::printf("metric: %s | virtual space: %dD | cc=%.3g | %s timeout\n",
              radio::metric_name(a.metric), a.dim, a.cc, a.fixed_timeout ? "fixed" : "adaptive");

  vpod::VpodConfig vc;
  vc.dim = a.dim;
  vc.cc = a.cc;
  if (a.fixed_timeout) {
    vc.timeout_mode = vpod::VpodConfig::TimeoutMode::kFixed;
    vc.fixed_timeout_s = a.timeout_s;
  }
  eval::VpodRunner runner(topo, a.metric, vc, {}, a.seed);

  const graph::Graph& metric = topo.metric_graph(a.metric);
  auto eval_now = [&] {
    const auto view = runner.snapshot();
    const auto pairs = eval::sample_pairs(eval::alive_nodes(view), a.pairs, a.seed);
    return eval::evaluate_router(
        [&](int s, int t) { return routing::route_gdv(view, s, t); }, metric, topo.hops,
        /*use_etx=*/true, pairs);
  };

  if (a.per_period) {
    std::printf("\n%8s %16s %16s %10s %10s\n", "period", "cost/delivery", "optimal", "ratio",
                "delivery");
    for (int k = 0; k <= a.periods; ++k) {
      runner.run_to_period(k);
      const auto s = eval_now();
      std::printf("%8d %16.3f %16.3f %10.3f %9.0f%%\n", k, s.transmissions,
                  s.optimal_transmissions, s.transmissions / s.optimal_transmissions,
                  100.0 * s.success_rate);
    }
  } else {
    runner.run_to_period(a.periods);
  }

  const auto final_stats = eval_now();
  eval::EvalOptions base_opts;
  base_opts.pair_samples = a.pairs;
  base_opts.seed = a.seed;
  base_opts.use_etx = true;

  std::printf("\nfinal results (%s cost per delivered packet):\n", radio::metric_name(a.metric));
  std::printf("  GDV on VPoD:   %10.3f  (delivery %.1f%%, storage %.1f nodes)\n",
              final_stats.transmissions, 100.0 * final_stats.success_rate, runner.avg_storage());
  std::printf("  optimal:       %10.3f  (ratio %.3f)\n", final_stats.optimal_transmissions,
              final_stats.transmissions / final_stats.optimal_transmissions);
  if (a.space_dim == 2) {
    // Baselines need 2D physical positions (planarized recovery).
    const auto view = routing::centralized_mdt(topo.positions, metric);
    const auto pairs = eval::sample_pairs(eval::alive_nodes(view), a.pairs, a.seed);
    const auto mdt = eval::evaluate_router(
        [&](int s, int t) { return routing::route_mdt_greedy(view, s, t); }, metric, topo.hops,
        true, pairs);
    const routing::PlanarGraph planar(topo.positions, topo.hops);
    const auto nadv = eval::evaluate_router(
        [&](int s, int t) { return routing::route_nadv(topo.positions, metric, planar, s, t); },
        metric, topo.hops, true, pairs);
    std::printf("  MDT on actual: %10.3f  (delivery %.1f%%)\n", mdt.transmissions,
                100.0 * mdt.success_rate);
    std::printf("  NADV on actual:%10.3f  (delivery %.1f%%)\n", nadv.transmissions,
                100.0 * nadv.success_rate);
  }
  if (obs::profiling_enabled()) {
    std::fflush(stdout);
    obs::write_profile_report(std::cerr);
  }
  return 0;
}
