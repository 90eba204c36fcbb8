#include "eval/invariants.hpp"

#include <algorithm>
#include <set>

#include "eval/protocol_runner.hpp"
#include "eval/routing_eval.hpp"
#include "geom/delaunay.hpp"
#include "routing/mdt_view.hpp"

namespace gdvr::eval {

namespace {

// Recall of the centralized Delaunay adjacency (over current positions of
// alive joined nodes) within the distributed DT neighbor sets.
double dt_neighbor_accuracy(const mdt::MdtOverlay& overlay, const mdt::Net& net) {
  std::vector<int> ids;
  std::vector<Vec> pts;
  for (int u = 0; u < net.size(); ++u) {
    if (!net.alive(u) || !overlay.active(u) || !overlay.joined(u)) continue;
    ids.push_back(u);
    pts.push_back(overlay.position(u));
  }
  if (ids.size() < 2) return 1.0;
  const geom::DelaunayGraph ideal = geom::delaunay_graph(pts);
  const std::set<int> universe(ids.begin(), ids.end());
  std::size_t expected = 0;
  std::size_t matched = 0;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    std::set<int> want;
    for (int v : ideal.nbrs[i]) want.insert(ids[static_cast<std::size_t>(v)]);
    expected += want.size();
    for (int y : overlay.dt_neighbors(ids[i]))
      if (universe.count(y) && want.count(y)) ++matched;
  }
  return expected == 0 ? 1.0 : static_cast<double>(matched) / static_cast<double>(expected);
}

// Every stored virtual-link path of a DT neighbor must cross only alive
// nodes and usable links. A physical DT neighbor holds one too ({u, y}, or
// the route of its last neighbor-set exchange) and is counted; an N_u member
// whose C_u record holds no path (no record, or none synced yet) is skipped.
std::pair<int, int> virtual_link_liveness(const mdt::MdtOverlay& overlay, const mdt::Net& net) {
  int total = 0;
  int live = 0;
  for (int u = 0; u < net.size(); ++u) {
    if (!net.alive(u) || !overlay.active(u)) continue;
    for (int y : overlay.dt_neighbors(u)) {
      const std::vector<int>& path = overlay.virtual_path(u, y);
      if (path.size() < 2) continue;  // no stored path
      ++total;
      bool ok = true;
      for (std::size_t i = 0; i < path.size() && ok; ++i) {
        if (!net.alive(path[i])) ok = false;
        if (ok && i + 1 < path.size() && !net.link_usable(path[i], path[i + 1])) ok = false;
      }
      if (ok) ++live;
    }
  }
  return {live, total};
}

}  // namespace

InvariantReport audit_invariants(const VpodRunner& runner, const InvariantOptions& opts) {
  const mdt::MdtOverlay& overlay = runner.protocol().overlay();
  const mdt::Net& net = overlay.net();

  InvariantReport r;
  r.at = net.simulator().now();
  for (int u = 0; u < net.size(); ++u) {
    if (!net.alive(u)) continue;
    ++r.alive_nodes;
    if (overlay.active(u) && overlay.joined(u)) ++r.joined_nodes;
  }

  r.dt_accuracy = dt_neighbor_accuracy(overlay, net);
  const auto [live, total] = virtual_link_liveness(overlay, net);
  r.virtual_links = total;
  r.link_liveness = total == 0 ? 1.0 : static_cast<double>(live) / static_cast<double>(total);

  const routing::MdtView view = runner.snapshot();
  EvalOptions eval_opts;
  eval_opts.use_etx = runner.use_etx();
  eval_opts.pair_samples = opts.pair_samples;
  eval_opts.seed = opts.seed;
  eval_opts.eligible = largest_alive_component(view);
  const RoutingStats stats = eval_gdv(view, runner.topology(), eval_opts);
  r.routing_success = stats.success_rate;
  r.stretch = stats.stretch;
  r.transmissions = stats.transmissions;
  return r;
}

InvariantAuditor::InvariantAuditor(VpodRunner& runner, const InvariantOptions& opts)
    : runner_(runner), opts_(opts) {}

void InvariantAuditor::start(double period_s, sim::Time until) {
  sim::Simulator& sim = runner_.simulator();
  for (sim::Time at = sim.now() + period_s; at <= until; at += period_s) {
    sim.schedule_at(at, [this] { audit_now(); });
  }
}

const InvariantReport& InvariantAuditor::audit_now() {
  InvariantOptions opts = opts_;
  // Vary the pair sample per audit so a time series does not resample the
  // same pairs, while staying deterministic for a fixed base seed.
  opts.seed = opts_.seed + static_cast<std::uint64_t>(history_.size());
  history_.push_back(audit_invariants(runner_, opts));
  return history_.back();
}

double InvariantAuditor::min_dt_accuracy() const {
  double m = 1.0;
  for (const auto& r : history_) m = std::min(m, r.dt_accuracy);
  return m;
}

double InvariantAuditor::min_link_liveness() const {
  double m = 1.0;
  for (const auto& r : history_) m = std::min(m, r.link_liveness);
  return m;
}

double InvariantAuditor::min_routing_success() const {
  double m = 1.0;
  for (const auto& r : history_) m = std::min(m, r.routing_success);
  return m;
}

}  // namespace gdvr::eval
