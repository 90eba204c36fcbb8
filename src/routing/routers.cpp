#include "routing/routers.hpp"

#include <cmath>

#include "obs/trace.hpp"

namespace gdvr::routing {

namespace {

constexpr double kEps = 1e-12;

// One physical hop; returns false if the link is missing.
bool take_link(const graph::Graph& metric, RouteResult& res, int from, int to) {
  const double c = metric.link_cost(from, to);
  if (!(c < graph::kInf)) return false;
  if (res.path.empty()) res.path.push_back(from);
  res.path.push_back(to);
  res.cost += c;
  ++res.transmissions;
  return true;
}

// Traverses a stored virtual-link path starting at `cur`; stops early if the
// destination `t` appears as a relay (a real relay would deliver). Returns
// the node the packet ends up at, or -1 on a broken path.
int traverse_path(const MdtView& view, RouteResult& res, const std::vector<int>& path, int t) {
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const int a = path[i], b = path[i + 1];
    if (!view.is_alive(b)) return -1;
    if (!take_link(*view.metric, res, a, b)) return -1;
    obs::trace_hop(a, b, obs::HopMode::kRelay, 0.0);
    if (b == t) return t;
  }
  return path.back();
}

int transmission_budget(const MdtView& view) { return 12 * view.size() + 64; }

// MDT-greedy step from `cur` toward view.pos[t]: closest physical neighbor
// if it makes progress, else closest multi-hop DT neighbor. Returns the new
// current node, or -1 at a local minimum / broken state. `mode` tags the
// decision's trace events (kGreedy when MDT-greedy is the primary protocol,
// kRecovery when it runs as GDV's fallback).
int mdt_greedy_step(const MdtView& view, RouteResult& res, int cur, int t,
                    obs::HopMode mode = obs::HopMode::kGreedy) {
  const Vec& tp = view.pos[static_cast<std::size_t>(t)];
  const double own = view.pos[static_cast<std::size_t>(cur)].distance(tp);
  int best_phys = -1;
  double best_d = own;
  for (const graph::Edge& e : view.metric->neighbors(cur)) {
    if (!view.is_alive(e.to)) continue;
    const double d = view.pos[static_cast<std::size_t>(e.to)].distance(tp);
    if (d < best_d) {
      best_d = d;
      best_phys = e.to;
    }
  }
  if (best_phys >= 0) {
    if (!take_link(*view.metric, res, cur, best_phys)) return -1;
    obs::trace_hop(cur, best_phys, mode, own);
    return best_phys;
  }
  const MdtView::DtNbr* best_dt = nullptr;
  best_d = own;
  for (const MdtView::DtNbr& d : view.dt[static_cast<std::size_t>(cur)]) {
    if (!view.is_alive(d.id)) continue;
    const double dist = view.pos[static_cast<std::size_t>(d.id)].distance(tp);
    if (dist < best_d) {
      best_d = dist;
      best_dt = &d;
    }
  }
  if (!best_dt) return -1;  // local minimum: the multi-hop DT is incomplete here
  obs::trace_hop(cur, best_dt->id, mode, own);
  return traverse_path(view, res, best_dt->path, t);
}

// 2D segment intersection point of (a,b) and (c,d); returns true and the
// parameter s along (c,d) if they properly intersect.
bool segment_cross(const Vec& a, const Vec& b, const Vec& c, const Vec& d, Vec& out) {
  const double r_x = b[0] - a[0], r_y = b[1] - a[1];
  const double s_x = d[0] - c[0], s_y = d[1] - c[1];
  const double denom = r_x * s_y - r_y * s_x;
  if (std::fabs(denom) < kEps) return false;
  const double qp_x = c[0] - a[0], qp_y = c[1] - a[1];
  const double tt = (qp_x * s_y - qp_y * s_x) / denom;
  const double uu = (qp_x * r_y - qp_y * r_x) / denom;
  if (tt < -kEps || tt > 1.0 + kEps || uu < -kEps || uu > 1.0 + kEps) return false;
  out = Vec{a[0] + tt * r_x, a[1] + tt * r_y};
  return true;
}

// GPSR-style perimeter traversal on the planar graph, starting at `cur`
// after a greedy failure. Exits back to the caller (returning the node id)
// as soon as some node is strictly closer to t than the entry point; returns
// -1 on failure (perimeter loop or disconnection).
int perimeter_mode(std::span<const Vec> pos, const graph::Graph& metric,
                   const PlanarGraph& planar, RouteResult& res, int cur, int t,
                   int budget) {
  const Vec& tp = pos[static_cast<std::size_t>(t)];
  const double entry_dist = pos[static_cast<std::size_t>(cur)].distance(tp);
  const Vec entry_pos = pos[static_cast<std::size_t>(cur)];
  double cross_dist = entry_dist;

  int next = planar.next_ccw(cur, planar.angle_from(cur, t));
  if (next < 0) return -1;
  const std::pair<int, int> first_edge{cur, next};
  bool first = true;

  while (res.transmissions < budget) {
    // Face change: if the edge about to be traversed crosses the line from
    // the perimeter entry point to t at a point closer to t, walk the new
    // face instead of crossing the line (standard GPSR rule).
    for (int guard = 0; guard < 64; ++guard) {
      Vec q;
      if (!segment_cross(pos[static_cast<std::size_t>(cur)], pos[static_cast<std::size_t>(next)],
                         entry_pos, tp, q))
        break;
      const double dq = q.distance(tp);
      if (dq >= cross_dist - kEps) break;
      cross_dist = dq;
      const int alt = planar.next_ccw(cur, planar.angle_from(cur, next));
      if (alt < 0 || alt == next) break;
      next = alt;
    }
    if (!first && std::pair<int, int>{cur, next} == first_edge) return -1;  // full loop
    first = false;
    if (!take_link(metric, res, cur, next)) return -1;
    obs::trace_hop(cur, next, obs::HopMode::kRecovery,
                   pos[static_cast<std::size_t>(cur)].distance(tp));
    const int prev = cur;
    cur = next;
    if (cur == t) return cur;
    if (pos[static_cast<std::size_t>(cur)].distance(tp) < entry_dist - kEps) return cur;
    next = planar.next_ccw(cur, planar.angle_from(cur, prev));
    if (next < 0) return -1;
  }
  return -1;
}

}  // namespace

// ---------------------------------------------------------------------------

RouteResult route_gdv(const MdtView& view, int s, int t) {
  RouteResult res;
  obs::PacketTrace trace(s, t, &res.success);
  const graph::Graph& metric = *view.metric;
  const Vec& tp = view.pos[static_cast<std::size_t>(t)];
  const int budget = transmission_budget(view);
  int cur = s;
  while (cur != t) {
    if (res.transmissions >= budget) return res;
    const double own = view.pos[static_cast<std::size_t>(cur)].distance(tp);

    // Lines 1-3: DV-style estimated costs over P_u ∪ N_u.
    double best_r = graph::kInf;
    int best_phys = -1;
    const MdtView::DtNbr* best_dt = nullptr;
    for (const graph::Edge& e : metric.neighbors(cur)) {
      if (!view.is_alive(e.to)) continue;
      const double r = e.cost + view.pos[static_cast<std::size_t>(e.to)].distance(tp);
      if (r < best_r) {
        best_r = r;
        best_phys = e.to;
        best_dt = nullptr;
      }
    }
    for (const MdtView::DtNbr& d : view.dt[static_cast<std::size_t>(cur)]) {
      if (!view.is_alive(d.id)) continue;
      const double r = d.cost + view.pos[static_cast<std::size_t>(d.id)].distance(tp);
      if (r < best_r) {
        best_r = r;
        best_phys = -1;
        best_dt = &d;
      }
    }

    if (best_r < own) {
      // Line 4: forward directly or along the stored multi-hop path.
      if (best_phys >= 0) {
        if (!take_link(metric, res, cur, best_phys)) return res;
        obs::trace_hop(cur, best_phys, obs::HopMode::kGreedy, own);
        cur = best_phys;
      } else {
        obs::trace_hop(cur, best_dt->id, obs::HopMode::kGreedy, own);
        cur = traverse_path(view, res, best_dt->path, t);
        if (cur < 0) return res;
      }
      continue;
    }
    // Line 5: MDT-greedy fallback (guaranteed delivery on a correct DT).
    cur = mdt_greedy_step(view, res, cur, t, obs::HopMode::kRecovery);
    if (cur < 0) return res;
  }
  res.success = true;
  return res;
}

RouteResult route_gdv_basic(const MdtView& view, int s, int t, const PlanarGraph* recovery) {
  RouteResult res;
  obs::PacketTrace trace(s, t, &res.success);
  const graph::Graph& metric = *view.metric;
  const Vec& tp = view.pos[static_cast<std::size_t>(t)];
  const int budget = transmission_budget(view);
  int cur = s;
  while (cur != t) {
    if (res.transmissions >= budget) return res;
    const double own = view.pos[static_cast<std::size_t>(cur)].distance(tp);

    double best_r = graph::kInf;
    int best = -1;
    for (const graph::Edge& e : metric.neighbors(cur)) {
      if (!view.is_alive(e.to)) continue;
      const double r = e.cost + view.pos[static_cast<std::size_t>(e.to)].distance(tp);
      if (r < best_r) {
        best_r = r;
        best = e.to;
      }
    }
    if (best >= 0 && best_r < own) {
      if (!take_link(metric, res, cur, best)) return res;
      obs::trace_hop(cur, best, obs::HopMode::kGreedy, own);
      cur = best;
      continue;
    }
    // GR fallback: plain greedy step; perimeter recovery if available (2D).
    int closest = -1;
    double closest_d = own;
    for (const graph::Edge& e : metric.neighbors(cur)) {
      if (!view.is_alive(e.to)) continue;
      const double d = view.pos[static_cast<std::size_t>(e.to)].distance(tp);
      if (d < closest_d) {
        closest_d = d;
        closest = e.to;
      }
    }
    if (closest >= 0) {
      if (!take_link(metric, res, cur, closest)) return res;
      obs::trace_hop(cur, closest, obs::HopMode::kRecovery, own);
      cur = closest;
      continue;
    }
    if (!recovery) return res;
    cur = perimeter_mode(view.pos, metric, *recovery, res, cur, t, budget);
    if (cur < 0) return res;
  }
  res.success = true;
  return res;
}

RouteResult route_mdt_greedy(const MdtView& view, int s, int t) {
  RouteResult res;
  obs::PacketTrace trace(s, t, &res.success);
  const int budget = transmission_budget(view);
  int cur = s;
  while (cur != t) {
    if (res.transmissions >= budget) return res;
    cur = mdt_greedy_step(view, res, cur, t);
    if (cur < 0) return res;
  }
  res.success = true;
  return res;
}

RouteResult route_nadv(std::span<const Vec> pos, const graph::Graph& metric,
                       const PlanarGraph& planar, int s, int t) {
  RouteResult res;
  obs::PacketTrace trace(s, t, &res.success);
  const Vec& tp = pos[static_cast<std::size_t>(t)];
  const int budget = 12 * metric.size() + 64;
  int cur = s;
  while (cur != t) {
    if (res.transmissions >= budget) return res;
    const double own = pos[static_cast<std::size_t>(cur)].distance(tp);
    // NADV: maximize (d(u,t) - d(y,t)) / c(u,y) over neighbors with positive
    // advance.
    int best = -1;
    double best_nadv = 0.0;
    for (const graph::Edge& e : metric.neighbors(cur)) {
      const double adv = own - pos[static_cast<std::size_t>(e.to)].distance(tp);
      if (adv <= 0.0) continue;
      const double nadv = adv / e.cost;
      if (nadv > best_nadv) {
        best_nadv = nadv;
        best = e.to;
      }
    }
    if (best >= 0) {
      if (!take_link(metric, res, cur, best)) return res;
      obs::trace_hop(cur, best, obs::HopMode::kGreedy, own);
      cur = best;
      continue;
    }
    cur = perimeter_mode(pos, metric, planar, res, cur, t, budget);
    if (cur < 0) return res;
  }
  res.success = true;
  return res;
}

RouteResult route_gpsr(std::span<const Vec> pos, const graph::Graph& metric,
                       const PlanarGraph& planar, int s, int t) {
  RouteResult res;
  obs::PacketTrace trace(s, t, &res.success);
  const Vec& tp = pos[static_cast<std::size_t>(t)];
  const int budget = 12 * metric.size() + 64;
  int cur = s;
  while (cur != t) {
    if (res.transmissions >= budget) return res;
    const double own = pos[static_cast<std::size_t>(cur)].distance(tp);
    int best = -1;
    double best_d = own;
    for (const graph::Edge& e : metric.neighbors(cur)) {
      const double d = pos[static_cast<std::size_t>(e.to)].distance(tp);
      if (d < best_d) {
        best_d = d;
        best = e.to;
      }
    }
    if (best >= 0) {
      if (!take_link(metric, res, cur, best)) return res;
      obs::trace_hop(cur, best, obs::HopMode::kGreedy, own);
      cur = best;
      continue;
    }
    cur = perimeter_mode(pos, metric, planar, res, cur, t, budget);
    if (cur < 0) return res;
  }
  res.success = true;
  return res;
}

}  // namespace gdvr::routing
