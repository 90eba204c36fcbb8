// VPoD: Virtual Position by Delaunay (paper Section II).
//
// Every node, upon receiving the start token, initializes a position in the
// d-dimensional virtual space, then alternates between J periods (MDT join /
// maintenance: rebuild the multi-hop DT over current virtual positions,
// refresh DT-neighbor routing costs) and A periods (iterative position
// adjustment against physical and DT neighbors). All timing is per-node and
// asynchronous; the token flood is the only global coordination.
//
// The adjustment algorithm is the paper's Figure 6 verbatim, including the
// confidence weight f = e_u / (e_u + e_v), the moving-average error update
// with tuning parameter c_e, and the adaptive adjustment timeout
// delta_u = min(delta_u0 / e_bar, Ta).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "mdt/overlay.hpp"

namespace gdvr::vpod {

using mdt::Envelope;
using mdt::Kind;
using mdt::NodeId;
using mdt::NodeInfo;

struct VpodConfig {
  int dim = 3;             // virtual space dimension
  double cc = 0.1;         // position-change tuning parameter (Sec. IV-D)
  double ce = 0.25;        // error moving-average parameter
  double adjust_period_s = 20.0;  // Ta
  double join_period_s = 6.0;     // J-period duration (MDT join/maintenance)
  double initial_timeout_s = 2.0; // delta_u0

  enum class TimeoutMode { kFixed, kAdaptive };
  TimeoutMode timeout_mode = TimeoutMode::kAdaptive;
  double fixed_timeout_s = 2.0;  // used when timeout_mode == kFixed

  // Ablation switch: when false, the confidence weight f = e_u / (e_u + e_v)
  // is replaced by a constant 0.5 (all neighbors trusted equally, position
  // errors propagate freely). The paper argues confidence weighting dampens
  // error propagation; bench/ablation_confidence quantifies it.
  bool use_confidence = true;

  // Relative size of the random offset that avoids degenerate (collinear)
  // midpoint initializations (Sec. II-B).
  double init_offset_rel = 0.05;

  mdt::MdtConfig mdt;  // dim is overwritten with `dim`
  std::uint64_t seed = 42;
};

class Vpod {
 public:
  Vpod(mdt::Net& net, const VpodConfig& config);

  // Installs this protocol as the NetSim receiver and injects the start
  // token at `starting_node` at the current simulation time.
  void start(NodeId starting_node);

  mdt::MdtOverlay& overlay() { return overlay_; }
  const mdt::MdtOverlay& overlay() const { return overlay_; }
  const VpodConfig& config() const { return config_; }

  // Number of completed A periods at node u (the figures' x axis).
  int completed_periods(NodeId u) const { return periods_[static_cast<std::size_t>(u)]; }

  // Total Figure-6 position adjustments executed across all nodes (each one
  // pushes a kPosUpdate to every physical and DT neighbor) -- the "VPoD
  // updates" metric the observability registry exports.
  std::uint64_t adjustments() const {
    std::uint64_t total = 0;
    for (std::uint64_t a : adjustments_) total += a;
    return total;
  }

  // --- churn (Sec. IV-H) ---------------------------------------------------
  // Node fails silently.
  void fail_node(NodeId u);
  // A fresh node joins: its initial position is the centroid of the virtual
  // positions of its alive physical neighbors whose error is below 1 (the
  // paper's churn rule); error starts at 1.
  void join_node(NodeId u);

  // Receiver entry point.
  void handle(NodeId to, NodeId from, Envelope&& msg);

 private:
  // A node's life is its NetSim incarnation. Every J/A timer captures the
  // incarnation it was scheduled in: one that outlives the node's death
  // finds it dead (each body checks net_.alive first) or, once it rejoined,
  // at a newer incarnation, and is discarded. Without this, a stale adjust
  // timer from the previous life could fire into a rejoined node whose
  // A-period state was reset.
  struct NodeCtl {
    bool has_token = false;
    sim::Time a_period_end = 0.0;
  };

  void receive_token(NodeId u, const NodeInfo& sender);
  Vec initial_position(NodeId u, const NodeInfo& sender);
  void enter_join_period(NodeId u);
  void enter_adjust_period(NodeId u);
  void adjustment_tick(NodeId u);
  // One execution of the Figure 6 adjustment algorithm.
  void adjust(NodeId u);
  // Adaptive timeout delta_u = min(delta_u0 / e_bar, Ta).
  double adjustment_timeout(NodeId u) const;

  mdt::Net& net_;
  VpodConfig config_;
  mdt::MdtOverlay overlay_;
  std::vector<NodeCtl> ctl_;
  std::vector<int> periods_;
  // Per node, aggregated by adjustments(): adjust(u) runs inside u's events,
  // so under the sharded engine no two lanes may share the counter.
  std::vector<std::uint64_t> adjustments_;
  // One stream per node for placement/stagger draws (DESIGN.md §4g).
  std::vector<Rng> rng_;
  Rng& rng_at(NodeId u) { return rng_[static_cast<std::size_t>(u)]; }
  NodeId starting_node_ = -1;
};

}  // namespace gdvr::vpod
