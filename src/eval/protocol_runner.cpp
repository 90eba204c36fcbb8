#include "eval/protocol_runner.hpp"

namespace gdvr::eval {

VpodRunner::VpodRunner(const radio::Topology& topo, radio::Metric metric_kind,
                       const vpod::VpodConfig& config, DelayRange delays, std::uint64_t net_seed,
                       const std::vector<int>& initially_dead)
    : topo_(topo), metric_(metric_kind) {
  // Engine seam: GDVR_SIM_ENGINE=sharded runs this simulation on the
  // conservative-parallel engine, partitioned by the spatial bucket grid.
  // Must precede start(): node-owned timers route through shard lanes.
  if (sim::engine_from_env() == sim::SimEngine::kSharded)
    sim_.configure_sharding(radio::spatial_shards(topo));
  const graph::Graph& metric = topo.metric_graph(metric_kind);
  net_ = std::make_unique<mdt::Net>(sim_, metric, delays.min_s, delays.max_s, net_seed);
  for (int u : initially_dead) net_->set_alive(u, false);
  vpod_ = std::make_unique<vpod::Vpod>(*net_, config);
  period_len_ = config.join_period_s + config.adjust_period_s;
  // Token flood + first-J-period stagger happens within ~0.5 s.
  start_offset_ = 0.5;
  vpod_->start(/*starting_node=*/0);
}

void VpodRunner::run_to_period(int k) {
  // Each node's cycle is one J period followed by one A period. Sampling at
  // the end of the J period *after* A period k matches the paper's
  // methodology ("the MDT protocols are then run one more time to update the
  // multi-hop DT"): positions reflect k adjustment periods and the DT has
  // been reconstructed over them. k = 0 samples freshly initialized
  // positions after the initial join.
  const double boundary = start_offset_ + vpod_->config().join_period_s +
                          static_cast<double>(k) * period_len_;
  sim_.run_until(boundary);
}

void VpodRunner::enable_reliable_sync(const sim::ReliableConfig& config) {
  if (reliable_) return;
  reliable_ = std::make_unique<sim::ReliableTransport<mdt::Envelope>>(
      *net_, config, [](int from, int to, std::uint64_t seq) { return mdt::make_ack(from, to, seq); });
  vpod_->overlay().use_reliable_transport(reliable_.get());
}

std::vector<std::pair<int, int>> VpodRunner::physical_edges() const {
  const graph::Graph& g = topo_.metric_graph(metric_);
  std::vector<std::pair<int, int>> edges;
  for (int u = 0; u < g.size(); ++u)
    for (const graph::Edge& e : g.neighbors(u))
      if (u < e.to) edges.emplace_back(u, e.to);
  return edges;
}

sim::FaultActions VpodRunner::fault_actions() {
  sim::FaultActions a;
  a.crash = [this](int u) { vpod_->fail_node(u); };
  a.recover = [this](int u) { vpod_->join_node(u); };
  a.set_link_up = [this](int u, int v, bool up) { net_->set_link_up(u, v, up); };
  a.set_loss = [this](double p) { net_->set_fault_loss(p); };
  a.set_duplication = [this](double p) { net_->set_duplication(p); };
  a.set_delay_factor = [this](double f) { net_->set_delay_factor(f); };
  a.node_count = [this] { return net_->size(); };
  a.edges = [this] { return physical_edges(); };
  a.is_alive = [this](int u) { return net_->alive(u); };
  return a;
}

sim::FaultInjector& VpodRunner::faults() {
  if (!faults_) faults_ = std::make_unique<sim::FaultInjector>(sim_, fault_actions());
  return *faults_;
}

routing::MdtView VpodRunner::snapshot() const {
  return routing::snapshot_overlay(vpod_->overlay(), topo_.metric_graph(metric_));
}

double VpodRunner::avg_storage() const {
  const auto& overlay = vpod_->overlay();
  double total = 0.0;
  int count = 0;
  for (int u = 0; u < net_->size(); ++u) {
    if (!net_->alive(u) || !overlay.active(u)) continue;
    total += overlay.distinct_nodes_stored(u);
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

double VpodRunner::messages_per_node_since_mark() {
  const std::uint64_t now = net_->total_messages_sent();
  const std::uint64_t delta = now - msg_mark_;
  msg_mark_ = now;
  int alive = 0;
  for (int u = 0; u < net_->size(); ++u)
    if (net_->alive(u)) ++alive;
  return alive > 0 ? static_cast<double>(delta) / alive : 0.0;
}

void VpodRunner::export_metrics(obs::Registry& reg) const {
  const mdt::MdtOverlay& overlay = vpod_->overlay();

  reg.counter("mdt.sync_requests").set(overlay.sync_stats().requests);
  reg.counter("mdt.sync_failures").set(overlay.sync_stats().failures);
  reg.counter("mdt.recompute_calls").set(overlay.recompute_stats().calls);
  reg.counter("mdt.recompute_rebuilds").set(overlay.recompute_stats().rebuilds);
  reg.counter("vpod.adjustments").set(vpod_->adjustments());

  const mdt::MdtOverlay::FdStats& fd = overlay.fd_stats();
  reg.counter("mdt.fd.heartbeats_sent").set(fd.heartbeats_sent);
  reg.counter("mdt.fd.evictions").set(fd.evictions);
  reg.counter("mdt.fd.tombstones_created").set(fd.tombstones_created);
  reg.counter("mdt.fd.gossip_suppressed").set(fd.gossip_suppressed);
  reg.counter("mdt.fd.stale_incarnation_dropped").set(fd.stale_incarnation_dropped);

  // Incremental local-DT maintenance: what the input changes actually cost.
  const geom::DynamicDtStats dt = overlay.dt_stats();
  reg.counter("mdt.dt.inserts").set(dt.inserts);
  reg.counter("mdt.dt.removes").set(dt.removes);
  reg.counter("mdt.dt.moves").set(dt.moves);
  reg.counter("mdt.dt.move_early_outs").set(dt.move_early_outs);
  reg.counter("mdt.dt.full_rebuilds").set(dt.full_rebuilds);
  reg.counter("mdt.dt.walk_fallbacks").set(dt.walk_fallbacks);

  reg.counter("net.messages_sent").set(net_->total_messages_sent());
  reg.counter("net.messages_lost").set(net_->messages_lost());
  reg.counter("net.messages_expired").set(net_->messages_expired());
  reg.counter("net.fault_messages_lost").set(net_->fault_messages_lost());
  reg.counter("net.messages_duplicated").set(net_->messages_duplicated());

  if (reliable_) {
    const sim::ReliableStats& rs = reliable_->stats();
    reg.counter("reliable.sent").set(rs.sent);
    reg.counter("reliable.retransmissions").set(rs.retransmissions);
    reg.counter("reliable.acked").set(rs.acked);
    reg.counter("reliable.gave_up").set(rs.gave_up);
    reg.counter("reliable.acks_sent").set(rs.acks_sent);
    reg.counter("reliable.duplicates_suppressed").set(rs.duplicates_suppressed);
  }

  // Per-node distributions: registered both as per-node counters/gauges (for
  // drill-down) and as whole-network histograms (for summary percentiles).
  obs::Histogram& sent_hist = reg.histogram("node.messages_sent");
  obs::Histogram& storage_hist = reg.histogram("node.storage");
  for (int u = 0; u < net_->size(); ++u) {
    reg.counter("node.messages_sent", u).set(net_->messages_sent(u));
    if (!net_->alive(u) || !overlay.active(u)) continue;
    const double stored = overlay.distinct_nodes_stored(u);
    reg.gauge("node.storage", u).set(stored);
    sent_hist.observe(static_cast<double>(net_->messages_sent(u)));
    storage_hist.observe(stored);
  }
  reg.gauge("vpod.avg_storage").set(avg_storage());
}

// ---------------------------------------------------------------------------

VivaldiRunner::VivaldiRunner(const radio::Topology& topo, bool use_etx,
                             const vivaldi::VivaldiConfig& config, DelayRange delays,
                             std::uint64_t net_seed)
    : topo_(topo) {
  if (sim::engine_from_env() == sim::SimEngine::kSharded)
    sim_.configure_sharding(radio::spatial_shards(topo));
  const graph::Graph& metric = topo.metric_graph(use_etx);
  net_ = std::make_unique<sim::NetSim<vivaldi::VivMsg>>(sim_, metric, delays.min_s, delays.max_s,
                                                        net_seed);
  viv_ = std::make_unique<vivaldi::TwoHopVivaldi>(*net_, config);
  period_len_ = config.period_s;
  viv_->start();
}

void VivaldiRunner::run_to_period(int k) {
  sim_.run_until(1.0 + static_cast<double>(k) * period_len_);
}

double VivaldiRunner::avg_storage() const {
  double total = 0.0;
  int count = 0;
  for (int u = 0; u < net_->size(); ++u) {
    if (!net_->alive(u)) continue;
    total += viv_->distinct_nodes_stored(u);
    ++count;
  }
  return count > 0 ? total / count : 0.0;
}

double VivaldiRunner::messages_per_node_since_mark() {
  const std::uint64_t now = net_->total_messages_sent();
  const std::uint64_t delta = now - msg_mark_;
  msg_mark_ = now;
  int alive = 0;
  for (int u = 0; u < net_->size(); ++u)
    if (net_->alive(u)) ++alive;
  return alive > 0 ? static_cast<double>(delta) / alive : 0.0;
}

}  // namespace gdvr::eval
