// Tests of the sharded conservative-parallel engine (ctest label: parallel;
// DESIGN.md §4g): event-heap ordering, the engine-selection seam, the
// spatial shard partition, lane scheduling semantics, and the two halves of
// the determinism contract -- bit-identical behavior across GDVR_THREADS
// values, and per-node observable equality against the serial oracle, up to
// and including a chaos + churn soak with reliable transport.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "eval/protocol_runner.hpp"
#include "graph/graph.hpp"
#include "in_place_checks.hpp"
#include "obs/metrics.hpp"
#include "radio/topology.hpp"
#include "sim/churn.hpp"
#include "sim/netsim.hpp"
#include "sim/simulator.hpp"
#include "vpod/live_gdv.hpp"

namespace gdvr {
namespace {

// Scoped environment override (restores the previous value on destruction).
class EnvVar {
 public:
  EnvVar(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_ = prev != nullptr;
    if (had_) saved_ = prev;
    if (value != nullptr)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~EnvVar() {
    if (had_)
      setenv(name_, saved_.c_str(), 1);
    else
      unsetenv(name_);
  }
  EnvVar(const EnvVar&) = delete;
  EnvVar& operator=(const EnvVar&) = delete;

 private:
  const char* name_;
  bool had_ = false;
  std::string saved_;
};

// ---------------------------------------------------------------------------
// EventHeap

TEST(EventHeap, PopsInTimeThenSequenceOrder) {
  std::mt19937_64 gen(7);
  std::uniform_real_distribution<double> time_dist(0.0, 100.0);
  for (int round = 0; round < 20; ++round) {
    sim::EventHeap heap;
    std::vector<sim::EventHeap::Entry> entries;
    const int n = 1 + static_cast<int>(gen() % 300);
    for (int i = 0; i < n; ++i) {
      // Coarse times force plenty of exact ties, exercising the seq
      // tie-break (FIFO among equal timestamps).
      const double at = std::floor(time_dist(gen) * 4.0) / 4.0;
      entries.push_back({at, static_cast<std::uint64_t>(i), static_cast<std::uint64_t>(i) + 1});
      heap.push(entries.back());
    }
    std::sort(entries.begin(), entries.end(),
              [](const sim::EventHeap::Entry& a, const sim::EventHeap::Entry& b) {
                return a.at != b.at ? a.at < b.at : a.seq < b.seq;
              });
    for (const sim::EventHeap::Entry& want : entries) {
      ASSERT_FALSE(heap.empty());
      EXPECT_EQ(heap.top().at, want.at);
      EXPECT_EQ(heap.top().seq, want.seq);
      EXPECT_EQ(heap.top().id, want.id);
      heap.pop();
    }
    EXPECT_TRUE(heap.empty());
  }
}

// ---------------------------------------------------------------------------
// Engine-selection seam

TEST(EngineSeam, EnvSelectsEngine) {
  {
    EnvVar env("GDVR_SIM_ENGINE", nullptr);
    EXPECT_EQ(sim::engine_from_env(), sim::SimEngine::kSerial);
  }
  {
    EnvVar env("GDVR_SIM_ENGINE", "serial");
    EXPECT_EQ(sim::engine_from_env(), sim::SimEngine::kSerial);
  }
  {
    EnvVar env("GDVR_SIM_ENGINE", "sharded");
    EXPECT_EQ(sim::engine_from_env(), sim::SimEngine::kSharded);
  }
  EXPECT_STREQ(sim::engine_name(sim::SimEngine::kSerial), "serial");
  EXPECT_STREQ(sim::engine_name(sim::SimEngine::kSharded), "sharded");
}

TEST(EngineSeam, BareSimulatorStaysSerialUnderEnv) {
  // Low-level simulators are unaffected by the env seam; only the runners
  // consult it. Unit tests building bare Simulators stay deterministic.
  EnvVar env("GDVR_SIM_ENGINE", "sharded");
  sim::Simulator sim;
  EXPECT_EQ(sim.engine(), sim::SimEngine::kSerial);
  EXPECT_EQ(sim.shard_count(), 1);  // the serial engine is one big shard
}

// ---------------------------------------------------------------------------
// Spatial shard partition

radio::Topology small_topo(int n, std::uint64_t seed) {
  radio::TopologyConfig tc;
  tc.n = n;
  tc.seed = seed;
  tc.target_avg_degree = 14.5;
  return radio::make_random_topology(tc);
}

TEST(SpatialShards, BalancedDeterministicPartition) {
  const radio::Topology topo = small_topo(300, 11);
  const int n = topo.size();
  const std::vector<int> shard_of = radio::spatial_shards(topo, 8);
  ASSERT_EQ(static_cast<int>(shard_of.size()), n);
  std::vector<int> count(8, 0);
  for (int s : shard_of) {
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 8);
    ++count[static_cast<std::size_t>(s)];
  }
  // Cell packing balances by construction: every shard holds between
  // floor(n/8) and ceil(n/8) + one cell's worth of slack. Require a loose
  // 2x bound so the test does not depend on the grid geometry.
  for (int c : count) {
    EXPECT_GT(c, 0);
    EXPECT_LE(c, 2 * (n / 8 + 1));
  }
  EXPECT_EQ(shard_of, radio::spatial_shards(topo, 8));  // deterministic
}

TEST(SpatialShards, DefaultCountAndEnvOverride) {
  const radio::Topology topo = small_topo(300, 11);
  {
    // clamp(n / 128, 1, 64): ~300 nodes -> 2 shards.
    EnvVar env("GDVR_SIM_SHARDS", nullptr);
    const std::vector<int> shard_of = radio::spatial_shards(topo);
    const int k = *std::max_element(shard_of.begin(), shard_of.end()) + 1;
    EXPECT_EQ(k, topo.size() / 128);
  }
  {
    EnvVar env("GDVR_SIM_SHARDS", "6");
    const std::vector<int> shard_of = radio::spatial_shards(topo);
    EXPECT_EQ(*std::max_element(shard_of.begin(), shard_of.end()) + 1, 6);
  }
}

// ---------------------------------------------------------------------------
// Lane scheduling semantics

// Two single-node shards plus the global lane: node timers fire at the
// right clock, own-lane schedules return cancelable ids, cross-lane sends
// are fire-and-forget, and the global lane can cancel node events between
// windows.
TEST(ShardedEngine, LaneSchedulingSemantics) {
  sim::Simulator sim;
  sim.add_lookahead_provider([] { return 0.05; });
  sim.configure_sharding({0, 1}, /*threads=*/1);
  EXPECT_EQ(sim.engine(), sim::SimEngine::kSharded);
  EXPECT_EQ(sim.shard_count(), 2);
  EXPECT_EQ(sim.shard_of_node(0), 0);
  EXPECT_EQ(sim.shard_of_node(1), 1);

  std::vector<double> fired0, fired1;  // each written only by its own lane
  bool cancelled_ran = false;
  bool ping_ran = false;

  sim.schedule_at_node(0, 0.1, [&] {
    fired0.push_back(sim.now());
    // Own-lane reschedule: valid id, cancelable from this lane.
    const auto id = sim.schedule_in_node(0, 0.01, [&] { cancelled_ran = true; });
    EXPECT_NE(id, sim::Simulator::kInvalidEvent);
    sim.cancel(id);
    // Cross-lane send: must respect the lookahead; returns kInvalidEvent
    // (fire-and-forget, like a NetSim message delivery).
    const auto x = sim.schedule_in_node(1, 0.06, [&] {
      ping_ran = true;
      fired1.push_back(sim.now());
    });
    EXPECT_EQ(x, sim::Simulator::kInvalidEvent);
  });
  sim.schedule_at_node(1, 0.3, [&] { fired1.push_back(sim.now()); });

  // Global lane observes and steers between windows: cancel node 1's 0.5 s
  // timer from outside any lane.
  const auto doomed = sim.schedule_at_node(1, 0.5, [&] { cancelled_ran = true; });
  EXPECT_NE(doomed, sim::Simulator::kInvalidEvent);
  bool global_ran = false;
  sim.schedule_at(0.2, [&] {
    global_ran = true;
    EXPECT_DOUBLE_EQ(sim.now(), 0.2);
    sim.cancel(doomed);
  });

  sim.run_until(1.0);
  EXPECT_DOUBLE_EQ(sim.now(), 1.0);
  EXPECT_TRUE(global_ran);
  EXPECT_TRUE(ping_ran);
  EXPECT_FALSE(cancelled_ran);
  ASSERT_EQ(fired0.size(), 1u);
  EXPECT_DOUBLE_EQ(fired0[0], 0.1);
  ASSERT_EQ(fired1.size(), 2u);
  EXPECT_DOUBLE_EQ(fired1[0], 0.16);  // cross-lane ping: 0.1 + 0.06
  EXPECT_DOUBLE_EQ(fired1[1], 0.3);
  EXPECT_TRUE(sim.empty());
}

// Two nodes, one per shard, on two worker threads: the engine the run-in-place
// checks (in_place_checks.hpp) exercise on node 1's lane.
std::unique_ptr<sim::Simulator> two_lane_simulator() {
  auto sim = std::make_unique<sim::Simulator>();
  sim->add_lookahead_provider([] { return 0.05; });
  sim->configure_sharding({0, 1}, /*threads=*/2);
  return sim;
}

TEST(ShardedEngine, CallbackOutlivesSlotGrowth) {
  test::expect_callback_outlives_slot_growth(*two_lane_simulator(), 1);
}

TEST(ShardedEngine, SelfCancelIsANoOp) {
  test::expect_self_cancel_is_a_no_op(*two_lane_simulator(), 1);
}

TEST(ShardedEngine, CapturesAreReleasedExactlyOnce) {
  test::expect_captures_released_once(two_lane_simulator, 1);
}

// A cross-lane delivery's closure is buffered in the sender lane's outbox and
// merged into the receiver's lane at the barrier, both inline: once the
// slots, heaps and outbox have grown to a batch's size, sending another batch
// of moved messages from node 0's lane and delivering it on node 1's lane
// allocates nothing.
TEST(ShardedEngine, SteadyStateCrossLaneDeliveryAllocatesNothing) {
  struct Payload {
    std::vector<int> data;
  };
  const std::unique_ptr<sim::Simulator> sim = two_lane_simulator();
  graph::GraphBuilder gb(2);
  gb.add_bidirectional(0, 1, 1.0, 1.0);
  const graph::Graph g = gb.build();
  sim::NetSim<Payload> net(*sim, g, 0.1, 0.2, 42);
  std::size_t received = 0;  // written on node 1's lane only
  net.set_receiver([&received](int, int, Payload&& m) { received += m.data.size(); });
  constexpr std::size_t kBatch = 256;
  std::vector<Payload> msgs;
  const auto batch = [&] {
    msgs.assign(kBatch, Payload{std::vector<int>(8, 7)});
    const test::CountAllocations count;
    sim->schedule_in_node(0, 0.01, [&msgs, &net] {
      for (Payload& m : msgs) net.send(0, 1, std::move(m));
    });
    sim->run_until(sim->now() + 1.0);
    return count.count();
  };
  batch();  // warm-up
  EXPECT_EQ(batch(), 0u);
  EXPECT_EQ(received, 2 * kBatch * 8);
  EXPECT_GT(sim->sharded_stats().outbox_peak, 0u);
}

// ---------------------------------------------------------------------------
// Full-protocol determinism and serial-oracle equivalence

struct ProtocolOutcome {
  std::string metrics_json;  // full registry export, deterministic order
  double avg_storage = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t lost = 0;
  std::uint64_t expired = 0;
  std::uint64_t duplicated = 0;
  std::uint64_t fault_lost = 0;
  std::uint64_t adjustments = 0;
  sim::ReliableStats reliable;
};

// One VPoD run -- optionally with the full chaos + churn + reliable stack --
// under the engine/thread/shard configuration in the environment.
ProtocolOutcome run_protocol(const radio::Topology& topo, bool chaos, std::uint64_t seed) {
  vpod::VpodConfig vc;
  vc.dim = 3;
  vc.mdt.fd.enabled = chaos;
  eval::VpodRunner runner(topo, /*use_etx=*/false, vc, {}, seed);
  const double period_len = vc.join_period_s + vc.adjust_period_s;
  if (chaos) {
    runner.enable_reliable_sync();
    // Fault knobs that exercise every NetSim counter: background loss,
    // duplication, and Poisson node churn with one partition cycle
    // (departures leave in-flight messages to expire at dead receivers).
    runner.net().set_fault_loss(0.02);
    runner.net().set_duplication(0.05);
    sim::ChurnConfig cc;
    cc.t_begin = 1.0 + period_len;
    cc.t_end = 1.0 + 3.0 * period_len;
    cc.leave_rate_hz = 0.05 * static_cast<double>(topo.size()) / period_len;
    cc.join_rate_hz = cc.leave_rate_hz;
    cc.partition_cycles = 1;
    cc.partition_s = 0.5 * period_len;
    runner.faults().install(sim::continuous_churn(cc, seed + 7, topo.size()));
  }
  runner.run_to_period(chaos ? 4 : 2);

  ProtocolOutcome out;
  obs::Registry reg;
  runner.export_metrics(reg);
  std::ostringstream os;
  reg.write_json(os);
  out.metrics_json = os.str();
  out.avg_storage = runner.avg_storage();
  out.sent = runner.net().total_messages_sent();
  out.lost = runner.net().messages_lost();
  out.expired = runner.net().messages_expired();
  out.duplicated = runner.net().messages_duplicated();
  out.fault_lost = runner.net().fault_messages_lost();
  out.adjustments = runner.protocol().adjustments();
  if (runner.reliable() != nullptr) out.reliable = runner.reliable()->stats();
  return out;
}

void expect_counters_equal(const ProtocolOutcome& a, const ProtocolOutcome& b) {
  EXPECT_EQ(a.sent, b.sent);
  EXPECT_EQ(a.lost, b.lost);
  EXPECT_EQ(a.expired, b.expired);
  EXPECT_EQ(a.duplicated, b.duplicated);
  EXPECT_EQ(a.fault_lost, b.fault_lost);
  EXPECT_EQ(a.adjustments, b.adjustments);
  EXPECT_EQ(a.reliable.sent, b.reliable.sent);
  EXPECT_EQ(a.reliable.retransmissions, b.reliable.retransmissions);
  EXPECT_EQ(a.reliable.acked, b.reliable.acked);
  EXPECT_EQ(a.reliable.gave_up, b.reliable.gave_up);
  EXPECT_EQ(a.reliable.acks_sent, b.reliable.acks_sent);
  EXPECT_EQ(a.reliable.duplicates_suppressed, b.reliable.duplicates_suppressed);
  EXPECT_DOUBLE_EQ(a.avg_storage, b.avg_storage);
}

// Half 1 of the contract: a sharded run is bit-identical (full metric
// export, not just totals) at GDVR_THREADS=1 and 4.
TEST(ShardedEngine, ThreadCountInvariantMetrics) {
  const radio::Topology topo = small_topo(60, 17);
  EnvVar engine("GDVR_SIM_ENGINE", "sharded");
  EnvVar shards("GDVR_SIM_SHARDS", "4");
  ProtocolOutcome one, four;
  {
    EnvVar threads("GDVR_THREADS", "1");
    one = run_protocol(topo, /*chaos=*/false, 17);
  }
  {
    EnvVar threads("GDVR_THREADS", "4");
    four = run_protocol(topo, /*chaos=*/false, 17);
  }
  EXPECT_EQ(one.metrics_json, four.metrics_json);
  expect_counters_equal(one, four);
}

// The per-lane outboxes are pooled buffers: once the protocol's per-window
// cross-lane fan-out has peaked (construction join storms), further windows
// must reuse the retained capacity -- zero reallocations in steady state.
TEST(ShardedEngine, OutboxPoolingIsSteadyStateAllocationFree) {
  const radio::Topology topo = small_topo(60, 17);
  EnvVar engine("GDVR_SIM_ENGINE", "sharded");
  EnvVar shards("GDVR_SIM_SHARDS", "4");
  EnvVar threads("GDVR_THREADS", "2");
  vpod::VpodConfig vc;
  vc.dim = 3;
  eval::VpodRunner runner(topo, /*use_etx=*/false, vc, {}, 17);
  runner.run_to_period(2);  // warmup: construction traffic sets the peak
  const sim::Simulator::ShardedStats warm = runner.simulator().sharded_stats();
  EXPECT_GT(warm.outbox_peak, 0u) << "scenario produced no cross-lane messages";
  runner.run_to_period(4);  // steady state: maintenance rounds only
  const sim::Simulator::ShardedStats steady = runner.simulator().sharded_stats();
  EXPECT_EQ(steady.outbox_grows, warm.outbox_grows)
      << "outbox buffers reallocated after warmup";
}

// Half 2: the serial engine is the behavioral oracle. Same scenario, same
// seed: every per-node observable -- NetSim counters, adjustment counts,
// storage -- matches the sharded engine exactly.
TEST(ShardedEngine, MatchesSerialOracle) {
  const radio::Topology topo = small_topo(60, 17);
  EnvVar shards("GDVR_SIM_SHARDS", "4");
  EnvVar threads("GDVR_THREADS", "4");
  ProtocolOutcome serial, sharded;
  {
    EnvVar engine("GDVR_SIM_ENGINE", "serial");
    serial = run_protocol(topo, /*chaos=*/false, 17);
  }
  {
    EnvVar engine("GDVR_SIM_ENGINE", "sharded");
    sharded = run_protocol(topo, /*chaos=*/false, 17);
  }
  EXPECT_EQ(serial.metrics_json, sharded.metrics_json);
  expect_counters_equal(serial, sharded);
}

// The chaos + churn soak: phi-accrual failure detection, incarnation
// reconciliation, reliable-transport retransmits, background loss and
// duplication, Poisson churn with a partition cycle -- the sharded engine
// must report exactly the serial oracle's counters
// (messages_sent/lost/expired/duplicated and the reliable-transport stats),
// at both 1 and 4 worker threads.
TEST(ShardedEngine, ChaosChurnSoakMatchesSerialOracle) {
  const radio::Topology topo = small_topo(60, 23);
  EnvVar shards("GDVR_SIM_SHARDS", "4");
  ProtocolOutcome serial, one, four;
  {
    EnvVar engine("GDVR_SIM_ENGINE", "serial");
    EnvVar threads("GDVR_THREADS", "1");
    serial = run_protocol(topo, /*chaos=*/true, 23);
  }
  {
    EnvVar engine("GDVR_SIM_ENGINE", "sharded");
    EnvVar threads("GDVR_THREADS", "1");
    one = run_protocol(topo, /*chaos=*/true, 23);
  }
  {
    EnvVar engine("GDVR_SIM_ENGINE", "sharded");
    EnvVar threads("GDVR_THREADS", "4");
    four = run_protocol(topo, /*chaos=*/true, 23);
  }
  // The fault stack actually engaged, so the equalities are non-vacuous.
  EXPECT_GT(serial.lost, 0u);
  EXPECT_GT(serial.duplicated, 0u);
  EXPECT_GT(serial.reliable.retransmissions, 0u);
  expect_counters_equal(serial, one);
  expect_counters_equal(serial, four);
  EXPECT_EQ(one.metrics_json, four.metrics_json);
  EXPECT_EQ(serial.metrics_json, one.metrics_json);
}

// ---------------------------------------------------------------------------
// Live GDV ledger

void fnv(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;
  }
}

void fnv(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fnv(h, bits);
}

struct LedgerOutcome {
  std::uint64_t plain = 0;       // digest of the batch sent without faults
  std::uint64_t duplicated = 0;  // digest of the batch sent under duplication
  std::uint64_t sent = 0;
  std::uint64_t duplicates = 0;
};

// Converges a VPoD network, then routes two open-loop batches of live GDV
// packets -- the second with each transmission duplicated with probability
// 0.2, so two copies of one packet travel through different lanes -- and
// digests every packet's ledger entry.
LedgerOutcome run_live_ledger(const radio::Topology& topo, std::uint64_t seed) {
  vpod::VpodConfig vc;
  vc.dim = 3;
  eval::VpodRunner runner(topo, /*use_etx=*/true, vc, {}, seed);
  runner.run_to_period(4);
  vpod::LiveGdv live(runner.net(), runner.protocol());
  sim::Simulator& sim = runner.simulator();
  Rng rng(seed + 1);
  const int n = topo.size();
  auto batch = [&](double dup) {
    runner.net().set_duplication(dup);
    const int total = 4000;
    const double rate = 400.0;  // packets per simulated second
    const double t0 = sim.now();
    const std::uint64_t first = static_cast<std::uint64_t>(live.sent_count()) + 1;
    for (int i = 0; i < total; ++i) {
      const int s = rng.uniform_index(n);
      int t = rng.uniform_index(n - 1);
      if (t >= s) ++t;
      sim.schedule_at(t0 + i / rate, [&live, s, t] { live.send_packet(s, t); });
    }
    sim.run_until(t0 + total / rate + 20.0);
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t id = first; id < first + total; ++id) {
      const vpod::LiveGdv::Delivery& d = live.status(id);
      fnv(h, static_cast<std::uint64_t>(d.delivered));
      fnv(h, static_cast<std::uint64_t>(d.transmissions));
      fnv(h, d.cost);
      fnv(h, d.sent_at);
      fnv(h, d.delivered_at);
    }
    return h;
  };
  LedgerOutcome out;
  out.plain = batch(0.0);
  out.duplicated = batch(0.2);
  out.sent = runner.net().total_messages_sent();
  out.duplicates = runner.net().messages_duplicated();
  return out;
}

// Two copies of a duplicated packet are held by nodes in different lanes at
// once; the ledger must still come out exactly as on the serial engine.
TEST(ShardedEngine, LiveLedgerMatchesSerialUnderDuplication) {
  const radio::Topology topo = small_topo(64, 3001);
  EnvVar shards("GDVR_SIM_SHARDS", "3");
  EnvVar threads("GDVR_THREADS", "3");
  LedgerOutcome serial, sharded;
  {
    EnvVar engine("GDVR_SIM_ENGINE", "serial");
    serial = run_live_ledger(topo, 3001);
  }
  {
    EnvVar engine("GDVR_SIM_ENGINE", "sharded");
    sharded = run_live_ledger(topo, 3001);
  }
  EXPECT_GT(serial.duplicates, 0u);
  EXPECT_EQ(serial.sent, sharded.sent);
  EXPECT_EQ(serial.duplicates, sharded.duplicates);
  EXPECT_EQ(serial.plain, sharded.plain);
  EXPECT_EQ(serial.duplicated, sharded.duplicated);
}

}  // namespace
}  // namespace gdvr
