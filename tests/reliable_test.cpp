// Tests for the reliable control transport (ACK/retransmit wrapper).
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <vector>

#include "graph/graph.hpp"
#include "sim/netsim.hpp"
#include "sim/reliable.hpp"
#include "sim/simulator.hpp"

namespace gdvr::sim {
namespace {

TEST(RetransmitBackoff, ExponentialWithCap) {
  const RetransmitBackoff b(0.3, 2.0, 4.0);
  EXPECT_DOUBLE_EQ(b.delay(1), 0.3);
  EXPECT_DOUBLE_EQ(b.delay(2), 0.6);
  EXPECT_DOUBLE_EQ(b.delay(3), 1.2);
  EXPECT_DOUBLE_EQ(b.delay(4), 2.4);
  EXPECT_DOUBLE_EQ(b.delay(5), 4.0);  // capped
  EXPECT_DOUBLE_EQ(b.delay(6), 4.0);
}

TEST(DedupWindow, AcceptsFreshRejectsRepeats) {
  DedupWindow w(64);
  EXPECT_TRUE(w.accept(5));
  EXPECT_FALSE(w.accept(5));
  EXPECT_TRUE(w.accept(7));
  EXPECT_FALSE(w.accept(5));
  EXPECT_EQ(w.suppressed(), 2u);
}

TEST(DedupWindow, CompactsContiguousPrefix) {
  DedupWindow w(64);
  // Out-of-order arrivals still compact once the gap fills.
  EXPECT_TRUE(w.accept(2));
  EXPECT_TRUE(w.accept(3));
  EXPECT_TRUE(w.accept(1));  // fills the gap; floor slides to 3
  EXPECT_FALSE(w.accept(1));
  EXPECT_FALSE(w.accept(2));
  EXPECT_FALSE(w.accept(3));
  EXPECT_TRUE(w.accept(4));
}

TEST(DedupWindow, CapConservativelyRejectsStragglers) {
  DedupWindow w(2);
  // Widely spaced sequences never compact; the cap evicts the oldest by
  // raising the floor, so a straggler below the floor reads as a duplicate.
  EXPECT_TRUE(w.accept(10));
  EXPECT_TRUE(w.accept(20));
  EXPECT_TRUE(w.accept(30));  // evicts 10: floor >= 10 now
  EXPECT_FALSE(w.accept(5));  // straggler below floor: suppressed (safe)
  EXPECT_FALSE(w.accept(10));
}

// ---------- transport over a NetSim ----------

struct RMsg {
  int payload = 0;
  bool is_ack = false;
  std::uint64_t rel_seq = 0;
};

struct Fixture {
  Simulator sim;
  graph::Graph g;
  NetSim<RMsg> net;
  ReliableTransport<RMsg> rel;
  std::vector<int> delivered;  // app-layer payloads, duplicates suppressed

  explicit Fixture(std::uint64_t seed, ReliableConfig cfg = {})
      : g([] {
          graph::GraphBuilder gb(2);
          gb.add_bidirectional(0, 1, 1.0, 1.0);
          return gb.build();
        }()),
        net(sim, g, 0.01, 0.05, seed),
        rel(net, cfg, [](int, int, std::uint64_t seq) {
          RMsg a;
          a.is_ack = true;
          a.rel_seq = seq;
          return a;
        }) {
    net.set_receiver([this](int to, int from, RMsg m) {
      if (m.is_ack) {
        rel.on_ack(to, m.rel_seq);
        return;
      }
      if (m.rel_seq != 0 && !rel.on_receive(to, from, m.rel_seq)) return;
      delivered.push_back(m.payload);
    });
  }
};

TEST(ReliableTransport, DeliversWithoutLossNoRetransmits) {
  Fixture f(11);
  for (int i = 0; i < 10; ++i) f.rel.send(0, 1, RMsg{i});
  f.sim.run_all();
  EXPECT_EQ(f.delivered.size(), 10u);
  EXPECT_EQ(f.rel.stats().acked, 10u);
  EXPECT_EQ(f.rel.stats().retransmissions, 0u);
  EXPECT_EQ(f.rel.stats().gave_up, 0u);
  EXPECT_EQ(f.rel.in_flight(), 0u);
}

TEST(ReliableTransport, RetransmitsThroughHeavyLoss) {
  Fixture f(12);
  f.net.set_fault_loss(0.5);  // both data and ACKs dropped at 50%
  const int total = 30;
  for (int i = 0; i < total; ++i) f.rel.send(0, 1, RMsg{i});
  f.sim.run_all();
  // Every message either got through (possibly after retries) or exhausted
  // its retry budget; nothing stays in flight.
  EXPECT_EQ(f.rel.in_flight(), 0u);
  EXPECT_EQ(f.rel.stats().acked + f.rel.stats().gave_up, static_cast<std::uint64_t>(total));
  EXPECT_GT(f.rel.stats().retransmissions, 0u);
  // App-layer delivery is deduplicated and near-complete: a message is lost
  // only if all 6 attempts drop (0.5^6 ~ 1.6%).
  const std::set<int> unique(f.delivered.begin(), f.delivered.end());
  EXPECT_EQ(unique.size(), f.delivered.size());  // no app-layer duplicates
  EXPECT_GE(unique.size(), 27u);
}

TEST(ReliableTransport, SuppressesDuplicateDeliveries) {
  Fixture f(13);
  f.net.set_duplication(1.0);  // the network duplicates every delivery
  for (int i = 0; i < 20; ++i) f.rel.send(0, 1, RMsg{i});
  f.sim.run_all();
  EXPECT_EQ(f.delivered.size(), 20u);  // each payload surfaces exactly once
  EXPECT_GE(f.rel.stats().duplicates_suppressed, 20u);
  EXPECT_EQ(f.rel.in_flight(), 0u);
}

TEST(ReliableTransport, RetransmitsAcrossLinkOutage) {
  Fixture f(14);
  f.net.set_link_up(0, 1, false);
  f.rel.send(0, 1, RMsg{42});  // initial transmission fails at the link layer
  f.sim.run_until(0.5);
  EXPECT_TRUE(f.delivered.empty());
  f.net.set_link_up(0, 1, true);  // outage ends before the retry budget does
  f.sim.run_all();
  ASSERT_EQ(f.delivered.size(), 1u);
  EXPECT_EQ(f.delivered[0], 42);
  EXPECT_EQ(f.rel.stats().acked, 1u);
  EXPECT_GT(f.rel.stats().retransmissions, 0u);
}

TEST(ReliableTransport, GivesUpAfterRetryCap) {
  ReliableConfig cfg;
  cfg.max_attempts = 4;
  Fixture f(15, cfg);
  f.net.set_alive(1, false);
  f.rel.send(0, 1, RMsg{7});
  f.sim.run_all();
  EXPECT_TRUE(f.delivered.empty());
  EXPECT_EQ(f.rel.stats().gave_up, 1u);
  EXPECT_EQ(f.rel.in_flight(), 0u);
  // Exactly max_attempts transmissions were attempted (all refused by the
  // dead receiver, so none were counted as sent on the wire).
  EXPECT_EQ(f.rel.stats().retransmissions, 3u);
}

TEST(ReliableTransport, SenderDeathAbortsRetries) {
  Fixture f(16);
  f.net.set_fault_loss(1.0);  // nothing ever arrives
  f.rel.send(0, 1, RMsg{9});
  f.sim.run_until(0.1);
  f.net.set_alive(0, false);  // sender dies mid-retry
  f.sim.run_all();
  EXPECT_EQ(f.rel.stats().gave_up, 1u);
  EXPECT_EQ(f.rel.in_flight(), 0u);
}

TEST(ReliableTransport, SenderRejoinAbortsStaleRetries) {
  // A sender that dies and rejoins is a fresh incarnation: retries on behalf
  // of its previous life must stop even though the node is alive again.
  Fixture f(17);
  f.net.set_fault_loss(1.0);
  f.rel.send(0, 1, RMsg{9});
  f.sim.run_until(0.1);
  f.net.set_alive(0, false);
  f.net.set_alive(0, true);
  f.sim.run_all();
  EXPECT_EQ(f.rel.stats().gave_up, 1u);
  EXPECT_EQ(f.rel.in_flight(), 0u);
}

TEST(ReliableTransport, RetransmitJitterIsRunToRunDeterministic) {
  // Retransmit timeouts carry a deterministic jitter factor hashed from
  // (sequence, attempt): two identical runs must produce bit-identical
  // retransmission schedules and deliveries, jitter included.
  auto run = [] {
    Fixture f(21);
    f.net.set_fault_loss(0.5);
    for (int i = 0; i < 30; ++i) f.rel.send(0, 1, RMsg{i});
    f.sim.run_all();
    return std::make_tuple(f.delivered, f.rel.stats().retransmissions, f.rel.stats().acked,
                           f.rel.stats().gave_up);
  };
  EXPECT_EQ(run(), run());
}

TEST(ReliableTransport, JitterZeroKeepsExactBackoffSchedule) {
  // rto_jitter = 0 must reproduce the exact textbook backoff: with a dead
  // receiver and max_attempts = 3, the give-up lands after
  // 0.3 + 0.6 = 0.9 s (the third attempt's timer is the last to arm).
  ReliableConfig cfg;
  cfg.rto_jitter = 0.0;
  cfg.max_attempts = 3;
  Fixture f(22, cfg);
  f.net.set_alive(1, false);
  f.rel.send(0, 1, RMsg{1});
  f.sim.run_until(0.89);
  EXPECT_EQ(f.rel.in_flight(), 1u);
  f.sim.run_until(0.91 + cfg.rto_initial_s * 4.0);  // third timer expires
  EXPECT_EQ(f.rel.stats().gave_up, 1u);
}

TEST(ReliableTransport, GiveUpHandlerReportsUnreachableHop) {
  ReliableConfig cfg;
  cfg.max_attempts = 3;
  Fixture f(23, cfg);
  std::vector<std::tuple<int, int, int>> reported;
  f.rel.set_give_up_handler(
      [&](int from, int to, const RMsg& m) { reported.emplace_back(from, to, m.payload); });
  f.net.set_alive(1, false);
  f.rel.send(0, 1, RMsg{5});
  f.sim.run_all();
  ASSERT_EQ(reported.size(), 1u);
  EXPECT_EQ(reported[0], std::make_tuple(0, 1, 5));
  EXPECT_EQ(f.rel.stats().gave_up, 1u);
  EXPECT_EQ(f.rel.in_flight(), 0u);
}

TEST(ReliableTransport, GiveUpHandlerSilentWhenSenderDied) {
  // The handler is an "evict this hop" signal for the sender's protocol
  // state; when the sender itself died, that state is gone and the handler
  // must not fire.
  Fixture f(24);
  int fired = 0;
  f.rel.set_give_up_handler([&](int, int, const RMsg&) { ++fired; });
  f.net.set_fault_loss(1.0);
  f.rel.send(0, 1, RMsg{9});
  f.sim.run_until(0.1);
  f.net.set_alive(0, false);
  f.sim.run_all();
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(f.rel.stats().gave_up, 1u);
}

TEST(ReliableTransport, GiveUpHandlerMayReenterTheTransport) {
  // The pending entry is detached before the handler runs, so a handler that
  // immediately resends (e.g. over another route) must not corrupt state.
  ReliableConfig cfg;
  cfg.max_attempts = 2;
  Fixture f(25, cfg);
  int fired = 0;
  f.rel.set_give_up_handler([&](int from, int to, const RMsg& m) {
    if (++fired == 1) f.rel.send(from, to, m);  // one re-send, then give up for good
  });
  f.net.set_alive(1, false);
  f.rel.send(0, 1, RMsg{3});
  f.sim.run_all();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(f.rel.stats().gave_up, 2u);
  EXPECT_EQ(f.rel.in_flight(), 0u);
}

TEST(ReliableTransport, AckAtWrongNodeIsIgnored) {
  Fixture f(18);
  f.rel.send(0, 1, RMsg{1});
  // A stray ACK arriving at a node that is not the original sender must not
  // clear the pending entry.
  f.rel.on_ack(1, 1);
  EXPECT_EQ(f.rel.in_flight(), 1u);
  f.sim.run_all();
  EXPECT_EQ(f.rel.stats().acked, 1u);
  EXPECT_EQ(f.rel.in_flight(), 0u);
}

}  // namespace
}  // namespace gdvr::sim
