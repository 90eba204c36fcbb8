// Network binding for the discrete-event simulator: delivers typed messages
// between physically connected nodes with uniform-random per-hop delay, and
// accounts every transmission (the paper's communication-cost metric counts
// messages sent per node, including each hop of a multi-hop forwarding).
//
// Delivery is reliable by default: link lossiness is captured by the routing
// metric (ETX), not by dropping control messages -- the same abstraction the
// paper uses. Beyond that baseline, the layer exposes the failure modes the
// fault-injection subsystem (sim/faults.hpp) drives:
//  * dead nodes (churn): neither send nor receive; messages in flight to a
//    node that dies are dropped on arrival, and a per-node incarnation
//    number guarantees a message sent to one incarnation is never delivered
//    to a later one (die-and-rejoin races);
//  * downed links (flapping / partitions): send fails at the link layer;
//  * burst loss: an extra uniform drop probability on top of the ETX model;
//  * duplication: a transmission may arrive twice (independent delays);
//  * delay spikes: sampled delays are scaled, reordering traffic relative
//    to messages sent outside the spike window.
//
// Sharded-execution contract (DESIGN.md §4g): all randomness and all counters
// are per-node. Every draw on the send path comes from the sender's own
// stream and every counter is incremented either at the sender (sent, lost,
// duplicated) or at the receiver (expired), so concurrent lanes never touch
// the same state and -- more importantly -- the sampled values are a function
// of each node's own event sequence, not of any global interleaving. That is
// what makes serial and sharded runs behaviorally identical. Cross-node
// state (liveness, incarnations, downed links, fault knobs) is written only
// from global-lane events and merely read during parallel windows.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "graph/graph.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"

namespace gdvr::sim {

// Open-addressing hash set of undirected link keys, NetSim's downed-link
// state: link_up() sits on the hot send() path (one call per transmission),
// where a red-black tree walk per send was measurable (BM_DownLinksLinkSet in
// bench/micro_core.cpp times this set). Linear probing with backward-shift
// deletion; the empty-set fast path makes the common no-faults case one load.
class LinkSet {
 public:
  // Order-independent key; +1 keeps 0 free as the empty-slot marker.
  static std::uint64_t key(int u, int v) {
    const std::uint64_t a = static_cast<std::uint64_t>(u < v ? u : v) + 1;
    const std::uint64_t b = static_cast<std::uint64_t>(u < v ? v : u) + 1;
    return (a << 32) | b;
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  bool contains(std::uint64_t k) const {
    if (size_ == 0) return false;
    std::size_t i = home(k);
    while (table_[i] != 0) {
      if (table_[i] == k) return true;
      i = (i + 1) & mask_;
    }
    return false;
  }

  void insert(std::uint64_t k) {
    if (table_.empty()) rehash(16);
    if ((size_ + 1) * 10 > table_.size() * 7) rehash(table_.size() * 2);
    std::size_t i = home(k);
    while (table_[i] != 0) {
      if (table_[i] == k) return;
      i = (i + 1) & mask_;
    }
    table_[i] = k;
    ++size_;
  }

  void erase(std::uint64_t k) {
    if (size_ == 0) return;
    std::size_t i = home(k);
    while (table_[i] != k) {
      if (table_[i] == 0) return;
      i = (i + 1) & mask_;
    }
    // Backward-shift deletion: pull every displaced follower of the probe
    // chain into the hole so lookups never need tombstones.
    std::size_t j = i;
    for (;;) {
      table_[i] = 0;
      for (;;) {
        j = (j + 1) & mask_;
        if (table_[j] == 0) {
          --size_;
          return;
        }
        const std::size_t h = home(table_[j]);
        // Is slot j's element allowed to move into the hole at i? Yes iff
        // its home position does not lie in the (cyclic) range (i, j].
        const bool movable = i <= j ? (h <= i || h > j) : (h <= i && h > j);
        if (movable) break;
      }
      table_[i] = table_[j];
      i = j;
    }
  }

 private:
  std::size_t home(std::uint64_t k) const {
    // SplitMix64 finalizer: full-avalanche so sequential node ids spread.
    k = (k ^ (k >> 30)) * 0xBF58476D1CE4E5B9ull;
    k = (k ^ (k >> 27)) * 0x94D049BB133111EBull;
    return static_cast<std::size_t>(k ^ (k >> 31)) & mask_;
  }

  void rehash(std::size_t capacity) {
    std::vector<std::uint64_t> old = std::move(table_);
    table_.assign(capacity, 0);
    mask_ = capacity - 1;
    for (std::uint64_t k : old) {
      if (k == 0) continue;
      std::size_t i = home(k);
      while (table_[i] != 0) i = (i + 1) & mask_;
      table_[i] = k;
    }
  }

  std::vector<std::uint64_t> table_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

template <typename Message>
class NetSim {
 public:
  // `links` defines physical connectivity and per-direction link costs in the
  // experiment's routing metric.
  NetSim(Simulator& sim, const graph::Graph& links, double delay_min, double delay_max,
         std::uint64_t seed)
      : sim_(sim),
        links_(links),
        delay_min_(delay_min),
        delay_max_(delay_max),
        alive_(static_cast<std::size_t>(links.size()), true),
        incarnation_(static_cast<std::size_t>(links.size()), 0),
        counters_(static_cast<std::size_t>(links.size())) {
    Rng base(seed);
    rng_.reserve(static_cast<std::size_t>(links.size()));
    for (int u = 0; u < links.size(); ++u)
      rng_.push_back(base.split(static_cast<std::uint64_t>(u)));
    // The minimum cross-node interaction delay bounds the sharded engine's
    // parallel windows. Re-queried every window, so delay spikes shrink the
    // lookahead for exactly as long as the fault is active.
    sim_.add_lookahead_provider(
        [this] { return delay_min_ * std::min(1.0, delay_factor_); });
  }

  // The lookahead provider above captures `this`.
  NetSim(const NetSim&) = delete;
  NetSim& operator=(const NetSim&) = delete;

  Simulator& simulator() { return sim_; }
  const Simulator& simulator() const { return sim_; }
  const graph::Graph& links() const { return links_; }
  int size() const { return links_.size(); }

  // Handler invoked as (to, from, message) on delivery. The message is
  // handed over as an rvalue; a receiver taking it by value still binds.
  void set_receiver(std::function<void(int, int, Message&&)> handler) {
    receiver_ = std::move(handler);
  }

  // Optional lossy control plane: each transmission over link (u, v) is
  // dropped with probability 1 - PRR(u, v), where PRR = 1/ETX from the given
  // cost graph (clamped to [0, 1]). By default delivery is reliable -- the
  // paper folds link lossiness into the routing metric only; this knob
  // exposes the protocols to real message loss (see the control-loss
  // ablation bench).
  void set_loss_from_etx(const graph::Graph& etx) { loss_etx_ = &etx; }
  void clear_loss_model() { loss_etx_ = nullptr; }
  std::uint64_t messages_lost() const { return sum(&NodeCounters::lost); }

  // --- fault-injection knobs (driven by sim/faults.hpp) --------------------
  // Extra uniform drop probability applied to every transmission (burst
  // loss), on top of the ETX loss model if one is set.
  void set_fault_loss(double p) { fault_loss_ = std::clamp(p, 0.0, 1.0); }
  double fault_loss() const { return fault_loss_; }
  // Probability that a delivered transmission arrives a second time with an
  // independently sampled delay (duplication faults).
  void set_duplication(double p) { dup_prob_ = std::clamp(p, 0.0, 1.0); }
  double duplication() const { return dup_prob_; }
  // Multiplier on sampled per-hop delays (delay spikes; >= 1 reorders
  // in-flight traffic relative to normal-delay messages).
  void set_delay_factor(double f) { delay_factor_ = std::max(f, 0.0); }
  double delay_factor() const { return delay_factor_; }
  // Administrative (fault) state of a physical link; both directions share
  // one state. Global-lane only under the sharded engine.
  void set_link_up(int u, int v, bool up) {
    if (up)
      down_links_.erase(LinkSet::key(u, v));
    else if (links_.has_edge(u, v))
      down_links_.insert(LinkSet::key(u, v));
  }
  bool link_up(int u, int v) const {
    return down_links_.empty() || !down_links_.contains(LinkSet::key(u, v));
  }
  // A link exists physically AND is administratively up.
  bool link_usable(int u, int v) const { return links_.has_edge(u, v) && link_up(u, v); }

  bool alive(int node) const { return alive_[static_cast<std::size_t>(node)]; }
  void set_alive(int node, bool alive) {
    // A node that rejoins is a fresh incarnation: messages addressed to the
    // previous incarnation (still in flight across its death) must not be
    // delivered to the new one.
    if (alive && !alive_[static_cast<std::size_t>(node)])
      ++incarnation_[static_cast<std::size_t>(node)];
    alive_[static_cast<std::size_t>(node)] = alive;
  }
  std::uint32_t incarnation(int node) const {
    return incarnation_[static_cast<std::size_t>(node)];
  }

  // Link-layer view: invokes fn(edge) for every alive physical neighbor of
  // an alive node over a usable link, with its cost, in adjacency order.
  template <typename Fn>
  void for_each_alive_neighbor(int u, Fn&& fn) const {
    if (!alive(u)) return;
    for (const graph::Edge& e : links_.neighbors(u))
      if (alive(e.to) && link_up(u, e.to)) fn(e);
  }

  double link_cost(int u, int v) const { return links_.link_cost(u, v); }

  // Sends over the physical link from -> to. Returns false (and sends
  // nothing) if the link does not exist or is down, or either endpoint is
  // dead at send time. The transmission is counted at the sender, and every
  // random draw (loss, duplication, delay) comes from the sender's stream.
  // The message is moved into its delivery; only a duplicate is a copy.
  bool send(int from, int to, Message&& msg) {
    if (!alive(from) || !alive(to)) return false;
    if (!link_usable(from, to)) return false;
    NodeCounters& c = counters_[static_cast<std::size_t>(from)];
    Rng& rng = rng_[static_cast<std::size_t>(from)];
    ++c.sent;
    // Control-plane tracing: one event per counted transmission (loss and
    // duplication are delivery-side effects and do not change the record).
    if (obs::TraceSink* sink = obs::trace_sink(); sink && sink->trace_control())
      sink->hop(from, to, obs::HopMode::kControl, 0.0, sim_.now());
    if (fault_loss_ > 0.0 && rng.bernoulli(fault_loss_)) {
      ++c.lost;
      ++c.fault_lost;
      return true;  // transmitted (and counted), but never arrives
    }
    if (loss_etx_ != nullptr) {
      const double etx = loss_etx_->link_cost(from, to);
      const double prr = etx >= 1.0 ? 1.0 / etx : 1.0;
      if (!rng.bernoulli(prr)) {
        ++c.lost;
        return true;  // transmitted (and counted), but never arrives
      }
    }
    const bool duplicate = dup_prob_ > 0.0 && rng.bernoulli(dup_prob_);
    if (duplicate) {
      ++c.duplicated;
      deliver(from, to, Message(msg));
    }
    deliver(from, to, std::move(msg));
    return true;
  }
  // For a sender that keeps its message (DV sends one table to every
  // neighbor): sends a copy.
  bool send(int from, int to, const Message& msg) { return send(from, to, Message(msg)); }

  std::uint64_t messages_sent(int node) const {
    return counters_[static_cast<std::size_t>(node)].sent;
  }
  std::uint64_t total_messages_sent() const { return sum(&NodeCounters::sent); }
  // Messages dropped on arrival because the receiver died (or died and
  // rejoined as a new incarnation) while they were in flight.
  std::uint64_t messages_expired() const { return sum(&NodeCounters::expired); }
  // Subsets of messages_lost() / extra deliveries injected by fault knobs.
  std::uint64_t fault_messages_lost() const { return sum(&NodeCounters::fault_lost); }
  std::uint64_t messages_duplicated() const { return sum(&NodeCounters::duplicated); }

 private:
  // Written only from the owning node's lane: sent/lost/fault_lost/
  // duplicated at the sender, expired at the receiver.
  struct NodeCounters {
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    std::uint64_t fault_lost = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t expired = 0;
  };

  std::uint64_t sum(std::uint64_t NodeCounters::* field) const {
    std::uint64_t total = 0;
    for (const NodeCounters& c : counters_) total += c.*field;
    return total;
  }

  void deliver(int from, int to, Message&& msg) {
    const double delay =
        rng_[static_cast<std::size_t>(from)].uniform(delay_min_, delay_max_) * delay_factor_;
    const std::uint32_t inc = incarnation(to);
    sim_.schedule_in_node(to, delay, [this, from, to, inc, m = std::move(msg)]() mutable {
      // Receiver died -- or died and rejoined -- while the message was in
      // flight: the message belongs to a previous incarnation.
      if (!alive(to) || incarnation(to) != inc) {
        ++counters_[static_cast<std::size_t>(to)].expired;
        return;
      }
      if (receiver_) receiver_(to, from, std::move(m));
    });
  }

  Simulator& sim_;
  const graph::Graph& links_;
  double delay_min_;
  double delay_max_;
  std::vector<Rng> rng_;  // one stream per node; send-path draws use [from]
  std::vector<bool> alive_;
  std::vector<std::uint32_t> incarnation_;
  std::vector<NodeCounters> counters_;
  double fault_loss_ = 0.0;
  double dup_prob_ = 0.0;
  double delay_factor_ = 1.0;
  LinkSet down_links_;
  const graph::Graph* loss_etx_ = nullptr;
  std::function<void(int, int, Message&&)> receiver_;
};

}  // namespace gdvr::sim
