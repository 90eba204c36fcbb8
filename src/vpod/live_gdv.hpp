// Live GDV data plane: real packets forwarded hop by hop through the
// discrete-event simulator, with every forwarding decision made from the
// forwarding node's *own* protocol state (its possibly-stale view of
// neighbor positions, costs and virtual links) -- unlike the offline
// evaluation in eval/routing_eval.hpp, which snapshots global state.
//
// Used to validate that the offline evaluation methodology is faithful
// (bench/ablation_live_eval) and to demonstrate routing while VPoD is still
// converging and under churn.
#pragma once

#include <cstdint>
#include <vector>

#include "vpod/vpod.hpp"

namespace gdvr::vpod {

class LiveGdv {
 public:
  // One packet's ledger entry. Under the sharded engine the copies of a
  // duplicated packet may be held in different lanes at once, so every hop
  // only adds to `transmissions` (atomically); the other fields are written
  // at the target, whose lane receives every copy.
  struct Delivery {
    bool delivered = false;
    int transmissions = 0;   // physical hops taken so far / in total
    double cost = 0.0;       // forward metric cost on arrival at the target
    sim::Time sent_at = 0.0;
    sim::Time delivered_at = 0.0;
  };

  // Takes over as the NetSim receiver, delegating every non-data message to
  // `vpod`. Construct *after* vpod.start().
  LiveGdv(mdt::Net& net, Vpod& vpod);

  // Injects a data packet at s addressed to t. The destination's current
  // virtual position is stamped into the packet (the role a location
  // service plays for any geographic protocol). A packet to itself is
  // delivered on the spot. Returns the packet id; ids are dense from 1.
  // Call from the global lane (harness code), never from a node's event.
  std::uint64_t send_packet(NodeId s, NodeId t);

  // Throws std::out_of_range for an id send_packet never returned (id 0
  // wraps around to the largest index).
  const Delivery& status(std::uint64_t id) const { return packets_.at(id - 1); }
  int sent_count() const { return static_cast<int>(packets_.size()); }
  int delivered_count() const {
    int n = 0;
    for (const Delivery& d : packets_)
      if (d.delivered) ++n;
    return n;
  }
  double delivery_rate() const {
    return packets_.empty() ? 0.0
                            : static_cast<double>(delivered_count()) / sent_count();
  }
  // Mean accumulated metric cost over delivered packets.
  double mean_delivered_cost() const;

 private:
  void handle(NodeId to, NodeId from, mdt::Envelope&& msg);
  // One GDV forwarding decision at u, using only u's local overlay state.
  // Returns without sending when the packet is dropped.
  void forward(NodeId u, mdt::Envelope&& msg);

  mdt::Net& net_;
  Vpod& vpod_;
  std::vector<Delivery> packets_;  // packet id - 1 -> ledger entry
};

}  // namespace gdvr::vpod
