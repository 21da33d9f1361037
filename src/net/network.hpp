// The cluster fabric. Every host owns a NIC modelled as an egress link and an
// ingress link; cross-rack traffic can additionally be forced through
// tc-style shapers (per-node, mirroring the paper's `tc` filters on each VM)
// or through a shared per-rack uplink (aggregate-bottleneck mode). Messages
// are store-and-forward at packet granularity and delivery order between any
// two hosts is FIFO.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "net/link.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace smarth::net {

struct NetworkConfig {
  /// One-way propagation delay between hosts on the same rack.
  SimDuration same_rack_latency = microseconds(150);
  /// One-way propagation delay between hosts on different racks.
  SimDuration cross_rack_latency = microseconds(400);
  /// Delivery delay for a host talking to itself (loopback).
  SimDuration loopback_latency = microseconds(20);
};

class Network {
 public:
  /// Same type as Link::DeliveryCallback: a send's callback is moved, never
  /// re-wrapped, from the caller into the in-flight record and finally into
  /// the event queue.
  using DeliveryCallback = sim::Simulation::Callback;

  Network(sim::Simulation& sim, NetworkConfig config = {});

  /// Registers a host with a symmetric NIC of the given capacity.
  NodeId add_node(const std::string& name, const std::string& rack,
                  Bandwidth nic);

  const Topology& topology() const { return topology_; }
  sim::Simulation& simulation() { return sim_; }

  /// Sends `wire_size` bytes from `src` to `dst`; `on_delivered` fires at the
  /// destination once the message has traversed every hop. Control-priority
  /// messages bypass queued bulk data on every hop (see LinkPriority).
  /// Returns false when a partition or isolated NIC drops the message on the
  /// spot; `on_delivered` is then destroyed without running.
  bool send(NodeId src, NodeId dst, Bytes wire_size,
            DeliveryCallback on_delivered,
            LinkPriority priority = LinkPriority::kBulk,
            FlowKey flow = kDefaultFlow);

  // --- tc-style traffic control --------------------------------------------

  /// Caps this host's NIC (both directions) — the paper's per-node throttle
  /// used in the bandwidth-contention scenario (Figs. 10–12).
  void set_node_nic(NodeId node, Bandwidth bw);
  Bandwidth node_nic(NodeId node) const;

  /// Installs per-node cross-rack shapers of the given rate on every host —
  /// the paper's two-rack scenario (Figs. 5–9). Pass kUnlimitedBandwidth to
  /// remove.
  void set_cross_rack_throttle(Bandwidth bw);
  std::optional<Bandwidth> cross_rack_throttle() const {
    return cross_throttle_;
  }

  /// Alternative aggregate mode: all cross-rack traffic leaving a rack shares
  /// one uplink of the given rate. Mutually composable with the per-node
  /// shapers (both apply if both set).
  void set_shared_rack_uplink(Bandwidth bw);

  // --- Partitions -------------------------------------------------------------

  /// Severs (or heals) connectivity between the two racks: messages in both
  /// directions are silently dropped, like a failed inter-switch link.
  /// Heartbeats, ACKs and RPCs all vanish, so liveness and recovery behave
  /// exactly as they would in a real partition.
  void set_rack_partition(const std::string& rack_a, const std::string& rack_b,
                          bool severed);
  bool partitioned(NodeId a, NodeId b) const;
  std::uint64_t messages_dropped() const { return messages_dropped_; }

  /// Isolates a single host — a flapping NIC or unplugged cable. While
  /// isolated, every non-loopback message to or from the node is silently
  /// dropped (counted in messages_dropped()); healing restores delivery for
  /// messages sent afterwards. Messages already in flight are unaffected, as
  /// with a real cable pull mid-transmission at a switch buffer.
  void set_node_isolated(NodeId node, bool isolated);
  bool node_isolated(NodeId node) const;

  // --- Backpressure ---------------------------------------------------------

  /// Stops `node` from accepting new ingress messages (in-flight one
  /// finishes); models a closed receive window.
  void pause_ingress(NodeId node);
  void resume_ingress(NodeId node);
  bool ingress_paused(NodeId node) const;

  // --- Introspection --------------------------------------------------------
  const Link& egress_link(NodeId node) const;
  Bytes bytes_sent(NodeId node) const;
  Bytes bytes_received(NodeId node) const;
  std::uint64_t messages_delivered() const { return messages_delivered_; }

 private:
  struct Port {
    std::unique_ptr<Link> egress;
    std::unique_ptr<Link> ingress;
    std::unique_ptr<Link> cross_egress;   // present iff cross throttle set
    std::unique_ptr<Link> cross_ingress;  // present iff cross throttle set
    Bandwidth nic;
  };

  /// Longest hop chain: egress, cross-rack shaper, rack uplink, remote
  /// cross-rack shaper, ingress.
  static constexpr std::size_t kMaxHops = 5;

  /// One message in flight through its store-and-forward hop chain. Records
  /// are pooled and recycled through a free list, so a send allocates
  /// nothing in steady state; each hop's link callback captures only
  /// {this, record}.
  struct InFlight {
    std::array<Link*, kMaxHops> hops{};
    std::uint8_t hop_count = 0;
    std::uint8_t next_hop = 0;
    LinkPriority priority = LinkPriority::kBulk;
    Bytes size = 0;
    FlowKey flow = kDefaultFlow;
    SimDuration propagation = 0;
    InFlight* next_free = nullptr;
    DeliveryCallback on_delivered;
  };

  Port& port(NodeId id);
  const Port& port(NodeId id) const;
  Link* rack_uplink(std::size_t rack);
  /// Re-derives severed_ from partitions_ (rack names -> rack indices).
  void index_partitions();

  InFlight* acquire_record();
  /// Puts `rec` on its next hop.
  void transmit_hop(InFlight* rec);
  /// A hop finished: forward to the next one, or deliver after propagation.
  void on_hop_done(InFlight* rec);

  sim::Simulation& sim_;
  NetworkConfig config_;
  Topology topology_;
  std::vector<Port> ports_;
  std::optional<Bandwidth> cross_throttle_;
  std::optional<Bandwidth> shared_uplink_rate_;
  /// Shared uplinks indexed by rack index, created on first use.
  std::vector<std::unique_ptr<Link>> rack_uplinks_;
  /// Severed rack pairs, stored with rack_a < rack_b.
  std::set<std::pair<std::string, std::string>> partitions_;
  /// partitions_ as (lower, higher) rack-index pairs of registered racks,
  /// so the per-send check compares integers instead of copying names.
  std::vector<std::pair<std::size_t, std::size_t>> severed_;
  std::vector<bool> isolated_;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
  /// In-flight record pool; a deque keeps record addresses stable.
  std::deque<InFlight> records_;
  InFlight* free_records_ = nullptr;
};

}  // namespace smarth::net
