// A store-and-forward serializing link: the unit resource of the network
// model. A message of S bytes occupies the link for S / capacity, then
// arrives after the propagation latency. Concurrent senders share the link by
// FIFO queueing — which is how tc-shaped TCP flows share a shaped device at
// the packet granularity we simulate.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "sim/ring_queue.hpp"
#include "sim/simulation.hpp"

namespace smarth::net {

/// Scheduling class for a message. Real NICs interleave flows at MTU
/// granularity, so a 64-byte ACK never waits behind a megabyte of queued
/// bulk data; we model that by letting control messages bypass the bulk
/// queue (they still wait for the in-flight message to finish serializing).
enum class LinkPriority { kBulk, kControl };

/// Tag identifying which transport flow a bulk message belongs to. Bulk
/// messages of different flows share the link round-robin (approximating
/// per-connection TCP fairness) instead of strict FIFO, so a reader's
/// packets are not pinned behind another flow's whole-block backlog.
using FlowKey = std::uint64_t;
inline constexpr FlowKey kDefaultFlow = 0;

class Link {
 public:
  /// The event core's own callback type: a delivery is posted as-is, with no
  /// second layer of type erasure, and captures up to 64 bytes stay inline.
  using DeliveryCallback = sim::Simulation::Callback;

  Link(sim::Simulation& sim, std::string name, Bandwidth capacity,
       SimDuration latency);

  const std::string& name() const { return name_; }
  Bandwidth capacity() const { return capacity_; }
  SimDuration latency() const { return latency_; }

  /// Changes the capacity; applies to transmissions that start afterwards
  /// (matching `tc qdisc change` semantics).
  void set_capacity(Bandwidth capacity) { capacity_ = capacity; }

  /// Enqueues a message; `on_delivered` fires once it is fully serialized and
  /// has propagated. Zero-size messages still pay the latency. Bulk messages
  /// with distinct `flow` keys share the link round-robin.
  void transmit(Bytes size, DeliveryCallback on_delivered,
                LinkPriority priority = LinkPriority::kBulk,
                FlowKey flow = kDefaultFlow);

  /// Flow control: while paused the link finishes the in-flight message but
  /// starts no new one. Used to model receive-window backpressure.
  void pause();
  void resume();
  bool paused() const { return paused_; }

  // --- Introspection / statistics ------------------------------------------
  bool busy() const { return busy_; }
  std::size_t queued_count() const { return bulk_queued_ + control_queued_; }
  Bytes queued_bytes() const { return queued_bytes_; }
  Bytes bytes_transmitted() const { return bytes_transmitted_; }
  std::uint64_t messages_transmitted() const { return messages_transmitted_; }
  /// Total time the link spent serializing (for utilization reports).
  SimDuration busy_time() const;

 private:
  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  /// One queued message. Slots live in a pool recycled through a free list
  /// and chain by index into intrusive FIFOs, so queueing allocates nothing
  /// once the pool has grown to the link's peak backlog.
  struct Slot {
    Bytes size = 0;
    std::uint32_t next = kNoSlot;
    DeliveryCallback on_delivered;
  };
  struct Fifo {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
    bool empty() const { return head == kNoSlot; }
  };
  /// A flow with queued bulk messages.
  struct ActiveFlow {
    FlowKey flow = kDefaultFlow;
    Fifo queue;
  };

  std::uint32_t acquire_slot(Bytes size, DeliveryCallback&& cb);
  void push(Fifo& fifo, std::uint32_t slot);
  std::uint32_t pop(Fifo& fifo);
  /// The queue of `flow`, joining the back of the service ring if the flow
  /// has nothing queued yet.
  Fifo& flow_queue(FlowKey flow);
  void try_start_next();
  void finish_current();

  sim::Simulation& sim_;
  std::string name_;
  Bandwidth capacity_;
  SimDuration latency_;

  std::vector<Slot> slots_;
  std::uint32_t free_slots_ = kNoSlot;
  /// Bulk lane: flows with queued messages, in round-robin service order. A
  /// flow is in the ring exactly while its queue is non-empty; ring sizes
  /// stay small (one entry per live pipeline or read), so lookup scans.
  sim::RingQueue<ActiveFlow> ring_;
  Fifo control_queue_;  // control messages (bypass bulk)
  std::size_t bulk_queued_ = 0;
  std::size_t control_queued_ = 0;
  Bytes queued_bytes_ = 0;
  bool busy_ = false;
  bool paused_ = false;
  /// The message being serialized (valid while busy_).
  Bytes current_size_ = 0;
  DeliveryCallback current_;

  Bytes bytes_transmitted_ = 0;
  std::uint64_t messages_transmitted_ = 0;
  SimDuration busy_accum_ = 0;
  SimTime busy_since_ = 0;
};

}  // namespace smarth::net
