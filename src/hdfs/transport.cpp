#include "hdfs/transport.hpp"

#include "common/check.hpp"

namespace smarth::hdfs {

namespace {
/// Wire sizes of a pipeline or read setup request and of SMARTH's FNFA.
constexpr Bytes kSetupWire = 256;
constexpr Bytes kFnfaWire = 64;

/// Wraps a per-packet or per-ACK delivery lambda, proving at compile time
/// that it rides inline in the callback (no heap allocation per message).
template <typename F>
net::Network::DeliveryCallback inline_delivery(F&& deliver) {
  static_assert(net::Network::DeliveryCallback::stores_inline<F>(),
                "packet-path delivery lambda outgrew SmallFn inline storage");
  return net::Network::DeliveryCallback(std::forward<F>(deliver));
}
}  // namespace

Transport::Transport(net::Network& network, const HdfsConfig& config,
                     SinkResolver resolver)
    : network_(network), config_(config), resolver_(std::move(resolver)) {
  SMARTH_CHECK(static_cast<bool>(resolver_.packet_sink));
  SMARTH_CHECK(static_cast<bool>(resolver_.ack_sink));
}

void Transport::send_setup(NodeId from, NodeId to, PipelineSetup setup) {
  network_.send(
      from, to, kSetupWire,
      [this, to, setup = std::move(setup)] {
        if (PacketSink* sink = resolver_.packet_sink(to)) {
          sink->deliver_setup(setup);
        }
      },
      net::LinkPriority::kControl);
}

void Transport::send_packet(NodeId from, NodeId to, WirePacket packet) {
  // Each pipeline is its own transport flow: bulk fairness on shared links
  // mirrors per-connection TCP sharing.
  const net::FlowKey flow =
      static_cast<net::FlowKey>(packet.pipeline.value()) + 1;
  network_.send(from, to, config_.transfer_wire_size(packet.payload),
                inline_delivery([this, to, packet] {
                  if (PacketSink* sink = resolver_.packet_sink(to)) {
                    sink->deliver_packet(packet);
                  }
                }),
                net::LinkPriority::kBulk, flow);
}

void Transport::send_ack_to_datanode(NodeId from, NodeId to, PipelineAck ack) {
  network_.send(
      from, to, kAckWire,
      inline_delivery([this, to, ack] {
        if (PacketSink* sink = resolver_.packet_sink(to)) {
          sink->deliver_downstream_ack(ack);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_ack_to_client(NodeId from, NodeId to, PipelineAck ack) {
  network_.send(
      from, to, kAckWire,
      inline_delivery([this, to, ack] {
        if (AckSink* sink = resolver_.ack_sink(to, ack.pipeline)) {
          sink->deliver_ack(ack);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_setup_ack_to_datanode(NodeId from, NodeId to,
                                           SetupAck ack) {
  network_.send(
      from, to, kAckWire,
      inline_delivery([this, to, ack] {
        if (PacketSink* sink = resolver_.packet_sink(to)) {
          sink->deliver_downstream_setup_ack(ack);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_setup_ack_to_client(NodeId from, NodeId to,
                                         SetupAck ack) {
  network_.send(
      from, to, kAckWire,
      inline_delivery([this, to, ack] {
        if (AckSink* sink = resolver_.ack_sink(to, ack.pipeline)) {
          sink->deliver_setup_ack(ack);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_fnfa(NodeId from, NodeId to, FnfaMessage fnfa) {
  network_.send(
      from, to, kFnfaWire,
      inline_delivery([this, to, fnfa] {
        if (AckSink* sink = resolver_.ack_sink(to, fnfa.pipeline)) {
          sink->deliver_fnfa(fnfa);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_read_request(NodeId from, NodeId to,
                                  ReadRequest request) {
  network_.send(
      from, to, kSetupWire,
      inline_delivery([this, to, request] {
        if (PacketSink* sink = resolver_.packet_sink(to)) {
          sink->deliver_read_request(request);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_read_packet(NodeId from, NodeId to, ReadPacket packet) {
  // Error markers are tiny control messages; data packets are bulk.
  const Bytes wire = packet.error ? kAckWire
                                  : config_.transfer_wire_size(packet.payload);
  const auto priority = packet.error ? net::LinkPriority::kControl
                                     : net::LinkPriority::kBulk;
  const net::FlowKey flow =
      (net::FlowKey{1} << 32) + static_cast<net::FlowKey>(packet.read.value());
  network_.send(
      from, to, wire,
      inline_delivery([this, to, packet] {
        if (resolver_.read_sink) {
          if (ReadSink* sink = resolver_.read_sink(to, packet.read)) {
            sink->deliver_read_packet(packet);
          }
        }
      }),
      priority, flow);
}

}  // namespace smarth::hdfs
