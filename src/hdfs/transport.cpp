#include "hdfs/transport.hpp"

#include "common/check.hpp"
#include "hdfs/datanode.hpp"

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

template <typename T, typename Id>
T* lookup(const std::vector<T*>& table, Id id) {
  const auto index = static_cast<std::size_t>(id.value());
  return id.valid() && index < table.size() ? table[index] : nullptr;
}

template <typename T, typename Id>
void store(std::vector<T*>& table, Id id, T* entry) {
  SMARTH_CHECK(id.valid());
  const auto index = static_cast<std::size_t>(id.value());
  if (table.size() <= index) table.resize(index + 1, nullptr);
  table[index] = entry;
}

template <typename T, typename Id>
Id open(std::vector<T*>& table, T& sink) {
  const Id id{static_cast<std::int64_t>(table.size())};
  table.push_back(&sink);
  return id;
}
}  // namespace

Transport::Transport(net::Network& network, const HdfsConfig& config)
    : network_(network), config_(config) {}

void Transport::attach(Datanode& datanode) {
  attach(datanode.node_id(), datanode);
  store(datanodes_, datanode.node_id(), &datanode);
}

void Transport::attach(NodeId node, PacketSink& sink) {
  SMARTH_CHECK_MSG(packet_sink(node) == nullptr,
                   node.to_string() << " is already attached");
  store(node_sinks_, node, &sink);
}

void Transport::detach(NodeId node) {
  store<PacketSink>(node_sinks_, node, nullptr);
  store<Datanode>(datanodes_, node, nullptr);
}

Datanode* Transport::datanode(NodeId node) const {
  return lookup(datanodes_, node);
}

PipelineId Transport::open_pipeline(AckSink& sink) {
  return open<AckSink, PipelineId>(pipeline_sinks_, sink);
}

void Transport::close_pipeline(PipelineId id) {
  store<AckSink>(pipeline_sinks_, id, nullptr);
}

ReadId Transport::open_read(ReadSink& sink) {
  return open<ReadSink, ReadId>(read_sinks_, sink);
}

void Transport::close_read(ReadId id) {
  store<ReadSink>(read_sinks_, id, nullptr);
}

PacketSink* Transport::packet_sink(NodeId node) const {
  return lookup(node_sinks_, node);
}

AckSink* Transport::ack_sink(PipelineId pipeline) const {
  return lookup(pipeline_sinks_, pipeline);
}

ReadSink* Transport::read_sink(ReadId read) const {
  return lookup(read_sinks_, read);
}

void Transport::send_setup(NodeId from, NodeId to, PipelineSetup setup) {
  network_.send(
      from, to, kSetupWire,
      [this, to, setup = std::move(setup)] {
        if (PacketSink* sink = packet_sink(to)) {
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
                  if (PacketSink* sink = packet_sink(to)) {
                    sink->deliver_packet(packet);
                  }
                }),
                net::LinkPriority::kBulk, flow);
}

void Transport::send_ack_to_datanode(NodeId from, NodeId to, PipelineAck ack) {
  network_.send(
      from, to, kAckWire,
      inline_delivery([this, to, ack] {
        if (PacketSink* sink = packet_sink(to)) {
          sink->deliver_downstream_ack(ack);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_ack_to_client(NodeId from, NodeId to, PipelineAck ack) {
  network_.send(
      from, to, kAckWire,
      inline_delivery([this, ack] {
        if (AckSink* sink = ack_sink(ack.pipeline)) {
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
        if (PacketSink* sink = packet_sink(to)) {
          sink->deliver_downstream_setup_ack(ack);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_setup_ack_to_client(NodeId from, NodeId to,
                                         SetupAck ack) {
  network_.send(
      from, to, kAckWire,
      inline_delivery([this, ack] {
        if (AckSink* sink = ack_sink(ack.pipeline)) {
          sink->deliver_setup_ack(ack);
        }
      }),
      net::LinkPriority::kControl);
}

void Transport::send_fnfa(NodeId from, NodeId to, FnfaMessage fnfa) {
  network_.send(
      from, to, kFnfaWire,
      inline_delivery([this, fnfa] {
        if (AckSink* sink = ack_sink(fnfa.pipeline)) {
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
        if (PacketSink* sink = packet_sink(to)) {
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
      inline_delivery([this, packet] {
        if (ReadSink* sink = read_sink(packet.read)) {
          sink->deliver_read_packet(packet);
        }
      }),
      priority, flow);
}

}  // namespace smarth::hdfs
