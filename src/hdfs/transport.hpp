// Thin data-plane shim: turns typed protocol messages into sized network
// sends and dispatches them to the destination's sink on delivery. Keeps
// datanodes and clients free of wire-size arithmetic and of direct references
// to each other.
#pragma once

#include "hdfs/types.hpp"
#include "net/network.hpp"

namespace smarth::hdfs {

/// Wire size of a pipeline ACK, setup ACK or read-error marker.
inline constexpr Bytes kAckWire = 64;

class Transport {
 public:
  Transport(net::Network& network, const HdfsConfig& config,
            SinkResolver resolver);

  net::Network& network() { return network_; }
  const HdfsConfig& config() const { return config_; }

  void send_setup(NodeId from, NodeId to, PipelineSetup setup);
  void send_packet(NodeId from, NodeId to, WirePacket packet);
  /// ACKs route to a datanode's PacketSink or to a client's AckSink (the
  /// pipeline's upstream end).
  void send_ack_to_datanode(NodeId from, NodeId to, PipelineAck ack);
  void send_ack_to_client(NodeId from, NodeId to, PipelineAck ack);
  void send_setup_ack_to_datanode(NodeId from, NodeId to, SetupAck ack);
  void send_setup_ack_to_client(NodeId from, NodeId to, SetupAck ack);
  void send_fnfa(NodeId from, NodeId to, FnfaMessage fnfa);
  void send_read_request(NodeId from, NodeId to, ReadRequest request);
  void send_read_packet(NodeId from, NodeId to, ReadPacket packet);

 private:
  net::Network& network_;
  const HdfsConfig& config_;
  SinkResolver resolver_;
};

}  // namespace smarth::hdfs
