// Thin data-plane shim: turns typed protocol messages into sized network
// sends and dispatches them to the destination's sink on delivery. It owns
// the one routing table of the data plane: datanodes by NodeId, client
// streams by the pipeline and read ids it hands out. Keeps datanodes and
// clients free of wire-size arithmetic and of direct references to each
// other.
#pragma once

#include <vector>

#include "hdfs/types.hpp"
#include "net/network.hpp"

namespace smarth::hdfs {

class Datanode;

/// Wire size of a pipeline ACK, setup ACK or read-error marker.
inline constexpr Bytes kAckWire = 64;

class Transport {
 public:
  Transport(net::Network& network, const HdfsConfig& config);

  net::Network& network() { return network_; }
  const HdfsConfig& config() const { return config_; }

  // --- Routing table -----------------------------------------------------------
  // Setups, data packets, downstream ACKs and read requests route by
  // destination NodeId; client-bound ACKs, setup ACKs, FNFAs and read packets
  // route by pipeline or read id. A message whose entry is empty (no node
  // attached, sink destroyed) is delivered to no one.

  /// A datanode attaches itself on construction and detaches in its
  /// destructor; datanode() then resolves its NodeId for peers.
  void attach(Datanode& datanode);
  /// Attaches a non-datanode packet sink (test fakes).
  void attach(NodeId node, PacketSink& sink);
  void detach(NodeId node);
  /// The datanode on `node`, or null for a client or namenode host.
  Datanode* datanode(NodeId node) const;

  /// Allocates the next pipeline (read) id, bound to `sink` until closed.
  /// A sink keeps its ids bound for its whole lifetime and closes them in
  /// its destructor; late messages for an id it no longer uses reach it and
  /// are dropped there.
  PipelineId open_pipeline(AckSink& sink);
  void close_pipeline(PipelineId id);
  ReadId open_read(ReadSink& sink);
  void close_read(ReadId id);

  void send_setup(NodeId from, NodeId to, PipelineSetup setup);
  void send_packet(NodeId from, NodeId to, WirePacket packet);
  /// ACKs route to a datanode's PacketSink or to the AckSink that owns the
  /// pipeline (its upstream end).
  void send_ack_to_datanode(NodeId from, NodeId to, PipelineAck ack);
  void send_ack_to_client(NodeId from, NodeId to, PipelineAck ack);
  void send_setup_ack_to_datanode(NodeId from, NodeId to, SetupAck ack);
  void send_setup_ack_to_client(NodeId from, NodeId to, SetupAck ack);
  void send_fnfa(NodeId from, NodeId to, FnfaMessage fnfa);
  void send_read_request(NodeId from, NodeId to, ReadRequest request);
  void send_read_packet(NodeId from, NodeId to, ReadPacket packet);

 private:
  PacketSink* packet_sink(NodeId node) const;
  AckSink* ack_sink(PipelineId pipeline) const;
  ReadSink* read_sink(ReadId read) const;

  net::Network& network_;
  const HdfsConfig& config_;
  /// Dense tables indexed by id value; ids are issued densely from 0.
  std::vector<PacketSink*> node_sinks_;
  std::vector<Datanode*> datanodes_;
  std::vector<AckSink*> pipeline_sinks_;
  std::vector<ReadSink*> read_sinks_;
};

}  // namespace smarth::hdfs
