// Transport-layer unit tests: message routing to the right sinks (by node,
// pipeline and read id), the routing table's lifetime rule, wire sizing,
// control-vs-bulk priority, and null-sink robustness.
#include "hdfs/transport.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <vector>

#include "hdfs/datanode.hpp"
#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {
namespace {

class RecordingSink : public PacketSink, public AckSink, public ReadSink {
 public:
  // PacketSink
  void deliver_setup(const PipelineSetup& setup) override {
    setups.push_back(setup);
  }
  void deliver_packet(const WirePacket& packet) override {
    packets.push_back(packet);
  }
  void deliver_downstream_ack(const PipelineAck& ack) override {
    downstream_acks.push_back(ack);
  }
  void deliver_downstream_setup_ack(const SetupAck& ack) override {
    downstream_setup_acks.push_back(ack);
  }
  void deliver_read_request(const ReadRequest& request) override {
    read_requests.push_back(request);
  }
  // AckSink
  void deliver_ack(const PipelineAck& ack) override { acks.push_back(ack); }
  void deliver_setup_ack(const SetupAck& ack) override {
    setup_acks.push_back(ack);
  }
  void deliver_fnfa(const FnfaMessage& fnfa) override {
    fnfas.push_back(fnfa);
  }
  // ReadSink
  void deliver_read_packet(const ReadPacket& packet) override {
    read_packets.push_back(packet);
  }

  std::deque<PipelineSetup> setups;
  std::deque<WirePacket> packets;
  std::deque<PipelineAck> downstream_acks;
  std::deque<SetupAck> downstream_setup_acks;
  std::deque<ReadRequest> read_requests;
  std::deque<PipelineAck> acks;
  std::deque<SetupAck> setup_acks;
  std::deque<FnfaMessage> fnfas;
  std::deque<ReadPacket> read_packets;
};

class TransportTest : public ::testing::Test {
 protected:
  TransportTest() : sim_(1), net_(sim_) {
    a_ = net_.add_node("a", "/r0", Bandwidth::mbps(100));
    b_ = net_.add_node("b", "/r0", Bandwidth::mbps(100));
    transport_.attach(b_, sink_);
    pipe_ = transport_.open_pipeline(sink_);
    read_ = transport_.open_read(sink_);
  }

  /// One client-bound message of each kind for `pipeline` and `read`.
  void send_client_traffic(PipelineId pipeline, ReadId read) {
    transport_.send_ack_to_client(
        a_, b_, PipelineAck{pipeline, 0, AckStatus::kSuccess, -1});
    transport_.send_setup_ack_to_client(a_, b_, SetupAck{pipeline, true, -1});
    transport_.send_fnfa(a_, b_, FnfaMessage{pipeline, BlockId{3}});
    ReadPacket packet;
    packet.read = read;
    packet.payload = kKiB;
    transport_.send_read_packet(a_, b_, packet);
  }

  sim::Simulation sim_;
  net::Network net_;
  HdfsConfig config_;
  RecordingSink sink_;
  Transport transport_{net_, config_};
  NodeId a_, b_;
  PipelineId pipe_;
  ReadId read_;
};

TEST_F(TransportTest, SetupRoutesToPacketSink) {
  PipelineSetup setup;
  setup.pipeline = PipelineId{1};
  setup.block = BlockId{2};
  setup.targets = {b_};
  transport_.send_setup(a_, b_, setup);
  sim_.run();
  ASSERT_EQ(sink_.setups.size(), 1u);
  EXPECT_EQ(sink_.setups.front().block, BlockId{2});
}

TEST_F(TransportTest, PacketCarriesHeaderOverheadOnWire) {
  WirePacket packet;
  packet.pipeline = PipelineId{1};
  packet.payload = 64 * kKiB;
  transport_.send_packet(a_, b_, packet);
  sim_.run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_EQ(net_.bytes_sent(a_), 64 * kKiB + kPacketHeaderWire);
}

TEST_F(TransportTest, AckRoutingSplitsByDirection) {
  PipelineAck ack{pipe_, 5, AckStatus::kSuccess, -1};
  transport_.send_ack_to_datanode(a_, b_, ack);
  transport_.send_ack_to_client(a_, b_, ack);
  sim_.run();
  EXPECT_EQ(sink_.downstream_acks.size(), 1u);
  EXPECT_EQ(sink_.acks.size(), 1u);
}

TEST_F(TransportTest, SetupAckRouting) {
  SetupAck ack{pipe_, true, -1};
  transport_.send_setup_ack_to_datanode(a_, b_, ack);
  transport_.send_setup_ack_to_client(a_, b_, ack);
  sim_.run();
  EXPECT_EQ(sink_.downstream_setup_acks.size(), 1u);
  EXPECT_EQ(sink_.setup_acks.size(), 1u);
}

TEST_F(TransportTest, FnfaRouting) {
  transport_.send_fnfa(a_, b_, FnfaMessage{pipe_, BlockId{2}});
  sim_.run();
  ASSERT_EQ(sink_.fnfas.size(), 1u);
  EXPECT_EQ(sink_.fnfas.front().block, BlockId{2});
}

TEST_F(TransportTest, ReadRequestAndPacketRouting) {
  ReadRequest request;
  request.read = read_;
  request.block = BlockId{2};
  request.length = kKiB;
  request.reader_node = a_;
  transport_.send_read_request(a_, b_, request);
  ReadPacket packet;
  packet.read = read_;
  packet.payload = kKiB;
  transport_.send_read_packet(a_, b_, packet);
  sim_.run();
  ASSERT_EQ(sink_.read_requests.size(), 1u);
  EXPECT_EQ(sink_.read_requests.front().read, read_);
  ASSERT_EQ(sink_.read_packets.size(), 1u);
}

TEST_F(TransportTest, MessagesToUnresolvedNodeAreDropped) {
  // Node a_ has no sink attached and no sink was ever bound to the ids
  // below; nothing should crash.
  PipelineSetup setup;
  setup.pipeline = PipelineId{1};
  setup.targets = {a_};
  transport_.send_setup(b_, a_, setup);
  transport_.send_fnfa(b_, a_, FnfaMessage{PipelineId{42}, BlockId{0}});
  ReadPacket packet;
  packet.read = ReadId{42};
  packet.payload = kKiB;
  transport_.send_read_packet(b_, a_, packet);
  sim_.run();
  EXPECT_TRUE(sink_.setups.empty());
  EXPECT_TRUE(sink_.fnfas.empty());
  EXPECT_TRUE(sink_.read_packets.empty());
}

/// A client-side sink with the streams' lifetime rule: its ids stay bound
/// until its destructor closes them.
class ScopedSink : public RecordingSink {
 public:
  explicit ScopedSink(Transport& transport) : transport_(transport) {}
  ~ScopedSink() override {
    for (PipelineId id : pipelines) transport_.close_pipeline(id);
    for (ReadId id : reads) transport_.close_read(id);
  }
  void open() {
    pipelines.push_back(transport_.open_pipeline(*this));
    reads.push_back(transport_.open_read(*this));
  }

  std::vector<PipelineId> pipelines;
  std::vector<ReadId> reads;

 private:
  Transport& transport_;
};

TEST_F(TransportTest, MessagesForADestroyedSinksIdsReachNoOne) {
  auto dead = std::make_unique<ScopedSink>(transport_);
  dead->open();
  const PipelineId pipe = dead->pipelines[0];
  const ReadId read = dead->reads[0];
  send_client_traffic(pipe, read);  // in flight when the sink dies
  dead.reset();
  send_client_traffic(pipe, read);  // a pruned stream's late traffic
  sim_.run();
  EXPECT_TRUE(sink_.acks.empty() && sink_.setup_acks.empty() &&
              sink_.fnfas.empty() && sink_.read_packets.empty());
  // The live sink's ids on the same host still route.
  send_client_traffic(pipe_, read_);
  sim_.run();
  EXPECT_EQ(sink_.acks.size() + sink_.setup_acks.size() + sink_.fnfas.size() +
                sink_.read_packets.size(),
            4u);
}

TEST_F(TransportTest, InterleavedIdsReachOnlyTheirOwnSink) {
  ScopedSink first(transport_);
  ScopedSink second(transport_);
  for (int i = 0; i < 3; ++i) {
    first.open();
    second.open();
  }
  // Ids are dense in open order across all sinks: flow keys derive from
  // them, so the sequence is part of the simulated behaviour.
  EXPECT_EQ(second.pipelines[2].value(), pipe_.value() + 6);
  EXPECT_EQ(first.reads[1].value(), read_.value() + 3);
  for (ScopedSink* sink : {&second, &first}) {
    for (std::size_t i = 0; i < 3; ++i) {
      send_client_traffic(sink->pipelines[i], sink->reads[i]);
    }
  }
  sim_.run();
  for (ScopedSink* sink : {&first, &second}) {
    ASSERT_EQ(sink->acks.size(), 3u);
    ASSERT_EQ(sink->setup_acks.size(), 3u);
    ASSERT_EQ(sink->fnfas.size(), 3u);
    ASSERT_EQ(sink->read_packets.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(sink->acks[i].pipeline, sink->pipelines[i]);
      EXPECT_EQ(sink->setup_acks[i].pipeline, sink->pipelines[i]);
      EXPECT_EQ(sink->fnfas[i].pipeline, sink->pipelines[i]);
      EXPECT_EQ(std::count(sink->reads.begin(), sink->reads.end(),
                           sink->read_packets[i].read),
                1);
    }
  }
  EXPECT_TRUE(sink_.acks.empty() && sink_.read_packets.empty());
}

TEST_F(TransportTest, DatanodeResolvesOnlyAttachedDatanodes) {
  const NodeId nn = net_.add_node("nn", "/r0", Bandwidth::mbps(100));
  const NodeId dn_node = net_.add_node("dn", "/r0", Bandwidth::mbps(100));
  rpc::RpcBus rpc(net_);
  Namenode namenode(sim_, net_.topology(), config_, nn);
  auto dn = std::make_unique<Datanode>(sim_, transport_, rpc, namenode,
                                       config_, dn_node);
  EXPECT_EQ(transport_.datanode(dn_node), dn.get());
  // Client and namenode hosts, a host attached as a plain packet sink, and
  // the invalid id.
  for (NodeId other : {a_, nn, b_, NodeId{}}) {
    EXPECT_EQ(transport_.datanode(other), nullptr);
  }
  dn.reset();  // detaches: late traffic to its host reaches no one
  EXPECT_EQ(transport_.datanode(dn_node), nullptr);
  transport_.send_setup(b_, dn_node, PipelineSetup{});
  sim_.run_until(seconds(1));
}

TEST_F(TransportTest, AcksOvertakeQueuedBulkData) {
  // Queue a megabyte of data packets, then an ack: the ack must arrive
  // before most of the data (control-priority lane).
  WirePacket packet;
  packet.pipeline = PipelineId{1};
  packet.payload = 64 * kKiB;
  for (int i = 0; i < 16; ++i) {
    packet.seq = i;
    transport_.send_packet(a_, b_, packet);
  }
  transport_.send_ack_to_client(a_, b_,
                                PipelineAck{pipe_, 0, AckStatus::kSuccess, -1});
  bool ack_before_data_done = false;
  sim_.run_until(Bandwidth::mbps(100).transmit_time(4 * 64 * kKiB));
  ack_before_data_done = sink_.acks.size() == 1 && sink_.packets.size() < 16;
  sim_.run();
  EXPECT_TRUE(ack_before_data_done);
  EXPECT_EQ(sink_.packets.size(), 16u);
}

TEST_F(TransportTest, ErrorReadPacketIsControlSized) {
  ReadPacket error_packet;
  error_packet.read = ReadId{1};
  error_packet.error = true;
  transport_.send_read_packet(a_, b_, error_packet);
  sim_.run();
  EXPECT_EQ(net_.bytes_sent(a_), kAckWire);
}

}  // namespace
}  // namespace smarth::hdfs
