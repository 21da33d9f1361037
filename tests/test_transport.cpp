// Transport-layer unit tests: message routing to the right sinks, wire
// sizing, control-vs-bulk priority, and null-sink robustness.
#include "hdfs/transport.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "net/network.hpp"
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
    SinkResolver resolver;
    resolver.packet_sink = [this](NodeId node) -> PacketSink* {
      return node == b_ ? &sink_ : nullptr;
    };
    resolver.ack_sink = [this](NodeId node, PipelineId) -> AckSink* {
      return node == b_ ? &sink_ : nullptr;
    };
    resolver.read_sink = [this](NodeId node, ReadId) -> ReadSink* {
      return node == b_ ? &sink_ : nullptr;
    };
    transport_ = std::make_unique<Transport>(net_, config_, resolver);
  }

  sim::Simulation sim_;
  net::Network net_;
  HdfsConfig config_;
  RecordingSink sink_;
  std::unique_ptr<Transport> transport_;
  NodeId a_, b_;
};

TEST_F(TransportTest, SetupRoutesToPacketSink) {
  PipelineSetup setup;
  setup.pipeline = PipelineId{1};
  setup.block = BlockId{2};
  setup.targets = {b_};
  transport_->send_setup(a_, b_, setup);
  sim_.run();
  ASSERT_EQ(sink_.setups.size(), 1u);
  EXPECT_EQ(sink_.setups.front().block, BlockId{2});
}

TEST_F(TransportTest, PacketCarriesHeaderOverheadOnWire) {
  WirePacket packet;
  packet.pipeline = PipelineId{1};
  packet.payload = 64 * kKiB;
  transport_->send_packet(a_, b_, packet);
  sim_.run();
  ASSERT_EQ(sink_.packets.size(), 1u);
  EXPECT_EQ(net_.bytes_sent(a_), 64 * kKiB + kPacketHeaderWire);
}

TEST_F(TransportTest, AckRoutingSplitsByDirection) {
  PipelineAck ack{PipelineId{1}, 5, AckStatus::kSuccess, -1};
  transport_->send_ack_to_datanode(a_, b_, ack);
  transport_->send_ack_to_client(a_, b_, ack);
  sim_.run();
  EXPECT_EQ(sink_.downstream_acks.size(), 1u);
  EXPECT_EQ(sink_.acks.size(), 1u);
}

TEST_F(TransportTest, SetupAckRouting) {
  SetupAck ack{PipelineId{1}, true, -1};
  transport_->send_setup_ack_to_datanode(a_, b_, ack);
  transport_->send_setup_ack_to_client(a_, b_, ack);
  sim_.run();
  EXPECT_EQ(sink_.downstream_setup_acks.size(), 1u);
  EXPECT_EQ(sink_.setup_acks.size(), 1u);
}

TEST_F(TransportTest, FnfaRouting) {
  transport_->send_fnfa(a_, b_, FnfaMessage{PipelineId{1}, BlockId{2}});
  sim_.run();
  ASSERT_EQ(sink_.fnfas.size(), 1u);
  EXPECT_EQ(sink_.fnfas.front().block, BlockId{2});
}

TEST_F(TransportTest, ReadRequestAndPacketRouting) {
  ReadRequest request;
  request.read = ReadId{7};
  request.block = BlockId{2};
  request.length = kKiB;
  request.reader_node = a_;
  transport_->send_read_request(a_, b_, request);
  ReadPacket packet;
  packet.read = ReadId{7};
  packet.payload = kKiB;
  transport_->send_read_packet(a_, b_, packet);
  sim_.run();
  ASSERT_EQ(sink_.read_requests.size(), 1u);
  EXPECT_EQ(sink_.read_requests.front().read, ReadId{7});
  ASSERT_EQ(sink_.read_packets.size(), 1u);
}

TEST_F(TransportTest, MessagesToUnresolvedNodeAreDropped) {
  // Node a_ has no sinks registered; nothing should crash.
  PipelineSetup setup;
  setup.pipeline = PipelineId{1};
  setup.targets = {a_};
  transport_->send_setup(b_, a_, setup);
  transport_->send_fnfa(b_, a_, FnfaMessage{PipelineId{1}, BlockId{0}});
  sim_.run();
  EXPECT_TRUE(sink_.setups.empty());
  EXPECT_TRUE(sink_.fnfas.empty());
}

TEST_F(TransportTest, AcksOvertakeQueuedBulkData) {
  // Queue a megabyte of data packets, then an ack: the ack must arrive
  // before most of the data (control-priority lane).
  WirePacket packet;
  packet.pipeline = PipelineId{1};
  packet.payload = 64 * kKiB;
  for (int i = 0; i < 16; ++i) {
    packet.seq = i;
    transport_->send_packet(a_, b_, packet);
  }
  transport_->send_ack_to_client(a_, b_,
                                 PipelineAck{PipelineId{1}, 0,
                                             AckStatus::kSuccess, -1});
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
  transport_->send_read_packet(a_, b_, error_packet);
  sim_.run();
  EXPECT_EQ(net_.bytes_sent(a_), kAckWire);
}

}  // namespace
}  // namespace smarth::hdfs
