// Datanode unit tests against a hand-built three-node pipeline with a fake
// client sink: packet store/forward/ack aggregation, FNFA emission, staging
// accounting, finalization, and the recovery server-side (probe, truncate,
// abort, prefix transfer).
#include "hdfs/datanode.hpp"

#include <gtest/gtest.h>

#include <deque>

#include "mini_cluster.hpp"

namespace smarth::hdfs {
namespace {

/// Fake client: records everything the pipeline sends upstream.
class FakeClient : public AckSink {
 public:
  void deliver_ack(const PipelineAck& ack) override { acks.push_back(ack); }
  void deliver_setup_ack(const SetupAck& ack) override {
    setup_acks.push_back(ack);
  }
  void deliver_fnfa(const FnfaMessage& fnfa) override {
    fnfas.push_back(fnfa);
  }
  std::deque<PipelineAck> acks;
  std::deque<SetupAck> setup_acks;
  std::deque<FnfaMessage> fnfas;
};

/// A three-datanode pipeline on one rack, 4 packets per block.
class DatanodeTest : public MiniClusterTest {
 protected:
  DatanodeTest() : MiniClusterTest(4, {"/r0", "/r0", "/r0"}) {}

  PipelineSetup make_setup(bool smarth, Bytes resume = 0) {
    PipelineSetup setup;
    setup.pipeline = transport_.open_pipeline(client_);
    setup.block = BlockId{10};
    setup.targets = dn_nodes_;
    setup.client_node = client_node_;
    setup.client = ClientId{0};
    setup.smarth_mode = smarth;
    setup.resume_offset = resume;
    return setup;
  }

  /// Heartbeats keep the event queue populated forever, so tests advance a
  /// bounded slice of simulated time instead of draining the queue.
  void settle(SimDuration span = seconds(5)) {
    sim_.run_until(sim_.now() + span);
  }

  void send_setup_and_wait(const PipelineSetup& setup) {
    transport_.send_setup(client_node_, setup.targets[0], setup);
    settle();
    ASSERT_EQ(client_.setup_acks.size(), 1u);
    ASSERT_TRUE(client_.setup_acks.front().success);
  }

  void send_block_packets(const PipelineSetup& setup, int count,
                          int start_seq = 0) {
    for (int i = 0; i < count; ++i) {
      WirePacket packet;
      packet.pipeline = setup.pipeline;
      packet.block = setup.block;
      packet.seq = start_seq + i;
      packet.payload = config_.packet_payload;
      packet.last_in_block = (start_seq + i + 1) * config_.packet_payload >=
                             config_.block_size;
      transport_.send_packet(client_node_, setup.targets[0], packet);
    }
    settle();
  }

  FakeClient client_;
};

TEST_F(DatanodeTest, SetupForwardsDownChainAndAcksBack) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  for (const auto& dn : dns_) {
    EXPECT_TRUE(dn->block_store().has_replica(setup.block));
    EXPECT_EQ(dn->active_pipeline_count(), 1u);
  }
}

TEST_F(DatanodeTest, FullBlockStoredOnAllReplicas) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  send_block_packets(setup, 4);
  for (const auto& dn : dns_) {
    const auto replica = dn->block_store().replica(setup.block);
    ASSERT_TRUE(replica.ok());
    EXPECT_EQ(replica.value().bytes, config_.block_size);
    EXPECT_EQ(replica.value().state, storage::ReplicaState::kFinalized);
  }
  // One ACK per packet reached the client, in order.
  ASSERT_EQ(client_.acks.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(client_.acks[static_cast<size_t>(i)].seq, i);
    EXPECT_EQ(client_.acks[static_cast<size_t>(i)].status,
              AckStatus::kSuccess);
  }
  // Pipeline contexts are cleaned up after finalization.
  for (const auto& dn : dns_) EXPECT_EQ(dn->active_pipeline_count(), 0u);
}

TEST_F(DatanodeTest, NoFnfaInBaselineMode) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  send_block_packets(setup, 4);
  EXPECT_TRUE(client_.fnfas.empty());
  EXPECT_EQ(dns_[0]->fnfa_sent(), 0u);
}

TEST_F(DatanodeTest, FnfaEmittedInSmarthMode) {
  const PipelineSetup setup = make_setup(true);
  send_setup_and_wait(setup);
  send_block_packets(setup, 4);
  ASSERT_EQ(client_.fnfas.size(), 1u);
  EXPECT_EQ(client_.fnfas.front().block, setup.block);
  EXPECT_EQ(dns_[0]->fnfa_sent(), 1u);
  // Only the first datanode emits it.
  EXPECT_EQ(dns_[1]->fnfa_sent(), 0u);
  EXPECT_EQ(dns_[2]->fnfa_sent(), 0u);
}

TEST_F(DatanodeTest, BlockReceivedReportedToNamenode) {
  // The namenode must learn of every finalized replica.
  const auto file = namenode_->create("/f", ClientId{0});
  ASSERT_TRUE(file.ok());
  const auto located = namenode_->add_block(file.value(), ClientId{0},
                                            client_node_, {});
  ASSERT_TRUE(located.ok());
  PipelineSetup setup = make_setup(false);
  setup.block = located.value().block;
  setup.targets = located.value().targets;
  // Rewire against the actual chosen targets.
  transport_.send_setup(client_node_, setup.targets[0], setup);
  settle();
  for (int i = 0; i < 4; ++i) {
    WirePacket packet{setup.pipeline, setup.block, i, config_.packet_payload,
                      i == 3};
    transport_.send_packet(client_node_, setup.targets[0], packet);
  }
  settle();
  const BlockRecord* record = namenode_->block(setup.block);
  ASSERT_NE(record, nullptr);
  EXPECT_EQ(record->reported.size(), 3u);
  for (const auto& [dn, len] : record->reported) {
    EXPECT_EQ(len, config_.block_size);
  }
}

TEST_F(DatanodeTest, StagingReleasedByEndOfBlock) {
  const PipelineSetup setup = make_setup(true);
  send_setup_and_wait(setup);
  send_block_packets(setup, 4);
  for (const auto& dn : dns_) {
    EXPECT_EQ(dn->staging_used(ClientId{0}), 0);
    EXPECT_GT(dn->staging_high_water(ClientId{0}), 0);
    EXPECT_EQ(dn->staging_overflows(ClientId{0}), 0u);
  }
}

TEST_F(DatanodeTest, ChecksumInjectionSendsErrorAck) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  dns_[0]->inject_checksum_error(setup.block, 2);
  send_block_packets(setup, 4);
  // The client received an error ack for seq 2 from pipeline position 0.
  bool saw_error = false;
  for (const auto& ack : client_.acks) {
    if (ack.status == AckStatus::kChecksumError) {
      saw_error = true;
      EXPECT_EQ(ack.seq, 2);
      EXPECT_EQ(ack.error_index, 0);
    }
  }
  EXPECT_TRUE(saw_error);
  // The corrupted packet was not stored or forwarded by the head.
  EXPECT_LT(dns_[0]->block_store().replica(setup.block).value().bytes,
            config_.block_size);
}

TEST_F(DatanodeTest, CorruptionByArrivalCount) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  dns_[1]->inject_checksum_error_on_nth_packet(1);
  send_block_packets(setup, 4);
  bool saw_error = false;
  for (const auto& ack : client_.acks) {
    if (ack.status == AckStatus::kChecksumError) {
      saw_error = true;
      EXPECT_EQ(ack.error_index, 1);  // reported by the second node
    }
  }
  EXPECT_TRUE(saw_error);
}

TEST_F(DatanodeTest, CrashedNodeDropsEverything) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  dns_[1]->crash();
  send_block_packets(setup, 4);
  // Head stored packets; the mirror (crashed) did not; no full acks reached
  // the client.
  EXPECT_EQ(dns_[0]->block_store().replica(setup.block).value().bytes,
            config_.block_size);
  EXPECT_EQ(dns_[1]->block_store().replica(setup.block).value().bytes, 0);
  EXPECT_TRUE(client_.acks.empty());
  EXPECT_TRUE(dns_[1]->crashed());
}

TEST_F(DatanodeTest, ProbeReflectsReplicaState) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  send_block_packets(setup, 2);  // half the block
  const auto probe = dns_[0]->probe_replica(setup.block);
  EXPECT_TRUE(probe.alive);
  EXPECT_TRUE(probe.has_replica);
  EXPECT_EQ(probe.bytes, 2 * config_.packet_payload);
  const auto missing = dns_[0]->probe_replica(BlockId{99});
  EXPECT_TRUE(missing.alive);
  EXPECT_FALSE(missing.has_replica);
  dns_[0]->crash();
  EXPECT_FALSE(dns_[0]->probe_replica(setup.block).alive);
}

TEST_F(DatanodeTest, TruncateToSyncPoint) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  send_block_packets(setup, 3);
  ASSERT_TRUE(
      dns_[0]->truncate_replica(setup.block, config_.packet_payload).ok());
  EXPECT_EQ(dns_[0]->block_store().replica(setup.block).value().bytes,
            config_.packet_payload);
  // Truncating an absent replica works only to length zero.
  EXPECT_TRUE(dns_[0]->truncate_replica(BlockId{55}, 0).ok());
  EXPECT_FALSE(dns_[0]->truncate_replica(BlockId{56}, 10).ok());
}

TEST_F(DatanodeTest, AbortDropsPipelineStateAndStaging) {
  const PipelineSetup setup = make_setup(true);
  send_setup_and_wait(setup);
  send_block_packets(setup, 2);
  dns_[0]->abort_pipeline(setup.pipeline);
  EXPECT_EQ(dns_[0]->active_pipeline_count(), 0u);
  EXPECT_EQ(dns_[0]->staging_used(ClientId{0}), 0);
  // Replica data survives the abort (recovery needs it).
  EXPECT_TRUE(dns_[0]->block_store().has_replica(setup.block));
}

TEST_F(DatanodeTest, TransferReplicaSeedsPeer) {
  const PipelineSetup setup = make_setup(false);
  send_setup_and_wait(setup);
  send_block_packets(setup, 4);
  // Transfer a 2-packet prefix from dn0 to... dn2 already has it; use a
  // fresh block to make the check unambiguous: truncate dn2's replica away.
  bool ok = false;
  dns_[0]->transfer_replica(setup.block, dn_nodes_[2],
                            2 * config_.packet_payload,
                            [&](bool success) { ok = success; });
  settle();
  EXPECT_TRUE(ok);
}

TEST_F(DatanodeTest, TransferFailsWithoutSource) {
  bool ok = true;
  dns_[0]->transfer_replica(BlockId{404}, dn_nodes_[1], kKiB,
                            [&](bool success) { ok = success; });
  settle();
  EXPECT_FALSE(ok);
}

TEST_F(DatanodeTest, ResumeSetupContinuesMidBlock) {
  // Simulate recovery: all replicas truncated to 2 packets, then a resumed
  // pipeline delivers packets 2..3.
  PipelineSetup setup = make_setup(true);
  send_setup_and_wait(setup);
  send_block_packets(setup, 2);
  for (auto& dn : dns_) {
    dn->abort_pipeline(setup.pipeline);
    ASSERT_TRUE(
        dn->truncate_replica(setup.block, 2 * config_.packet_payload).ok());
  }
  client_.setup_acks.clear();
  PipelineSetup resumed = setup;
  resumed.pipeline = transport_.open_pipeline(client_);
  resumed.resume_offset = 2 * config_.packet_payload;
  send_setup_and_wait(resumed);
  send_block_packets(resumed, 2, /*start_seq=*/2);
  for (const auto& dn : dns_) {
    const auto replica = dn->block_store().replica(setup.block);
    ASSERT_TRUE(replica.ok());
    EXPECT_EQ(replica.value().bytes, config_.block_size);
    EXPECT_EQ(replica.value().state, storage::ReplicaState::kFinalized);
  }
  // FNFA for the resumed pipeline covers only the resumed packets.
  EXPECT_EQ(dns_[0]->fnfa_sent(), 1u);
}

TEST_F(DatanodeTest, HeartbeatsKeepNodeAlive) {
  sim_.run_until(seconds(30));
  EXPECT_TRUE(namenode_->is_alive(dn_nodes_[0]));
  dns_[0]->crash();
  sim_.run_until(seconds(30) + config_.datanode_dead_interval + seconds(4));
  EXPECT_FALSE(namenode_->is_alive(dn_nodes_[0]));
  EXPECT_TRUE(namenode_->is_alive(dn_nodes_[1]));
}

}  // namespace
}  // namespace smarth::hdfs
