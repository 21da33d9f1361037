// Unit tests for under-construction block recovery: the namenode's
// commitBlockSynchronization protocol (replica length probe, truncate to the
// minimum durable length for tail blocks, finalize-at-max for earlier
// blocks, zero-durable abandonment) and the create-takeover path a new
// writer uses on a soft-expired file.
#include <gtest/gtest.h>

#include "mini_cluster.hpp"

namespace smarth::hdfs {
namespace {

class NullAckSink : public AckSink {
 public:
  void deliver_ack(const PipelineAck&) override {}
  void deliver_setup_ack(const SetupAck&) override {}
  void deliver_fnfa(const FnfaMessage&) override {}
};

/// Three datanodes on one rack, 4 packets per block.
class UcRecoveryTest : public MiniClusterTest {
 protected:
  UcRecoveryTest() : MiniClusterTest(4, {"/r0", "/r0", "/r0"}) {
    // Route recovery commands straight to the primary, as the cluster
    // facade does.
    namenode_->enable_lease_recovery(
        [this](NodeId primary, const UcRecoveryCommand& cmd) {
          Datanode* dn = resolve(primary);
          if (dn == nullptr || dn->crashed()) return false;
          rpc_.notify(namenode_->node_id(), primary,
                      [dn, cmd] { dn->recover_uc_block(cmd); });
          return true;
        });
    settle(milliseconds(100));  // datanode registration heartbeats
  }

  Datanode* resolve(NodeId node) { return transport_.datanode(node); }

  void settle(SimDuration span = seconds(2)) {
    sim_.run_until(sim_.now() + span);
  }

  /// Creates a file and allocates one block, returning its location.
  LocatedBlock allocate_block(FileId file) {
    const auto located =
        namenode_->add_block(file, writer_, client_node_, {});
    EXPECT_TRUE(located.ok());
    return located.value();
  }

  /// Opens a pipeline over `located.targets` and streams `packets` packets
  /// (each 64 KiB). Fewer than 4 leaves the replicas under construction.
  void stream_packets(const LocatedBlock& located, int packets) {
    PipelineSetup setup;
    setup.pipeline = transport_.open_pipeline(client_sink_);
    setup.block = located.block;
    setup.targets = located.targets;
    setup.client_node = client_node_;
    setup.client = writer_;
    transport_.send_setup(client_node_, setup.targets[0], setup);
    settle(milliseconds(50));
    for (int i = 0; i < packets; ++i) {
      WirePacket packet;
      packet.pipeline = setup.pipeline;
      packet.block = setup.block;
      packet.seq = i;
      packet.payload = config_.packet_payload;
      packet.last_in_block =
          (i + 1) * config_.packet_payload >= config_.block_size;
      transport_.send_packet(client_node_, setup.targets[0], packet);
    }
    settle(milliseconds(200));
  }

  Bytes replica_bytes(NodeId node, BlockId block) {
    const auto replica = resolve(node)->block_store().replica(block);
    return replica.ok() ? replica.value().bytes : 0;
  }

  bool replica_finalized(NodeId node, BlockId block) {
    const auto replica = resolve(node)->block_store().replica(block);
    return replica.ok() &&
           replica.value().state == storage::ReplicaState::kFinalized;
  }

  NullAckSink client_sink_;
  ClientId writer_{7};
};

TEST_F(UcRecoveryTest, TailBlockTruncatesToMinimumDurableLength) {
  const auto file = namenode_->create("/f", writer_);
  ASSERT_TRUE(file.ok());
  const LocatedBlock located = allocate_block(file.value());
  stream_packets(located, 2);  // 128 KiB on every replica, all open

  // One replica only made it to 64 KiB durable (e.g. its disk flushed less
  // before the writer vanished): the shortest *live* prefix bounds what the
  // recovered block may claim.
  ASSERT_TRUE(resolve(located.targets[2])
                  ->commit_replica(located.block, 64 * kKiB)
                  .ok());

  ASSERT_TRUE(namenode_->start_lease_recovery(file.value()).ok());
  settle(seconds(5));

  const FileEntry* entry = namenode_->file_by_path("/f");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, FileState::kClosed);
  EXPECT_EQ(namenode_->uc_blocks_recovered(), 1u);
  EXPECT_EQ(namenode_->bytes_salvaged(), 64 * kKiB);
  EXPECT_EQ(namenode_->orphans_abandoned(), 0u);
  for (NodeId node : located.targets) {
    EXPECT_TRUE(replica_finalized(node, located.block));
    EXPECT_EQ(replica_bytes(node, located.block), 64 * kKiB);
  }
  // The namenode serves the synchronized length to readers.
  const auto locations = namenode_->get_block_locations("/f", client_node_);
  ASSERT_TRUE(locations.ok());
  ASSERT_EQ(locations.value().size(), 1u);
  EXPECT_EQ(locations.value()[0].length, 64 * kKiB);
  EXPECT_EQ(locations.value()[0].targets.size(), 3u);
}

TEST_F(UcRecoveryTest, ZeroDurableTailIsAbandoned) {
  const auto file = namenode_->create("/f", writer_);
  ASSERT_TRUE(file.ok());
  const LocatedBlock located = allocate_block(file.value());
  stream_packets(located, 0);  // pipeline set up, not one byte written

  ASSERT_TRUE(namenode_->start_lease_recovery(file.value()).ok());
  settle(seconds(5));

  const FileEntry* entry = namenode_->file_by_path("/f");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, FileState::kClosed);
  EXPECT_TRUE(entry->blocks.empty());
  EXPECT_EQ(namenode_->uc_blocks_recovered(), 0u);
  EXPECT_EQ(namenode_->bytes_salvaged(), 0u);
  EXPECT_EQ(namenode_->orphans_abandoned(), 1u);
  const auto locations = namenode_->get_block_locations("/f", client_node_);
  ASSERT_TRUE(locations.ok());
  EXPECT_TRUE(locations.value().empty());  // empty file, zero-byte prefix
}

TEST_F(UcRecoveryTest, NonTailBlockFinalizesAtMaxAndDiscardsStragglers) {
  const auto file = namenode_->create("/f", writer_);
  ASSERT_TRUE(file.ok());
  const LocatedBlock first = allocate_block(file.value());
  stream_packets(first, 2);  // 128 KiB open everywhere
  const LocatedBlock second = allocate_block(file.value());
  stream_packets(second, 0);  // tail never received data

  // One straggler replica of the first block stopped at 64 KiB. For a
  // non-tail block the longest replica wins (its writer moved on, so the
  // longest prefix was acknowledged end-to-end under FNFA pacing); shorter
  // stragglers are discarded rather than dragging the length down.
  ASSERT_TRUE(resolve(first.targets[2])
                  ->commit_replica(first.block, 64 * kKiB)
                  .ok());

  ASSERT_TRUE(namenode_->start_lease_recovery(file.value()).ok());
  settle(seconds(5));

  const FileEntry* entry = namenode_->file_by_path("/f");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, FileState::kClosed);
  // The first block survives at 128 KiB on the two long replicas; the
  // straggler is gone. Because the block is short of a full block, the file
  // is truncated after it: the zero-durable tail is abandoned.
  ASSERT_EQ(entry->blocks.size(), 1u);
  EXPECT_EQ(entry->blocks[0], first.block);
  EXPECT_EQ(namenode_->uc_blocks_recovered(), 1u);
  EXPECT_EQ(namenode_->bytes_salvaged(), 128 * kKiB);
  EXPECT_EQ(namenode_->orphans_abandoned(), 1u);
  EXPECT_TRUE(replica_finalized(first.targets[0], first.block));
  EXPECT_TRUE(replica_finalized(first.targets[1], first.block));
  EXPECT_EQ(replica_bytes(first.targets[0], first.block), 128 * kKiB);
  EXPECT_EQ(replica_bytes(first.targets[1], first.block), 128 * kKiB);
  EXPECT_FALSE(
      resolve(first.targets[2])->block_store().has_replica(first.block));
}

TEST_F(UcRecoveryTest, CompleteByDeadWriterAfterRecoveryIsRejected) {
  const auto file = namenode_->create("/f", writer_);
  ASSERT_TRUE(file.ok());
  const LocatedBlock located = allocate_block(file.value());
  stream_packets(located, 2);
  ASSERT_TRUE(namenode_->start_lease_recovery(file.value()).ok());
  settle(seconds(5));
  ASSERT_EQ(namenode_->file_by_path("/f")->state, FileState::kClosed);
  // The original writer limps back and calls complete(): it must learn the
  // file was taken away, not be told its full upload landed.
  const auto completed = namenode_->complete(file.value(), writer_);
  ASSERT_FALSE(completed.ok());
  EXPECT_EQ(completed.error().code, "lease_expired");
}

TEST_F(UcRecoveryTest, CreateTakeoverOnSoftExpiredHolder) {
  const auto file = namenode_->create("/f", writer_);
  ASSERT_TRUE(file.ok());
  const LocatedBlock located = allocate_block(file.value());
  stream_packets(located, 2);

  const ClientId thief{8};
  // Before the soft limit the file is simply busy.
  const auto early = namenode_->create("/f", thief);
  ASSERT_FALSE(early.ok());
  EXPECT_EQ(early.error().code, "file_exists");

  // Past the soft limit (no renewals from the writer), a create() by a new
  // client forces lease recovery and reports it as retryable.
  settle(config_.lease_soft_limit + seconds(1));
  const auto takeover = namenode_->create("/f", thief);
  ASSERT_FALSE(takeover.ok());
  EXPECT_EQ(takeover.error().code, "recovery_in_progress");

  settle(seconds(5));  // recovery closes the file at its salvaged prefix
  ASSERT_EQ(namenode_->file_by_path("/f")->state, FileState::kClosed);
  EXPECT_EQ(namenode_->lease_expiries(), 1u);

  // The retry without overwrite hits the now-closed file; with overwrite
  // the new writer replaces it.
  EXPECT_EQ(namenode_->create("/f", thief).error().code, "file_exists");
  const auto replaced = namenode_->create("/f", thief, /*overwrite=*/true);
  ASSERT_TRUE(replaced.ok());
  EXPECT_NE(replaced.value(), file.value());
  EXPECT_EQ(namenode_->file_by_path("/f")->state,
            FileState::kUnderConstruction);
}

TEST_F(UcRecoveryTest, LeaseMonitorRecoversUnprompted) {
  const auto file = namenode_->create("/f", writer_);
  ASSERT_TRUE(file.ok());
  const LocatedBlock located = allocate_block(file.value());
  stream_packets(located, 2);

  // Nobody calls start_lease_recovery: the writer just stops renewing. The
  // monitor must notice past the hard limit and close the file on its own.
  settle(config_.lease_hard_limit + config_.lease_monitor_interval +
         seconds(5));
  const FileEntry* entry = namenode_->file_by_path("/f");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->state, FileState::kClosed);
  EXPECT_EQ(namenode_->lease_expiries(), 1u);
  // All three replicas were open at 128 KiB: the minimum durable length is
  // the full common prefix.
  EXPECT_EQ(namenode_->bytes_salvaged(), 128 * kKiB);
}

}  // namespace
}  // namespace smarth::hdfs
