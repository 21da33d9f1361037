// Fault-tolerance integration tests: datanode crashes and checksum
// corruption during uploads. Both protocols share one recovery path (paper
// Alg. 3 run over Alg. 4's error-pipeline set), so every case runs for both.
// Every test verifies not just completion but durability: the file ends
// fully replicated on the survivors.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "hdfs/namenode.hpp"
#include "workload/fault_plan.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

constexpr Protocol kProtocols[] = {Protocol::kHdfs, Protocol::kSmarth};

cluster::ClusterSpec spec_with_small_blocks(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  // Faster failure detection keeps the tests quick without changing the
  // recovery logic under test.
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.datanode_dead_interval = seconds(10);
  return spec;
}

/// Finds which datanode is first in the pipeline of the file's first block
/// after the upload started (requires the simulation to have run).
int first_pipeline_head(Cluster& cluster, const std::string& path) {
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path(path);
  if (entry == nullptr || entry->blocks.empty()) return -1;
  const hdfs::BlockRecord* record = cluster.namenode().block(entry->blocks[0]);
  if (record == nullptr || record->expected_targets.empty()) return -1;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (cluster.datanode_id(i) == record->expected_targets[0]) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

/// Counts finalized replicas of every block of the file.
int min_finalized_replicas(Cluster& cluster, const std::string& path) {
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path(path);
  if (entry == nullptr) return 0;
  int min_replicas = 1 << 20;
  for (BlockId block : entry->blocks) {
    int n = 0;
    for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
      const auto replica = cluster.datanode(i).block_store().replica(block);
      if (replica.ok() &&
          replica.value().state == storage::ReplicaState::kFinalized) {
        ++n;
      }
    }
    min_replicas = std::min(min_replicas, n);
  }
  return min_replicas;
}

TEST(FaultTolerance, CrashMidUploadRecovers) {
  for (Protocol protocol : kProtocols) {
    for (std::size_t crash_index : {0u, 4u, 8u}) {
      Cluster cluster(spec_with_small_blocks());
      // Crash one datanode two (simulated) seconds into the upload; whichever
      // pipelines it serves must recover.
      cluster.crash_datanode_at(crash_index, seconds(2));
      const auto stats = cluster.run_upload("/data/a.bin", 24 * kMiB, protocol);
      ASSERT_FALSE(stats.failed)
          << cluster::protocol_name(protocol) << " crash_index=" << crash_index
          << ": " << stats.failure_reason;
      cluster.sim().run_until(cluster.sim().now() + seconds(2));
      // Every block still has at least replication-1 finalized replicas (the
      // crashed node may have been replaced or dropped).
      EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2)
          << cluster::protocol_name(protocol) << " crash_index="
          << crash_index;
    }
  }
}

TEST(FaultTolerance, CrashMidThrottledUploadRecovers) {
  for (Protocol protocol : kProtocols) {
    for (std::size_t crash_index : {1u, 5u, 7u}) {
      Cluster cluster(spec_with_small_blocks());
      cluster.throttle_cross_rack(Bandwidth::mbps(40));  // keep pipelines busy
      cluster.crash_datanode_at(crash_index, seconds(2));
      const auto stats = cluster.run_upload("/data/a.bin", 24 * kMiB, protocol);
      ASSERT_FALSE(stats.failed)
          << cluster::protocol_name(protocol) << " crash_index=" << crash_index
          << ": " << stats.failure_reason;
      cluster.sim().run_until(cluster.sim().now() + seconds(2));
      EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2)
          << cluster::protocol_name(protocol) << " crash_index="
          << crash_index;
    }
  }
}

TEST(FaultTolerance, RecoveryCountReported) {
  for (Protocol protocol : kProtocols) {
    Cluster cluster(spec_with_small_blocks());
    // Crash the head of the first block's pipeline while it is streaming, so
    // a recovery is guaranteed to run (a random node might never be used).
    hdfs::StreamStats stats;
    bool done = false;
    cluster.upload("/data/a.bin", 24 * kMiB, protocol,
                   [&](const hdfs::StreamStats& s) {
                     stats = s;
                     done = true;
                   });
    cluster.sim().run_until(milliseconds(300));
    const int head = first_pipeline_head(cluster, "/data/a.bin");
    ASSERT_GE(head, 0) << cluster::protocol_name(protocol);
    cluster.datanode(static_cast<std::size_t>(head)).crash();
    while (!done) {
      ASSERT_TRUE(
          cluster.sim().run_until(cluster.sim().now() + milliseconds(250)));
      ASSERT_LT(cluster.sim().now(), seconds(10'000));
    }
    ASSERT_FALSE(stats.failed)
        << cluster::protocol_name(protocol) << ": " << stats.failure_reason;
    EXPECT_GE(stats.recoveries, 1) << cluster::protocol_name(protocol);
  }
}

TEST(FaultTolerance, ChecksumErrorTriggersRecovery) {
  for (Protocol protocol : kProtocols) {
    Cluster cluster(spec_with_small_blocks());
    // The 10th packet arriving at node 3 fails verification (wherever node 3
    // sits in a pipeline); the client must replace/resync and finish.
    cluster.datanode(3).inject_checksum_error_on_nth_packet(10);
    const auto stats = cluster.run_upload("/data/a.bin", 16 * kMiB, protocol);
    ASSERT_FALSE(stats.failed)
        << cluster::protocol_name(protocol) << ": " << stats.failure_reason;
    cluster.sim().run_until(cluster.sim().now() + seconds(2));
    EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2)
        << cluster::protocol_name(protocol);
  }
}

TEST(FaultTolerance, ChecksumErrorOnMirrorRecovers) {
  for (Protocol protocol : kProtocols) {
    Cluster cluster(spec_with_small_blocks());
    cluster.datanode(6).inject_checksum_error_on_nth_packet(5);
    const auto stats = cluster.run_upload("/data/a.bin", 16 * kMiB, protocol);
    ASSERT_FALSE(stats.failed)
        << cluster::protocol_name(protocol) << ": " << stats.failure_reason;
    cluster.sim().run_until(cluster.sim().now() + seconds(2));
    EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2)
        << cluster::protocol_name(protocol);
  }
}

TEST(FaultTolerance, UploadFailsWhenAllReplicasDie) {
  for (Protocol protocol : kProtocols) {
    Cluster cluster(spec_with_small_blocks());
    // Kill every datanode early; no recovery can succeed. (SMARTH finishes
    // this upload in just under 1 s, so the crash lands at 0.5 s.)
    workload::FaultPlan plan;
    for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
      plan.crash(i, milliseconds(500));
    }
    plan.apply(cluster);
    const auto stats = cluster.run_upload("/data/a.bin", 24 * kMiB, protocol);
    EXPECT_TRUE(stats.failed) << cluster::protocol_name(protocol);
  }
}

TEST(FaultTolerance, CrashOfPipelineHeadRecovers) {
  for (Protocol protocol : kProtocols) {
    Cluster cluster(spec_with_small_blocks());
    cluster.throttle_cross_rack(Bandwidth::mbps(40));
    // Let the upload place its first block, then kill that pipeline's head —
    // the node the client is actively streaming to.
    cluster.upload("/data/a.bin", 24 * kMiB, protocol,
                   [](const hdfs::StreamStats&) {});
    cluster.sim().run_until(seconds(1));
    const int head = first_pipeline_head(cluster, "/data/a.bin");
    ASSERT_GE(head, 0) << cluster::protocol_name(protocol);
    cluster.datanode(static_cast<std::size_t>(head)).crash();
    // Drive to completion.
    const hdfs::FileEntry* entry =
        cluster.namenode().file_by_path("/data/a.bin");
    ASSERT_NE(entry, nullptr) << cluster::protocol_name(protocol);
    for (int i = 0; i < 600 && entry->state != hdfs::FileState::kClosed; ++i) {
      cluster.sim().run_until(cluster.sim().now() + milliseconds(200));
    }
    EXPECT_EQ(entry->state, hdfs::FileState::kClosed)
        << cluster::protocol_name(protocol);
    EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2)
        << cluster::protocol_name(protocol);
  }
}

TEST(FaultTolerance, MultipleCrashesAcrossUpload) {
  for (Protocol protocol : kProtocols) {
    Cluster cluster(spec_with_small_blocks());
    cluster.throttle_cross_rack(Bandwidth::mbps(40));
    workload::FaultPlan plan;
    plan.crash(0, seconds(2)).crash(5, seconds(6));
    plan.apply(cluster);
    const auto stats = cluster.run_upload("/data/a.bin", 32 * kMiB, protocol);
    ASSERT_FALSE(stats.failed)
        << cluster::protocol_name(protocol) << ": " << stats.failure_reason;
    cluster.sim().run_until(cluster.sim().now() + seconds(2));
    EXPECT_GE(min_finalized_replicas(cluster, "/data/a.bin"), 2)
        << cluster::protocol_name(protocol);
  }
}

TEST(FaultTolerance, DeadNodeExcludedFromLaterPlacement) {
  for (Protocol protocol : kProtocols) {
    Cluster cluster(spec_with_small_blocks());
    cluster.crash_datanode_at(4, seconds(1));
    const auto stats = cluster.run_upload("/data/a.bin", 32 * kMiB, protocol);
    ASSERT_FALSE(stats.failed) << cluster::protocol_name(protocol);
    // Blocks allocated well after the dead-node interval must avoid node 4.
    const hdfs::FileEntry* entry =
        cluster.namenode().file_by_path("/data/a.bin");
    ASSERT_NE(entry, nullptr) << cluster::protocol_name(protocol);
    const hdfs::BlockRecord* last_block =
        cluster.namenode().block(entry->blocks.back());
    ASSERT_NE(last_block, nullptr) << cluster::protocol_name(protocol);
    for (NodeId target : last_block->expected_targets) {
      EXPECT_NE(target, cluster.datanode_id(4))
          << cluster::protocol_name(protocol);
    }
  }
}

TEST(FaultTolerance, RecoveredUploadSlowerThanCleanRun) {
  // Recovery is not free: the faulted run must take longer than a clean one
  // on the same cluster/seed, and both must finish.
  for (Protocol protocol : kProtocols) {
    cluster::ClusterSpec spec = spec_with_small_blocks();
    Cluster clean(spec);
    const auto clean_stats = clean.run_upload("/data/a.bin", 24 * kMiB, protocol);
    Cluster faulted(spec);
    faulted.crash_datanode_at(1, seconds(2));
    const auto faulted_stats =
        faulted.run_upload("/data/a.bin", 24 * kMiB, protocol);
    ASSERT_FALSE(clean_stats.failed) << cluster::protocol_name(protocol);
    ASSERT_FALSE(faulted_stats.failed) << cluster::protocol_name(protocol);
    if (faulted_stats.recoveries > 0) {
      EXPECT_GT(faulted_stats.elapsed(), clean_stats.elapsed())
          << cluster::protocol_name(protocol);
    }
  }
}

}  // namespace
}  // namespace smarth
