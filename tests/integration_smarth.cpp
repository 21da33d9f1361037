// End-to-end tests of the SMARTH multi-pipeline protocol: FNFA-driven block
// advancement, pipeline concurrency and its cap, speed records reaching the
// namenode, the optimizers steering placement, and the headline property —
// SMARTH beating baseline HDFS when a pipeline hop is slow.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "hdfs/namenode.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

cluster::ClusterSpec small_spec(std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  return spec;
}

TEST(UploadSmarth, CompletesAndReplicates) {
  Cluster cluster(small_spec());
  const auto stats =
      cluster.run_upload("/data/a.bin", 12 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  EXPECT_EQ(stats.blocks, 3);
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  EXPECT_TRUE(cluster.file_fully_replicated("/data/a.bin"));
  EXPECT_EQ(cluster.total_finalized_replica_bytes(), 3 * 12 * kMiB);
}

TEST(UploadSmarth, PipelinesOverlapUnderThrottle) {
  Cluster cluster(small_spec());
  // Slow cross-rack replication makes old pipelines drain slowly while the
  // client keeps streaming new blocks: concurrency must exceed 1.
  cluster.throttle_cross_rack(Bandwidth::mbps(20));
  const auto stats =
      cluster.run_upload("/data/a.bin", 24 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  EXPECT_GT(stats.max_concurrent_pipelines, 1);
}

TEST(UploadSmarth, PipelineCapRespected) {
  Cluster cluster(small_spec());
  cluster.throttle_cross_rack(Bandwidth::mbps(10));
  const auto stats =
      cluster.run_upload("/data/a.bin", 48 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  // 9 datanodes / replication 3 = at most 3 concurrent pipelines.
  EXPECT_LE(stats.max_concurrent_pipelines, 3);
}

TEST(UploadSmarth, StagingNeverOverflowsWithGuard) {
  Cluster cluster(small_spec());
  cluster.mutable_config().staging_buffer_bytes = 4 * kMiB;  // = block size
  cluster.throttle_cross_rack(Bandwidth::mbps(10));
  const auto stats =
      cluster.run_upload("/data/a.bin", 24 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  const ClientId client = cluster.client().id();
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    EXPECT_EQ(cluster.datanode(i).staging_overflows(client), 0u)
        << "datanode " << i;
    EXPECT_LE(cluster.datanode(i).staging_high_water(client), 4 * kMiB);
  }
}

TEST(UploadSmarth, FnfaCountMatchesBlocks) {
  Cluster cluster(small_spec());
  const auto stats =
      cluster.run_upload("/data/a.bin", 16 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  std::uint64_t fnfa_total = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    fnfa_total += cluster.datanode(i).fnfa_sent();
  }
  EXPECT_EQ(fnfa_total, 4u);  // one FNFA per block
}

TEST(UploadSmarth, SpeedRecordsReachNamenode) {
  Cluster cluster(small_spec());
  const auto stats =
      cluster.run_upload("/data/big.bin", 40 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  EXPECT_TRUE(cluster.speed_tracker().has_records());
  // Heartbeats every 3 s carry the tracker's records; give one a chance to
  // fire after the upload finished.
  cluster.sim().run_until(cluster.sim().now() + hdfs::kHeartbeatInterval +
                          seconds(1));
  EXPECT_TRUE(
      cluster.namenode().speed_board().has_records(cluster.client().id()));
}

TEST(UploadSmarth, GlobalOptimizerAvoidsSlowFirstNode) {
  cluster::ClusterSpec spec = small_spec();
  spec.hdfs.smarth_local_opt = false;  // isolate the global optimizer
  Cluster cluster(spec);
  // Node 0 is crippled; after warm-up the namenode should stop handing it
  // out as a first datanode.
  cluster.throttle_datanode(0, Bandwidth::mbps(5));
  const auto stats =
      cluster.run_upload("/data/a.bin", 64 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed);
  // Count how often the slow node ended up first in the expected pipeline.
  const hdfs::FileEntry* entry = cluster.namenode().file_by_path("/data/a.bin");
  ASSERT_NE(entry, nullptr);
  int slow_first_late = 0;
  const std::size_t blocks = entry->blocks.size();
  for (std::size_t i = blocks / 2; i < blocks; ++i) {
    const hdfs::BlockRecord* record =
        cluster.namenode().block(entry->blocks[i]);
    ASSERT_NE(record, nullptr);
    if (record->expected_targets[0] == cluster.datanode_id(0)) {
      ++slow_first_late;
    }
  }
  // In the second half of the upload the optimizer has speed records; the
  // slow node must be rare (random policy would give it ~1/9 of the slots).
  EXPECT_LE(slow_first_late, 1);
}

TEST(UploadSmarth, BeatsHdfsUnderCrossRackThrottle) {
  cluster::ClusterSpec spec = small_spec();
  Cluster hdfs_cluster(spec);
  hdfs_cluster.throttle_cross_rack(Bandwidth::mbps(20));
  const auto hdfs_stats =
      hdfs_cluster.run_upload("/data/a.bin", 32 * kMiB, Protocol::kHdfs);

  Cluster smarth_cluster(spec);
  smarth_cluster.throttle_cross_rack(Bandwidth::mbps(20));
  const auto smarth_stats =
      smarth_cluster.run_upload("/data/a.bin", 32 * kMiB, Protocol::kSmarth);

  ASSERT_FALSE(hdfs_stats.failed);
  ASSERT_FALSE(smarth_stats.failed);
  // The headline result: multi-pipeline hides the slow cross-rack hop.
  EXPECT_LT(smarth_stats.elapsed(), hdfs_stats.elapsed());
}

TEST(UploadSmarth, ParityOnHealthyHomogeneousCluster) {
  cluster::ClusterSpec spec = small_spec();
  Cluster hdfs_cluster(spec);
  const auto hdfs_stats =
      hdfs_cluster.run_upload("/data/a.bin", 16 * kMiB, Protocol::kHdfs);
  Cluster smarth_cluster(spec);
  const auto smarth_stats =
      smarth_cluster.run_upload("/data/a.bin", 16 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(hdfs_stats.failed);
  ASSERT_FALSE(smarth_stats.failed);
  // Paper Figs. 5(a,c,e): no big gain without network asymmetry. Allow 30%.
  const double ratio = static_cast<double>(hdfs_stats.elapsed()) /
                       static_cast<double>(smarth_stats.elapsed());
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.4);
}

TEST(UploadSmarth, DeterministicAcrossRuns) {
  Cluster a(small_spec(9));
  Cluster b(small_spec(9));
  const auto sa = a.run_upload("/x", 12 * kMiB, Protocol::kSmarth);
  const auto sb = b.run_upload("/x", 12 * kMiB, Protocol::kSmarth);
  EXPECT_EQ(sa.elapsed(), sb.elapsed());
  EXPECT_EQ(a.sim().events_executed(), b.sim().events_executed());
}

TEST(UploadSmarth, MultipleSequentialFiles) {
  Cluster cluster(small_spec());
  const auto s1 = cluster.run_upload("/f1", 8 * kMiB, Protocol::kSmarth);
  const auto s2 = cluster.run_upload("/f2", 8 * kMiB, Protocol::kSmarth);
  ASSERT_FALSE(s1.failed);
  ASSERT_FALSE(s2.failed);
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
  EXPECT_TRUE(cluster.file_fully_replicated("/f1"));
  EXPECT_TRUE(cluster.file_fully_replicated("/f2"));
}

}  // namespace
}  // namespace smarth
