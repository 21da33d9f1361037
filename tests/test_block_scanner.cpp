// Block-scanner tests: the background scrubber walks finalized replicas at
// its configured byte budget, detects planted at-rest rot, reports it to the
// namenode (quarantine + invalidation), pauses while the node is crashed and
// resumes after restart, and stays disabled when the budget is zero.
#include <gtest/gtest.h>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "hdfs/datanode.hpp"
#include "hdfs/namenode.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

using cluster::Cluster;
using cluster::Protocol;

// Scrub and repair totals are read from the thread's metrics registry; each
// test resets it before building its cluster (which caches references).
std::uint64_t count(const char* name) {
  return metrics::global_registry().counter_value(name);
}

cluster::ClusterSpec scanner_spec(Bytes scan_rate, std::uint64_t seed = 42) {
  cluster::ClusterSpec spec = cluster::small_cluster(seed);
  spec.hdfs.block_size = 4 * kMiB;
  spec.hdfs.ack_timeout = seconds(2);
  spec.hdfs.scanner_bytes_per_second = scan_rate;
  return spec;
}

void upload_and_settle(Cluster& cluster, const std::string& path, Bytes size) {
  const auto stats = cluster.run_upload(path, size, Protocol::kSmarth);
  ASSERT_FALSE(stats.failed) << stats.failure_reason;
  cluster.sim().run_until(cluster.sim().now() + seconds(2));
}

/// First datanode holding at least one finalized replica.
std::size_t holder_index(Cluster& cluster) {
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (cluster.datanode(i).block_store().finalized_count() > 0) return i;
  }
  return cluster.datanode_count();
}

/// First finalized block held by datanode `index`, or an invalid id.
BlockId first_finalized_block(Cluster& cluster, std::size_t index) {
  for (const auto& replica :
       cluster.datanode(index).block_store().all_replicas()) {
    if (replica.state == storage::ReplicaState::kFinalized) {
      return replica.block;
    }
  }
  return BlockId{-1};
}

TEST(BlockScanner, DisabledWhenBudgetZero) {
  metrics::global_registry().reset();
  Cluster cluster(scanner_spec(/*scan_rate=*/0));
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  cluster.sim().run_until(cluster.sim().now() + seconds(30));
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    EXPECT_FALSE(cluster.datanode(i).scanner().running());
    EXPECT_EQ(cluster.datanode(i).scanner().chunks_scanned(), 0u);
  }
  EXPECT_EQ(count("scanner.bytes_scanned"), 0u);
}

TEST(BlockScanner, CompletesPassesOverEveryFinalizedChunk) {
  metrics::global_registry().reset();
  Cluster cluster(scanner_spec(/*scan_rate=*/64 * kMiB));
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  cluster.sim().run_until(cluster.sim().now() + seconds(10));
  Bytes stored_total = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    const hdfs::BlockScanner& scanner = cluster.datanode(i).scanner();
    EXPECT_TRUE(scanner.running());
    if (cluster.datanode(i).block_store().finalized_count() == 0) continue;
    EXPECT_GE(scanner.scan_passes(), 1u) << "datanode " << i;
    std::uint64_t chunks = 0;
    for (const auto& replica :
         cluster.datanode(i).block_store().all_replicas()) {
      stored_total += replica.bytes;
      chunks += cluster.datanode(i).block_store().chunk_count(replica.block);
    }
    // A full pass read every stored chunk on this node at least once.
    EXPECT_GE(scanner.chunks_scanned(), chunks) << "datanode " << i;
    EXPECT_GT(scanner.chunks_scanned(), 0u) << "datanode " << i;
  }
  EXPECT_GE(count("scanner.bytes_scanned"),
            static_cast<std::uint64_t>(stored_total));
  EXPECT_EQ(count("scanner.rot_detected"), 0u);
}

TEST(BlockScanner, BudgetBoundsScrubRate) {
  const Bytes rate = 1 * kMiB;
  Cluster cluster(scanner_spec(rate));
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  const std::size_t dn = holder_index(cluster);
  ASSERT_LT(dn, cluster.datanode_count());
  const SimTime from = cluster.sim().now();
  const std::uint64_t before = cluster.datanode(dn).scanner().chunks_scanned();
  cluster.sim().run_until(from + seconds(10));
  // Every replica is a whole 4 MiB block, so every chunk is full-size and
  // chunks scanned times the chunk size is exactly the bytes scrubbed.
  const Bytes chunk = hdfs::kChecksumChunkSize;
  const Bytes scanned = static_cast<Bytes>(
      cluster.datanode(dn).scanner().chunks_scanned() - before) * chunk;
  // Never more than the budget allows over the window (one chunk of slack
  // for a read already in flight when the window opened).
  EXPECT_LE(scanned, rate * 10 + chunk);
  EXPECT_GT(scanned, 0u);
}

TEST(BlockScanner, DetectsReportsAndTriggersInvalidation) {
  metrics::global_registry().reset();
  Cluster cluster(scanner_spec(/*scan_rate=*/64 * kMiB));
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  const std::size_t dn = holder_index(cluster);
  ASSERT_LT(dn, cluster.datanode_count());
  const BlockId victim = first_finalized_block(cluster, dn);
  ASSERT_TRUE(victim.valid());
  ASSERT_TRUE(cluster.datanode(dn).rot_replica_chunk(victim, 0).ok());
  ASSERT_EQ(cluster.datanode(dn).block_store().chunks_rotted(), 1u);

  cluster.sim().run_until(cluster.sim().now() + seconds(10));
  // Only `dn` holds a rotted chunk, so every detection and invalidation
  // counted happened there.
  EXPECT_GE(count("scanner.rot_detected"), 1u);
  EXPECT_GE(count("namenode.bad_replica_reports"), 1u);
  EXPECT_GE(cluster.namenode().invalidations_issued(), 1u);
  // The invalidation executor dropped the rotted replica from the store.
  EXPECT_GE(count("datanode.replicas_invalidated"), 1u);
  EXPECT_FALSE(cluster.datanode(dn).block_store().replica(victim).ok());
}

TEST(BlockScanner, PausesWhileCrashedAndResumesAfterRestart) {
  Cluster cluster(scanner_spec(/*scan_rate=*/8 * kMiB));
  upload_and_settle(cluster, "/data/a.bin", 8 * kMiB);
  const std::size_t dn = holder_index(cluster);
  ASSERT_LT(dn, cluster.datanode_count());
  ASSERT_TRUE(cluster.datanode(dn).scanner().running());

  cluster.datanode(dn).crash();
  EXPECT_FALSE(cluster.datanode(dn).scanner().running());
  const std::uint64_t at_crash =
      cluster.datanode(dn).scanner().chunks_scanned();
  cluster.sim().run_until(cluster.sim().now() + seconds(5));
  EXPECT_EQ(cluster.datanode(dn).scanner().chunks_scanned(), at_crash);

  cluster.datanode(dn).restart();
  EXPECT_TRUE(cluster.datanode(dn).scanner().running());
  cluster.sim().run_until(cluster.sim().now() + seconds(5));
  EXPECT_GT(cluster.datanode(dn).scanner().chunks_scanned(), at_crash);
}

}  // namespace
}  // namespace smarth
