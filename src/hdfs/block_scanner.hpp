// Background block scanner: each datanode scrubs its finalized replicas at a
// configurable byte-rate budget, re-reading chunks through the node's shared
// disk (so scrub I/O contends with foreground pipeline and read traffic) and
// verifying their CRC32C records. Rot found at rest is reported to the
// namenode via report_bad_replica, which quarantines the replica, invalidates
// it on this node and queues the block for re-replication from a good copy.
// This is the simulator's analogue of HDFS's DataBlockScanner / VolumeScanner.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <set>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hdfs/types.hpp"
#include "sim/periodic_task.hpp"
#include "sim/simulation.hpp"
#include "storage/block_store.hpp"
#include "storage/disk.hpp"

namespace smarth::hdfs {

class BlockScanner {
 public:
  /// `report_bad_replica(block)` is invoked (at most once per block per scan
  /// pass) when a chunk fails verification; the datanode wires it to the
  /// namenode RPC.
  BlockScanner(sim::Simulation& sim, storage::DiskDevice& disk,
               const storage::BlockStore& store, const HdfsConfig& config,
               std::function<void(BlockId)> report_bad_replica);

  /// Starts periodic scrubbing (no-op when the configured budget is 0).
  void start();
  /// Stops scrubbing and invalidates in-flight disk callbacks (used when the
  /// node crashes; disk reads cannot be revoked, only ignored).
  void stop();
  bool running() const { return running_; }

  std::uint64_t chunks_scanned() const { return chunks_scanned_; }
  std::uint64_t scan_passes() const { return scan_passes_; }

 private:
  struct Cursor {
    std::int64_t block = 0;  // BlockId value
    std::size_t chunk = 0;
  };

  void tick();
  /// Scans the next chunk at/after the cursor, budget permitting, then
  /// re-chains itself from the disk callback.
  void scan_next();
  /// Finds the next finalized (block, chunk) at/after the cursor; false when
  /// the pass is over (cursor then wraps).
  bool next_target(Cursor& out) const;

  sim::Simulation& sim_;
  storage::DiskDevice& disk_;
  const storage::BlockStore& store_;
  const HdfsConfig& config_;
  std::function<void(BlockId)> report_bad_replica_;

  std::unique_ptr<sim::PeriodicTask> task_;
  bool running_ = false;
  bool scanning_ = false;   ///< a disk read is in flight
  std::uint64_t epoch_ = 0; ///< bumped on stop() to orphan in-flight reads
  Bytes budget_ = 0;        ///< bytes this tick may still scrub
  Cursor cursor_;
  /// Blocks already reported this pass; pruned when the pass wraps so a
  /// replica that somehow survives invalidation is re-reported.
  std::set<std::int64_t> reported_;

  Bytes bytes_scanned_ = 0;  ///< reported on the pass-complete trace instant
  std::uint64_t chunks_scanned_ = 0;
  std::uint64_t scan_passes_ = 0;
};

}  // namespace smarth::hdfs
