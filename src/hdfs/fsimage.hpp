// Point-in-time snapshot of the namenode's durable state (the fsimage) plus
// the periodic checkpointer that captures one and truncates the edit log
// behind it. Restart cost is then O(ops since last checkpoint), not O(ops
// since cluster start).
//
// The image deliberately excludes BlockRecord::reported — replica locations
// are volatile soft state in HDFS, rebuilt from block reports after restart —
// and all purely telemetric counters (heartbeats, re-registrations, ...),
// which describe the process, not the namespace.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hdfs/namenode.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {

class EditLog;

/// Durable view of one block: everything in BlockRecord except the volatile
/// `reported` replica map.
struct BlockImage {
  BlockId id;
  FileId file;
  std::vector<NodeId> expected_targets;
  std::vector<NodeId> corrupt_replicas;  ///< sorted

  friend bool operator==(const BlockImage&, const BlockImage&) = default;
};

/// One UC block awaiting commitBlockSynchronization inside a lease recovery.
struct UcPendingImage {
  BlockId block;
  SimTime retry_at = 0;
  int attempts = 0;

  friend bool operator==(const UcPendingImage&, const UcPendingImage&) =
      default;
};

/// One in-flight lease recovery (so a restart resumes, not restarts, it).
struct RecoveryImage {
  FileId file;
  SimTime started_at = 0;
  std::vector<UcPendingImage> pending;  ///< sorted by block id

  friend bool operator==(const RecoveryImage&, const RecoveryImage&) = default;
};

/// The whole checkpoint. Collections are sorted by id so operator== is a
/// semantic state comparison — the replay-equivalence property test compares
/// a live namenode's image against a replayed one's.
struct NamenodeImage {
  /// Last edit-log txid folded into this image; restart replays txids above.
  std::int64_t last_txid = 0;

  std::vector<FileEntry> files;     ///< sorted by file id
  std::vector<BlockImage> blocks;   ///< sorted by block id
  std::vector<LeaseImage> leases;   ///< sorted by holder
  std::vector<RecoveryImage> recoveries;  ///< sorted by file id

  /// Id generator high-water marks (an id must never be reissued).
  std::int64_t file_ids_issued = 0;
  std::int64_t block_ids_issued = 0;

  /// Durable outcome counters (reports must survive a control-plane bounce).
  std::uint64_t lease_expiries = 0;
  std::uint64_t uc_blocks_recovered = 0;
  Bytes bytes_salvaged = 0;
  std::uint64_t orphans_abandoned = 0;

  friend bool operator==(const NamenodeImage&, const NamenodeImage&) = default;

  /// JSON object (CI artifact companion to EditLog::to_json).
  std::string to_json() const;
};

/// Periodically snapshots the namenode and truncates the edit log through the
/// snapshot's txid. When a standby is tailing the log, its applied txid is
/// registered as a truncation floor so checkpointing never drops ops the
/// standby has not yet consumed.
class FsImageCheckpointer {
 public:
  FsImageCheckpointer(sim::Simulation& sim, Namenode& namenode, EditLog& log,
                      SimDuration interval);

  void start();
  void stop();

  /// Captures an image now (also invoked by the periodic task). Skipped while
  /// the namenode is crashed: the checkpointer is part of its process.
  void checkpoint_now();

  /// Most recent checkpoint; a default image (txid 0 => replay everything)
  /// before the first one.
  const NamenodeImage& latest() const { return image_; }

  /// Registers an extra truncation floor (e.g. the standby's applied txid).
  void set_truncate_floor(std::function<std::int64_t()> floor) {
    truncate_floor_ = std::move(floor);
  }

 private:
  sim::Simulation& sim_;
  Namenode& namenode_;
  EditLog& log_;
  SimDuration interval_;
  NamenodeImage image_;
  std::function<std::int64_t()> truncate_floor_;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace smarth::hdfs
