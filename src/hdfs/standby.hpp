// Warm standby namenode: a second Namenode instance that bootstraps from the
// active's fsimage and tails the shared edit log with bounded lag (HDFS's
// standby-reading-the-shared-journal arrangement, QJM collapsed into the
// always-durable in-sim log). It runs no monitors and issues no commands; its
// sole job is to hold a near-current namespace so failover replays only the
// ops its tailer has not yet consumed — strictly fewer than a cold restart's.
#pragma once

#include <cstdint>
#include <memory>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hdfs/fsimage.hpp"
#include "hdfs/namenode.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {

class EditLog;

/// Cadence at which the standby tails the edit log (its lag bound).
inline constexpr SimDuration kStandbyTailInterval = milliseconds(500);

class StandbyNamenode {
 public:
  /// `node` is only an identity for the inner Namenode (the standby neither
  /// sends nor receives RPCs until promoted); `log` is the shared journal.
  StandbyNamenode(sim::Simulation& sim, const net::Topology& topology,
                  const HdfsConfig& config, NodeId node, const EditLog& log);

  /// Seeds the standby's namespace (typically the active's current image)
  /// and records which txids are already folded in.
  void bootstrap(const NamenodeImage& image, std::int64_t applied_txid);

  /// Starts/stops the periodic tailer (every kStandbyTailInterval).
  void start();
  void stop();

  /// Catches up to the log's head immediately (used at failover, so the
  /// promotion delay covers only genuinely-unseen ops).
  void catch_up();

  std::int64_t applied_txid() const { return applied_txid_; }
  std::uint64_t ops_applied() const { return ops_applied_; }

  /// The standby's namespace as a failover-ready image (last_txid stamped
  /// with the tailer's position).
  NamenodeImage image() const;
  const Namenode& nn() const { return nn_; }

 private:
  Namenode nn_;
  const EditLog& log_;
  std::int64_t applied_txid_ = 0;
  std::uint64_t ops_applied_ = 0;
  std::unique_ptr<sim::PeriodicTask> task_;
};

}  // namespace smarth::hdfs
