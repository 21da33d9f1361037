// Namenode-side suspicion list for gray failures. Quarantine (quarantine.hpp)
// is a binary, client-local verdict reached after a pipeline actually broke;
// suspicion is the namenode's graded, cluster-wide memory of *slowness*
// evidence that never broke anything: write-pipeline eviction reports and
// hedged-read wins. Each report adds a weight to the datanode's score; scores
// decay exponentially (halving every half-life), so a node that stops
// generating evidence — because it genuinely sped back up — recovers on its
// own. Nodes at or above the threshold are demoted (never excluded) in
// placement ordering and in SMARTH's top-n fast-node selection.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace smarth::hdfs {

/// Score a write-pipeline slow-node eviction report adds to its datanode.
inline constexpr double kSuspicionEvictionWeight = 2.0;
/// Score a decisive hedged-read win adds to the losing replica's datanode.
inline constexpr double kSuspicionHedgeWeight = 1.0;
/// Scores halve every half-life; a node whose decayed score is at or above
/// the threshold is demoted in placement and SMARTH top-n selection. Decay
/// is the recovery path: a node that speeds back up stops accruing reports
/// and drops below the threshold within a few half-lives.
inline constexpr SimDuration kSuspicionHalfLife = seconds(30);
inline constexpr double kSuspicionThreshold = 2.0;

class SuspicionList {
 public:
  explicit SuspicionList(SimDuration half_life = kSuspicionHalfLife,
                         double threshold = kSuspicionThreshold)
      : half_life_(half_life), threshold_(threshold) {}

  /// Adds `weight` to the node's decayed score at time `now`.
  void report(NodeId node, double weight, SimTime now);

  /// The node's score decayed to `now` (0 when it was never reported).
  double score(NodeId node, SimTime now) const;

  /// True when the decayed score is at or above the demotion threshold.
  bool suspect(NodeId node, SimTime now) const;

  /// All nodes currently at or above the threshold, ascending by NodeId so
  /// callers see a deterministic order.
  std::vector<NodeId> suspects(SimTime now) const;

  /// Forgets the node entirely (e.g. fresh speed evidence cleared it).
  void clear(NodeId node) { entries_.erase(node.value()); }

  std::uint64_t reports() const { return reports_; }

 private:
  struct Entry {
    double score = 0.0;
    SimTime updated_at = 0;
  };
  double decayed(const Entry& entry, SimTime now) const;

  SimDuration half_life_;
  double threshold_;
  std::unordered_map<std::int64_t, Entry> entries_;  ///< NodeId -> score
  std::uint64_t reports_ = 0;
};

}  // namespace smarth::hdfs
