// Experiment reporting: per-upload observations, HDFS-vs-SMARTH comparison
// rows, and table renderers that print the same series the paper's figures
// plot (upload seconds per configuration, plus improvement percentages).
#pragma once

#include <string>
#include <vector>

#include "common/table.hpp"
#include "common/units.hpp"
#include "hdfs/output_stream.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::metrics {

/// One run of one protocol in one configuration.
struct UploadObservation {
  std::string scenario;   ///< e.g. "small/throttle=50Mbps"
  std::string protocol;   ///< "HDFS" or "SMARTH"
  hdfs::StreamStats stats;

  double seconds() const { return to_seconds(stats.elapsed()); }
  double throughput_mbps() const { return stats.throughput().mbps(); }
};

/// A paired HDFS/SMARTH measurement of one configuration.
struct ComparisonRow {
  std::string scenario;
  double hdfs_seconds = 0.0;
  double smarth_seconds = 0.0;

  /// The paper's improvement metric: hdfs/smarth - 1, in percent.
  double improvement_percent() const {
    return (hdfs_seconds / smarth_seconds - 1.0) * 100.0;
  }
};

/// Renders rows as the paper's figure series: scenario, both times, the
/// improvement. `x_label` names the swept parameter column.
std::string render_comparison_table(const std::string& x_label,
                                    const std::vector<ComparisonRow>& rows);

/// Renders raw observations (one row per upload).
std::string render_observations(const std::vector<UploadObservation>& rows);

/// CSV forms for downstream plotting.
std::string comparison_csv(const std::string& x_label,
                           const std::vector<ComparisonRow>& rows);

/// Renders the robustness table of a fault/chaos run from its metrics
/// registry: one row per entry of a fixed (label, metric) list, in a fixed
/// order. A metric the run never touched renders as 0; the namenode
/// downtime rows appear only when an outage completed. Every row is a plain
/// registry read, so a seed sweep's merged registry renders the same way
/// one run's does.
std::string render_robustness(const Registry& registry);

}  // namespace smarth::metrics
