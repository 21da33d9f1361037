// Multi-file / multi-client upload workloads: a list of (path, size, start
// time, client) jobs scheduled against one cluster, with collected results.
// The single-file paper experiments are the degenerate one-job case; the
// examples and tests also exercise staggered and concurrent uploads.
#pragma once

#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "hdfs/output_stream.hpp"

namespace smarth::workload {

struct UploadJob {
  std::string path;
  Bytes size = 0;
  SimDuration start_at = 0;
  std::size_t client_index = 0;
};

class UploadWorkload {
 public:
  explicit UploadWorkload(cluster::Protocol protocol)
      : protocol_(protocol) {}

  UploadWorkload& add(UploadJob job);
  UploadWorkload& add(const std::string& path, Bytes size,
                      SimDuration start_at = 0, std::size_t client_index = 0);

  /// Schedules every job on the cluster and runs the simulation until all
  /// uploads finish. Returns per-job stats in job order.
  std::vector<hdfs::StreamStats> run(cluster::Cluster& cluster);

 private:
  cluster::Protocol protocol_;
  std::vector<UploadJob> jobs_;
};

}  // namespace smarth::workload
