// The SMARTH client write path (paper §III-A): asynchronous multi-pipeline
// uploads. The client streams a block to the pipeline's first datanode; when
// that node confirms full receipt with an FNFA, the client immediately
// requests the next block and opens a new pipeline while the previous
// pipelines keep replicating and acking in the background. The pipeline
// fan-out is bounded by the buffer-overflow guard (§IV-C): a datanode serves
// at most one of this client's pipelines at a time, which caps concurrency at
// |datanodes| / replication. Failures are handled per Algorithm 4.
#pragma once

#include <vector>

#include "hdfs/output_stream.hpp"
#include "smarth/speed_tracker.hpp"

namespace smarth::core {

/// Adds SMARTH's scheduling rule to the shared write lifecycle: FNFA-paced
/// dispatch, the overflow-guard exclusions, slot waits and the local
/// optimizer's target order.
class SmarthOutputStream : public hdfs::OutputStreamBase {
 public:
  SmarthOutputStream(hdfs::StreamDeps deps, ClientId client,
                     NodeId client_node, FileId file, Bytes file_size,
                     SpeedTracker& tracker, DoneCallback on_done);

  // --- AckSink ---------------------------------------------------------------
  void deliver_fnfa(const hdfs::FnfaMessage& fnfa) override;

  // --- Introspection ----------------------------------------------------------
  std::uint64_t fnfa_received() const { return fnfa_received_; }
  std::uint64_t slot_waits() const { return slot_waits_; }

 protected:
  bool production_window_open() const override;
  /// Sends pending packets of every ready pipeline (the streaming one plus
  /// any recovered pipeline re-transmitting its backlog).
  void pump_stream() override;
  bool may_advance() override;
  bool requests_fnfa() const override { return true; }
  std::vector<NodeId> placement_exclusions() const override;
  bool wait_for_slot(const Error& refusal) override;
  void order_targets(std::vector<NodeId>& targets) override;

 private:
  SpeedTracker& tracker_;

  std::uint64_t fnfa_received_ = 0;
  std::uint64_t slot_waits_ = 0;
};

}  // namespace smarth::core
