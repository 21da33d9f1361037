// The SMARTH client write path (paper §III-A): asynchronous multi-pipeline
// uploads. The client streams a block to the pipeline's first datanode; when
// that node confirms full receipt with an FNFA, the client immediately
// requests the next block and opens a new pipeline while the previous
// pipelines keep replicating and acking in the background. The pipeline
// fan-out is bounded by the buffer-overflow guard (§IV-C): a datanode serves
// at most one of this client's pipelines at a time, which caps concurrency at
// |datanodes| / replication. Failures are handled per Algorithm 4.
#pragma once

#include <set>
#include <vector>

#include "hdfs/output_stream.hpp"
#include "smarth/speed_tracker.hpp"

namespace smarth::core {

class SmarthOutputStream : public hdfs::OutputStreamBase {
 public:
  SmarthOutputStream(hdfs::StreamDeps deps, ClientId client,
                     NodeId client_node, FileId file, Bytes file_size,
                     SpeedTracker& tracker, DoneCallback on_done);

  // --- AckSink ---------------------------------------------------------------
  void deliver_ack(const hdfs::PipelineAck& ack) override;
  void deliver_setup_ack(const hdfs::SetupAck& ack) override;
  void deliver_fnfa(const hdfs::FnfaMessage& fnfa) override;

  // --- Introspection ----------------------------------------------------------
  std::uint64_t fnfa_received() const { return fnfa_received_; }
  std::uint64_t slot_waits() const { return slot_waits_; }

 protected:
  bool production_window_open() const override;
  void on_packet_produced() override;
  void begin_protocol() override;
  void on_pipeline_error(hdfs::ClientPipeline& pipeline,
                         int error_index) override;

 private:
  /// Requests the next block + pipeline, excluding datanodes already serving
  /// an active pipeline of this client (the overflow guard).
  void advance_block();
  /// Sends pending packets of every ready pipeline (the streaming one plus
  /// any recovered pipeline re-transmitting its backlog).
  void pump_stream();
  std::vector<NodeId> active_pipeline_nodes() const;
  void on_pipeline_complete(PipelineId id);
  void maybe_complete();
  /// Algorithm 4's error-pipeline-set drain: one recovery at a time.
  void recover_next_error_pipeline();
  void resume_recovered_pipeline(PipelineId old_id,
                                 std::vector<NodeId> targets,
                                 Bytes sync_offset);

  SpeedTracker& tracker_;

  std::int64_t next_block_ = 0;    ///< next block index to dispatch
  PipelineId streaming_;           ///< pipeline the fresh data flows into
  bool awaiting_block_ = false;
  bool waiting_for_slot_ = false;  ///< addBlock refused: all nodes busy
  /// Alg. 4 state: failed pipelines awaiting recovery; while non-empty the
  /// current block transfer is paused.
  std::set<PipelineId> error_pipelines_;
  std::unordered_map<PipelineId, int> pipeline_error_index_;
  bool recovery_running_ = false;

  std::uint64_t fnfa_received_ = 0;
  std::uint64_t slot_waits_ = 0;
};

}  // namespace smarth::core
