// Client-side write machinery shared by the baseline HDFS stream and the
// SMARTH multi-pipeline stream: packet production (the paper's Tc), block and
// packet geometry, and the whole pipeline lifecycle — block allocation, setup
// and data ACKs, failure recovery (Alg. 3 run over Alg. 4's error-pipeline
// set) and file completion. The concrete protocols differ only in how
// pipelines are scheduled — exactly the delta the paper proposes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hdfs/datanode.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/quarantine.hpp"
#include "hdfs/transport.hpp"
#include "hdfs/types.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::hdfs {

class BlockRecovery;

/// Cadence at which a client stream re-polls a namenode in safe mode.
inline constexpr SimDuration kSafeModeRetryInterval = seconds(1);

/// Everything a client-side stream needs from its environment.
struct StreamDeps {
  sim::Simulation& sim;
  Transport& transport;
  rpc::RpcBus& rpc;
  Namenode& namenode;
  const HdfsConfig& config;
  /// Per-client quarantine list (may be null in minimal test harnesses):
  /// recovery feeds failures into it; placement requests deprioritize its
  /// members.
  QuarantineList* quarantine = nullptr;
};

/// A packet produced by the client but not yet bound to a block id (binding
/// happens when it is handed to a pipeline).
struct ProducedPacket {
  std::int64_t block_index = 0;
  std::int64_t seq_in_block = 0;
  Bytes payload = 0;
  bool last_in_block = false;
};

/// Final statistics of one upload, consumed by the metrics layer.
struct StreamStats {
  ClientId client;
  Bytes file_size = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  std::int64_t blocks = 0;
  std::int64_t packets = 0;
  int pipelines_created = 0;
  int max_concurrent_pipelines = 0;
  int recoveries = 0;
  /// Mid-block pipeline rebuilds triggered by the slow-node detector rather
  /// than a failure (subset of `recoveries`).
  int slow_evictions = 0;
  bool failed = false;
  std::string failure_reason;

  // --- fault/robustness accounting -----------------------------------------
  std::uint64_t rpc_retries = 0;   ///< control-plane attempts beyond the first
  int quarantine_events = 0;       ///< datanodes this stream quarantined
  int under_replication_events = 0;  ///< recoveries that reduced replication

  SimDuration elapsed() const { return finished_at - started_at; }
  Bandwidth throughput() const { return throughput_of(file_size, elapsed()); }
};

/// One replication pipeline as seen from the client.
struct ClientPipeline {
  PipelineId id;
  std::int64_t block_index = 0;
  BlockId block;
  std::vector<NodeId> targets;
  Bytes block_bytes = 0;
  std::int64_t num_packets = 0;
  Bytes resume_offset = 0;

  bool ready = false;   ///< setup acked end-to-end
  bool failed = false;  ///< recovery in progress or pending
  bool fnfa = false;    ///< SMARTH: first datanode holds the whole block
  /// Pipeline position of the datanode blamed for the failure (-1: unknown),
  /// handed to recovery when the error-pipeline set reaches this pipeline.
  int error_index = -1;

  /// Packets waiting to be handed to the network for this pipeline.
  std::deque<ProducedPacket> pending;
  /// Sent but not yet fully acked (retransmission source for recovery).
  std::deque<ProducedPacket> ack_queue;
  std::int64_t acked_packets = 0;  ///< counted from resume_offset

  SimTime created_at = 0;
  SimTime first_packet_sent = -1;
  SimTime fnfa_at = -1;
  sim::EventHandle watchdog;

  /// Slow-node eviction: per-target (sum, count) snapshot of the node's
  /// ack-latency histogram taken at pipeline creation. Detection only ever
  /// looks at deltas against these, so samples from earlier pipelines (or a
  /// pre-populated registry) cannot skew this pipeline's window.
  struct AckBaseline {
    double sum = 0;
    std::uint64_t count = 0;
  };
  std::vector<AckBaseline> ack_baselines;

  // Block-lifecycle spans (inert handles when tracing is disabled):
  // setup -> stream (first packet dispatched, some un-sent) -> tail-ack
  // (everything on the wire, waiting for the pipeline to drain).
  trace::SpanHandle span_setup;
  trace::SpanHandle span_stream;
  trace::SpanHandle span_tail;

  std::int64_t packets_since_resume() const {
    return num_packets - resume_offset_packets();
  }
  std::int64_t resume_offset_packets() const { return resume_packets_; }
  void set_resume_packets(std::int64_t n) { resume_packets_ = n; }
  bool complete() const { return acked_packets >= packets_since_resume(); }

 private:
  std::int64_t resume_packets_ = 0;
};

/// Base class: owns production, geometry and every step of a pipeline's
/// life; subclasses supply only the scheduling rule (production and send
/// windows, and when the next block may start). Completion is announced
/// through the on_done callback.
class OutputStreamBase : public AckSink {
 public:
  using DoneCallback = std::function<void(const StreamStats&)>;

  OutputStreamBase(StreamDeps deps, ClientId client, NodeId client_node,
                   FileId file, Bytes file_size, DoneCallback on_done);
  ~OutputStreamBase() override;

  /// Kicks off production and the first block allocation.
  void start();

  /// Kills the stream from outside (writer crash injection): no complete()
  /// RPC, no further packets; the stream finishes failed with `reason`.
  /// In-flight recovery callbacks are dropped by the finished_ guard. The
  /// file stays under construction until the namenode's lease monitor
  /// recovers it.
  void abort(const std::string& reason);

  // AckSink
  void deliver_ack(const PipelineAck& ack) override;
  void deliver_setup_ack(const SetupAck& ack) override;

  const StreamStats& stats() const { return stats_; }
  bool finished() const { return finished_; }
  /// Number of pipelines currently in flight (for live sampling).
  std::size_t active_pipeline_count() const { return pipelines_.size(); }
  FileId file() const { return file_; }
  ClientId client() const { return client_; }
  NodeId client_node() const { return client_node_; }

  // --- geometry --------------------------------------------------------------
  std::int64_t total_blocks() const;
  Bytes block_bytes(std::int64_t block_index) const;
  std::int64_t packets_in_block(std::int64_t block_index) const;
  Bytes packet_payload(std::int64_t block_index, std::int64_t seq) const;

 protected:
  // --- the scheduling rule (per protocol) ------------------------------------
  /// True while the subclass can accept another produced packet.
  virtual bool production_window_open() const = 0;
  /// Hands queued packets to ready pipelines within the send window, then
  /// re-checks production. Runs whenever a packet is produced, a pipeline
  /// becomes ready or an ACK frees window space.
  virtual void pump_stream() = 0;
  /// The advance rule: true when the next block may be allocated now.
  virtual bool may_advance() = 0;
  /// True when pipelines ask their first datanode for an FNFA.
  virtual bool requests_fnfa() const = 0;
  /// Datanodes the next block's placement must avoid.
  virtual std::vector<NodeId> placement_exclusions() const { return {}; }
  /// True when an addBlock refusal is a wait the protocol sits out until a
  /// live pipeline completes (and re-runs advance_block) rather than a
  /// failure.
  virtual bool wait_for_slot(const Error& /*refusal*/) { return false; }
  /// Reorders the targets of a freshly allocated block before its pipeline
  /// is built.
  virtual void order_targets(std::vector<NodeId>& /*targets*/) {}

  /// Re-checks the production gate; subclasses call this when windows open.
  void pump_production();
  /// Allocates the next block and builds its pipeline when nothing holds the
  /// upload back (an allocation in flight, a non-empty error-pipeline set,
  /// the advance rule); completes the file once every block is placed and
  /// every pipeline retired.
  void advance_block();

  // --- shared helpers ---------------------------------------------------------
  /// Hands the next pending packet of `pipeline` to the network.
  void send_next_packet(ClientPipeline& pipeline);
  void finish(bool failed, const std::string& reason);

  ClientPipeline* find_pipeline(PipelineId id);

  // --- trace instrumentation (all no-ops when tracing is disabled) ----------
  /// The per-block track name concurrent pipelines render under.
  static std::string trace_track(std::int64_t block_index);

  StreamDeps deps_;

  /// Produced packets not yet assigned to a pipeline, in file order.
  std::deque<ProducedPacket> data_queue_;
  std::unordered_map<PipelineId, ClientPipeline> pipelines_;
  /// The pipeline fresh data flows into (the newest block's).
  PipelineId streaming_;
  /// Alg. 4 state: failed pipelines awaiting recovery, drained one at a
  /// time; while non-empty the current block transfer is paused. The
  /// baseline protocol's single pipeline makes it a set of at most one.
  std::set<PipelineId> error_pipelines_;

  StreamStats stats_;
  bool finished_ = false;

 private:
  /// addBlock RPC (with timeout/backoff retry); invokes cb with the located
  /// block (or error). `block_index` lets the namenode recognize a retry of a
  /// lost response and return the existing allocation.
  void request_block(std::int64_t block_index, std::vector<NodeId> excluded,
                     std::function<void(Result<LocatedBlock>)> cb);
  /// Builds a ClientPipeline record and sends the setup chain.
  ClientPipeline& create_pipeline(std::int64_t block_index,
                                  const LocatedBlock& located,
                                  Bytes resume_offset);
  /// Issues complete() once the last block is allocated and every pipeline
  /// has drained — at most once per stream; only complete_file's own retry
  /// chain re-issues it.
  void maybe_complete();
  /// complete() RPC with retry-until-true, then finishes the stream.
  void complete_file();

  /// Arms/refreshes the no-ack-progress watchdog for a pipeline.
  void arm_watchdog(ClientPipeline& pipeline);

  // --- failure recovery (Alg. 3 over Alg. 4's error-pipeline set) ------------
  /// Timeout, error ACK, ACK gap or slow-node eviction on `pipeline`:
  /// stops it, moves its ACK queue back to its resend queue and adds it to
  /// the error set. `error_index` is the blamed datanode's pipeline
  /// position or -1.
  void on_pipeline_error(ClientPipeline& pipeline, int error_index);
  /// Starts recovery of the first error pipeline unless one is running.
  void recover_next_error_pipeline();
  /// Replaces a recovered pipeline with a fresh one over `targets` that
  /// resends everything past `sync_offset`.
  void resume_recovered_pipeline(PipelineId old_id,
                                 std::vector<NodeId> targets,
                                 Bytes sync_offset);

  // --- slow-node eviction -----------------------------------------------------
  /// Index of a mid-block straggler in `pipeline`, or -1. A node is a
  /// straggler when its windowed own-time (this pipeline's ack-latency delta,
  /// minus its downstream neighbour's) exceeds `kEvictionOutlierFactor`
  /// times the median of its peers'. Every member needs
  /// `kEvictionMinSamples` window samples before any verdict.
  int find_slow_pipeline_node(const ClientPipeline& pipeline) const;
  /// Checks the straggler bound and, when it trips (outside the per-stream
  /// cooldown), reports the node to the namenode and fires the normal
  /// pipeline-recovery path with the straggler as error index — evict and
  /// splice a replacement instead of waiting out the watchdog. Returns true
  /// when recovery was started (the pipeline is dead to the caller).
  bool maybe_evict_slow_node(ClientPipeline& pipeline);

  /// Charges time against the safe-mode wait budget: true while the stream
  /// should keep polling a safe-mode namenode (restart in progress; replica
  /// re-reports pending), false once the budget is exhausted and the stream
  /// should fail cleanly. The clock starts at the first refusal and resets
  /// on any successful allocation (create_pipeline).
  bool start_safe_mode_wait();
  /// Same shape for an overloaded namenode that keeps shedding this stream's
  /// calls after RPC-level backoff: true while the stream should keep
  /// re-polling (under overload_retry_budget), false once it should fail
  /// cleanly. Resets on any successful allocation.
  bool start_overload_wait();
  /// Charges one recovery attempt against `block`'s budget; true when the
  /// budget is exhausted and the stream should fail cleanly instead of
  /// retrying forever.
  bool recovery_budget_exhausted(BlockId block);
  /// MTTR bookkeeping around a recovery: start stamps the error-detection
  /// time; end observes the `stream.recovery_ns` histogram. Also
  /// opens/closes the recovery trace span.
  void note_recovery_start(PipelineId pipeline);
  void note_recovery_end(PipelineId pipeline);

  /// Marks the pipeline setup-acked: closes its setup span, opens stream.
  void trace_pipeline_ready(ClientPipeline& pipeline);
  /// Closes whatever lifecycle span the pipeline has open, tagging the
  /// outcome ("complete" / "error" / "aborted").
  void trace_pipeline_closed(ClientPipeline& pipeline, const char* outcome);

  void produce_loop();

  ClientId client_;
  NodeId client_node_;
  FileId file_;
  Bytes file_size_;
  DoneCallback on_done_;

  std::int64_t next_block_ = 0;  ///< next block index to allocate
  bool awaiting_block_ = false;  ///< an addBlock call is in flight
  bool complete_issued_ = false;  ///< maybe_complete started complete()
  bool recovery_running_ = false;

  /// Every pipeline id this stream opened on the transport (closed by the
  /// destructor; ACKs for ids no longer in pipelines_ are dropped on arrival).
  std::vector<PipelineId> opened_pipelines_;
  /// Recovery operations in flight or retired (kept alive until the stream
  /// dies; recovery objects must outlive their async callbacks).
  std::vector<std::unique_ptr<BlockRecovery>> recoveries_;

  /// Goodput counter (client.bytes_acked), cached because deliver_ack is the
  /// hottest client-side path; registry references stay valid until reset()
  /// and streams never outlive a reset.
  metrics::Counter* bytes_acked_counter_ = nullptr;
  /// True between start() and finish(): this stream is counted in the
  /// client.streams_open occupancy gauge.
  bool counted_open_ = false;
  /// Liveness token captured by in-flight RPC callbacks so a pruned stream's
  /// late responses are dropped instead of dereferencing freed memory.
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
  /// Shared with in-flight retry chains (they may outlive the stream).
  std::shared_ptr<rpc::RetryStats> retry_stats_ =
      std::make_shared<rpc::RetryStats>();
  /// BlockId value -> recovery attempts consumed.
  std::unordered_map<std::int64_t, int> recovery_attempts_;
  /// PipelineId -> when its error was detected (MTTR bookkeeping).
  std::unordered_map<PipelineId, SimTime> recovery_started_;
  /// PipelineId -> open recovery span (tracing only).
  std::unordered_map<PipelineId, trace::SpanHandle> recovery_spans_;
  /// When this stream last evicted a slow node (-1: never); one eviction per
  /// `kEvictionCooldown` keeps a noisy window from serially rebuilding.
  SimTime last_eviction_at_ = -1;
  /// Whole-upload span, opened by start() and closed by finish().
  trace::SpanHandle upload_span_;

  std::int64_t produced_packets_ = 0;
  std::int64_t total_packets_ = 0;
  std::int64_t produce_block_ = 0;
  std::int64_t produce_seq_ = 0;
  bool producer_armed_ = false;
  /// Cancelled on finish() so a finished stream has no pending events
  /// referencing it (lets the cluster prune finished streams safely).
  sim::EventHandle producer_event_;
  sim::EventHandle complete_retry_;
  /// Pending safe-mode or overload addBlock re-poll.
  sim::EventHandle safe_mode_retry_;
  /// When the current safe-mode wait began (-1: not waiting).
  SimTime safe_mode_wait_started_ = -1;
  /// When the current overload wait began (-1: not waiting).
  SimTime overload_wait_started_ = -1;
};

/// The baseline HDFS protocol: one pipeline at a time, stop-and-wait at every
/// block boundary (paper §II).
class DfsOutputStream : public OutputStreamBase {
 public:
  DfsOutputStream(StreamDeps deps, ClientId client, NodeId client_node,
                  FileId file, Bytes file_size, DoneCallback on_done);

  // AckSink
  void deliver_fnfa(const FnfaMessage& fnfa) override;

 protected:
  bool production_window_open() const override;
  void pump_stream() override;
  bool may_advance() override;
  bool requests_fnfa() const override { return false; }
};

}  // namespace smarth::hdfs
