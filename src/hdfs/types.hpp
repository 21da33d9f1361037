// Wire-level protocol types and tunables shared by the namenode, datanodes
// and clients. The defaults mirror Hadoop 1.0.3, the version the paper
// evaluated: 64 MB blocks, 64 KB packets, replication 3, 3-second heartbeats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"

namespace smarth::hdfs {

/// Data-path fidelity. kPacket simulates every packet as its own
/// serialize/verify/store/ack event chain — the reference behavior. kBlock
/// coalesces runs of consecutive packets into macro "transfer units" that
/// carry the same aggregate analytic costs (k packets' production, headers,
/// verification and disk-op overhead per unit), trading per-packet timing
/// detail for an order-of-magnitude fewer events. The unit size is derived
/// from the cost model so the coarsening distorts block pipeline times by at
/// most HdfsConfig::block_fidelity_tolerance (contract in DESIGN.md §10).
enum class DataFidelity { kPacket, kBlock };

// --- Fixed protocol parameters ----------------------------------------------
// Shared by more than one module; constants read by a single module live in
// that module (DESIGN.md "Tunables" lists what HdfsConfig still varies).

/// Checksums + header framing per data packet on the wire.
inline constexpr Bytes kPacketHeaderWire = 512;
/// Client-side cap on dataQueue + ackQueue, in packets (Hadoop: 80).
inline constexpr int kMaxOutstandingPackets = 80;
/// Per-packet datanode checksum verification before store/forward.
inline constexpr SimDuration kChecksumVerifyTime = microseconds(30);
/// Datanode and client heartbeat cadence.
inline constexpr SimDuration kHeartbeatInterval = seconds(3);
/// Re-poll cadence of a client whose namenode call was shed as overloaded
/// even after RPC-level backoff.
inline constexpr SimDuration kOverloadRetryInterval = milliseconds(500);

/// The tunables of the simulated DFS that some CLI flag, bench, example or
/// test varies. One instance is shared by every component of a cluster.
struct HdfsConfig {
  // --- Data layout ----------------------------------------------------------
  Bytes block_size = 64 * kMiB;
  Bytes packet_payload = 64 * kKiB;

  // --- Fidelity -------------------------------------------------------------
  DataFidelity fidelity = DataFidelity::kPacket;
  /// Block-fidelity macro-transfer payload, a multiple of packet_payload.
  /// Derived by the cluster builder (model::coalesced_transfer_unit) when
  /// left at 0; ignored in packet mode.
  Bytes block_transfer_unit = 0;
  /// Ceiling on block-fidelity distortion: the extra store-and-forward skew
  /// a coalesced unit introduces across the pipeline, as a fraction of the
  /// whole block's transfer time.
  double block_fidelity_tolerance = 0.05;

  // --- Replication ----------------------------------------------------------
  int replication = 3;

  // --- Client-side costs ----------------------------------------------------
  /// Per-packet production time Tc: read from the local source, checksum,
  /// frame. Overridden per instance type by the cluster builder.
  SimDuration packet_production_time = microseconds(800);

  // --- Datanode buffers -----------------------------------------------------
  /// Staging buffer per datanode per client (paper §IV-C: one block).
  Bytes staging_buffer_bytes = 64 * kMiB;

  // --- Data integrity -------------------------------------------------------
  /// Background block-scanner byte budget per datanode. 0 disables the
  /// scanner (the default, so latency-calibrated experiments are unaffected);
  /// when enabled, scrub reads go through the shared disk and contend with
  /// foreground traffic (Hadoop's dfs.datanode.scan.period analogue, but
  /// budgeted by rate rather than period).
  Bytes scanner_bytes_per_second = 0;

  // --- Control plane --------------------------------------------------------
  /// A datanode missing heartbeats for this long is considered dead.
  SimDuration datanode_dead_interval = seconds(15);

  // --- Leases (writer-crash tolerance) ---------------------------------------
  /// Past the soft limit another client may force lease recovery (takeover);
  /// past the hard limit the namenode recovers the file on its own.
  SimDuration lease_soft_limit = seconds(10);
  SimDuration lease_hard_limit = seconds(30);
  /// Cadence of the namenode's lease expiry / UC-recovery monitor.
  SimDuration lease_monitor_interval = seconds(2);

  // --- Namenode durability & restart -----------------------------------------
  /// Cadence of fsimage checkpoints (edit-log truncation); 0 disables
  /// checkpointing and restarts replay the whole journal.
  SimDuration checkpoint_interval = seconds(30);
  /// Replay cost per journaled op during restart/failover — makes cold
  /// restart downtime scale with the un-checkpointed log length.
  SimDuration edit_replay_op_cost = microseconds(200);

  // --- Failure handling -----------------------------------------------------
  /// No ACK progress on a pipeline for this long => pipeline error.
  SimDuration ack_timeout = seconds(5);
  /// Ceiling on a recovery's replica-prefix copy to a replacement node; a
  /// copy that exceeds it (unreachable target, severed link) is abandoned.
  SimDuration replacement_transfer_timeout = seconds(30);

  // --- Gray-failure defense (hedged reads / slow-node eviction) -------------
  // A fail-slow datanode never misses a heartbeat, so none of the crash
  // machinery fires; these knobs defend tail latency instead of durability.
  // Both defenses default off so latency-calibrated experiments and existing
  // seed timelines are unaffected; benches and chaos subsets opt in. Their
  // thresholds are constants of input_stream.cpp, output_stream.cpp and
  // suspicion.hpp.

  /// Hedged reads: when a block read makes no byte progress for the hedge
  /// threshold, race a second replica and keep whichever finishes first.
  bool hedged_reads = false;
  /// Total hedges one file read may launch — a sick cluster must not double
  /// its own load.
  int hedge_per_read_cap = 16;

  /// Write-pipeline slow-node eviction: a mid-block straggler (ACK own-time
  /// persistently above the outlier bound vs its pipeline peers) is evicted
  /// through the live pipeline-recovery path instead of crawling to FNFA at
  /// the next block boundary.
  bool slow_node_eviction = false;

  // --- Control-plane overload defense ---------------------------------------
  // Multi-tenant load makes the namenode's RPC path the bottleneck long
  // before the data plane saturates. Both knobs default off so the bus keeps
  // its historical flat rpc::kServiceTime and every existing seed timeline stays
  // bit-identical; benches and the open-loop workload opt in.

  /// Finite-capacity service model: namenode RPCs serialize through one
  /// queue at modeled per-op cost instead of the bus's flat rpc::kServiceTime.
  /// On its own this is the *undefended* namenode — unbounded queue, no
  /// shedding — whose latency grows without bound past the saturation knee.
  bool nn_service_model = false;
  /// Admission control on top of the service model (implies it): bounded
  /// queue with priority bands (heartbeats/IBRs > client metadata ops >
  /// addBlock), load shedding with typed retryable `overloaded` rejections,
  /// heartbeat/IBR batch processing, and per-client in-flight addBlock caps.
  bool nn_admission_control = false;
  /// Modeled namenode CPU cost per op class.
  SimDuration nn_cost_heartbeat = microseconds(30);
  SimDuration nn_cost_meta = microseconds(150);
  SimDuration nn_cost_add_block = microseconds(350);
  /// Bounded RPC queue depth (admission control only).
  int nn_queue_capacity = 256;
  /// Heartbeat/IBR batch processing: up to this many coalesce into one
  /// service slot.
  int nn_heartbeat_batch_max = 32;
  /// Max queued+in-service addBlock ops per client (<= 0 disables) so one
  /// tenant cannot starve the rest.
  int nn_client_addblock_cap = 4;
  /// Stream-level backoff when the RPC layer exhausts its attempts against
  /// an overloaded namenode: re-poll every kOverloadRetryInterval under this
  /// budget (mirrors the safe-mode wait), then fail the upload cleanly.
  SimDuration overload_retry_budget = seconds(120);

  // --- SMARTH ---------------------------------------------------------------
  /// Local-optimization exploration threshold (paper: 0.8; swap first
  /// datanode with probability 1 - threshold).
  double local_opt_threshold = 0.8;
  bool smarth_global_opt = true;  ///< ablation switch (Alg. 1)
  bool smarth_local_opt = true;   ///< ablation switch (Alg. 2)
  /// Enforce the buffer-overflow guard: at most cluster/replication
  /// concurrent pipelines and one pipeline per datanode per client.
  bool enforce_pipeline_cap = true;

  // --- Fidelity-aware transfer geometry -------------------------------------
  // The data paths (output/input streams, datanodes, recovery) are written in
  // terms of "transfer units": identical to packets in packet mode, coalesced
  // multi-packet units in block mode. WirePacket::seq then indexes transfer
  // units within the block, and all offset arithmetic scales accordingly.

  /// Active data-transfer granularity.
  Bytes transfer_payload() const {
    if (fidelity == DataFidelity::kPacket || block_transfer_unit <= 0) {
      return packet_payload;
    }
    return block_transfer_unit;
  }
  /// Real packets represented by one transfer of `payload` bytes.
  std::int64_t packets_in_transfer(Bytes payload) const {
    return (payload + packet_payload - 1) / packet_payload;
  }
  int transfers_per_block() const {
    return static_cast<int>((block_size + transfer_payload() - 1) /
                            transfer_payload());
  }
  /// SMARTH streams a whole block to the first datanode without waiting for
  /// full-pipeline ACKs; its per-pipeline window, in transfer units, is
  /// therefore the block.
  int smarth_outstanding_transfers() const { return transfers_per_block(); }
  /// HDFS client window, in transfer units (>= 1; rounds the 80-packet cap
  /// down so block mode never holds more data in flight than packet mode).
  int max_outstanding_transfers() const {
    const auto per_unit = packets_in_transfer(transfer_payload());
    const auto units = kMaxOutstandingPackets / static_cast<int>(per_unit);
    return units < 1 ? 1 : units;
  }
  /// Wire footprint of one transfer: payload plus one header per real packet.
  Bytes transfer_wire_size(Bytes payload) const {
    return payload + kPacketHeaderWire * packets_in_transfer(payload);
  }
  /// Aggregate client production cost (k packets' worth of Tc).
  SimDuration transfer_production_time(Bytes payload) const {
    return packet_production_time * packets_in_transfer(payload);
  }
  /// Aggregate datanode checksum-verification cost (k packets' worth).
  SimDuration transfer_verify_time(Bytes payload) const {
    return kChecksumVerifyTime * packets_in_transfer(payload);
  }
};

/// A block with its assigned pipeline targets, as returned by addBlock().
/// The read path reuses it with `targets` = live replica holders sorted by
/// distance and `length` = the finalized block length.
struct LocatedBlock {
  BlockId block;
  std::vector<NodeId> targets;  // pipeline order: first datanode first
  Bytes length = 0;             // read path only
  /// Read path only: no serveable targets because every known replica has
  /// been reported corrupt (distinct from "holders temporarily dead").
  bool all_replicas_corrupt = false;
};

/// One data packet on the wire.
struct WirePacket {
  PipelineId pipeline;
  BlockId block;
  std::int64_t seq = 0;        ///< packet index within the block
  Bytes payload = 0;           ///< payload bytes (last packet may be short)
  bool last_in_block = false;
};

/// Status carried by pipeline ACKs (per-packet, aggregated upstream).
enum class AckStatus {
  kSuccess,
  kChecksumError,  ///< verification failed at `error_index`
  kNodeError,      ///< downstream node unreachable
};

struct PipelineAck {
  PipelineId pipeline;
  std::int64_t seq = 0;
  AckStatus status = AckStatus::kSuccess;
  /// Index (in pipeline order) of the datanode that reported the error;
  /// meaningful when status != kSuccess.
  int error_index = -1;
};

/// SMARTH's First-Node-Finish ACK: the first datanode has received and
/// durably stored every packet of `block`.
struct FnfaMessage {
  PipelineId pipeline;
  BlockId block;
};

// --- Read path ---------------------------------------------------------------

struct ReadTag { static constexpr const char* prefix = "read-"; };
/// One block-read operation issued by a client.
using ReadId = TypedId<ReadTag>;

/// Client -> datanode: stream `length` bytes of `block` starting at
/// `offset` back to `reader_node`.
struct ReadRequest {
  ReadId read;
  BlockId block;
  Bytes offset = 0;
  Bytes length = 0;
  NodeId reader_node;
};

/// Datanode -> client: one packet of block data (or an error marker).
struct ReadPacket {
  ReadId read;
  BlockId block;
  std::int64_t seq = 0;
  Bytes payload = 0;
  bool last = false;
  bool error = false;    ///< replica missing/short or node refusing
  /// The serving datanode hit a checksum mismatch verifying this packet's
  /// chunk range: no payload was sent and the stream must fail over AND
  /// report the replica to the namenode (set together with last).
  bool corrupt = false;
};

/// Pipeline establishment request, forwarded datanode-to-datanode like
/// Hadoop's WRITE_BLOCK operation.
struct PipelineSetup {
  PipelineId pipeline;
  BlockId block;
  std::vector<NodeId> targets;
  NodeId client_node;
  ClientId client;
  bool smarth_mode = false;
  /// Byte offset the write resumes at (0 for fresh blocks; >0 after
  /// recovery, when a prefix is already durable on every target).
  Bytes resume_offset = 0;
};

struct SetupAck {
  PipelineId pipeline;
  bool success = true;
  int error_index = -1;
};

/// One client->namenode speed record: observed client-to-first-datanode
/// transfer speed for a completed block (paper §III-B).
struct SpeedRecord {
  NodeId datanode;
  Bandwidth speed;
  SimTime measured_at = 0;
};

/// Namenode -> primary datanode: synchronize one under-construction block
/// after its writer's lease expired (commitBlockSynchronization protocol).
/// The primary probes every target's stored length, reconciles the replicas
/// and reports the agreed length (or abandonment) back to the namenode.
struct UcRecoveryCommand {
  BlockId block;
  std::vector<NodeId> targets;  ///< replica candidates, primary included
  /// True for the highest-indexed (possibly partial) block: replicas are
  /// truncated to the minimum durable length. False for earlier blocks of a
  /// multi-pipeline write, which finalize at the maximum stored length and
  /// discard shorter stragglers.
  bool tail = true;
};

/// Interface for components that accept pipeline traffic (datanodes).
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void deliver_setup(const PipelineSetup& setup) = 0;
  virtual void deliver_packet(const WirePacket& packet) = 0;
  /// ACK arriving from the downstream neighbour.
  virtual void deliver_downstream_ack(const PipelineAck& ack) = 0;
  virtual void deliver_downstream_setup_ack(const SetupAck& ack) = 0;
  /// Block-read service; default refuses (only datanodes serve reads).
  virtual void deliver_read_request(const ReadRequest& request) {
    (void)request;
  }
};

/// Interface for the receiving end of a block read (client input streams).
class ReadSink {
 public:
  virtual ~ReadSink() = default;
  virtual void deliver_read_packet(const ReadPacket& packet) = 0;
};

/// Interface for components that terminate a pipeline's upstream end
/// (client output streams).
class AckSink {
 public:
  virtual ~AckSink() = default;
  virtual void deliver_ack(const PipelineAck& ack) = 0;
  virtual void deliver_setup_ack(const SetupAck& ack) = 0;
  virtual void deliver_fnfa(const FnfaMessage& fnfa) = 0;
};

std::string to_string(AckStatus status);

}  // namespace smarth::hdfs
