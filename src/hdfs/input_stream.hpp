// The client read path: fetch block locations from the namenode, stream each
// block from its nearest live replica, verify, and fail over to the next
// replica when a datanode dies or returns an error mid-read. HDFS reads have
// no pipeline — one datanode serves the whole block — so this is shared by
// both protocols; it exists to complete the substrate and to drive the
// read-while-write experiments (the paper's MapReduce-impact future work).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/ids.hpp"
#include "common/units.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/transport.hpp"
#include "hdfs/types.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::hdfs {

struct ReadStats {
  ClientId client;
  std::string path;
  Bytes bytes_read = 0;
  SimTime started_at = 0;
  SimTime finished_at = 0;
  std::int64_t blocks = 0;
  int failovers = 0;  ///< replica switches due to errors/timeouts
  /// Failovers caused specifically by checksum mismatches (subset of
  /// `failovers`): the serving replica had rotted at rest.
  int checksum_mismatches = 0;
  /// report_bad_replica RPCs this read sent to the namenode.
  int bad_replica_reports = 0;
  /// Hedged-read accounting: hedges launched, blocks the hedge finished
  /// first, hedge-timer firings denied by the budget or lack of a second
  /// replica, and duplicate bytes the losing attempt delivered.
  int hedged_reads = 0;
  int hedge_wins = 0;
  int hedges_denied = 0;
  Bytes hedge_wasted_bytes = 0;
  bool failed = false;
  std::string failure_reason;

  SimDuration elapsed() const { return finished_at - started_at; }
  Bandwidth throughput() const { return throughput_of(bytes_read, elapsed()); }
};

class DfsInputStream : public ReadSink {
 public:
  using DoneCallback = std::function<void(const ReadStats&)>;

  struct Deps {
    sim::Simulation& sim;
    Transport& transport;
    rpc::RpcBus& rpc;
    Namenode& namenode;
    const HdfsConfig& config;
  };

  DfsInputStream(Deps deps, ClientId client, NodeId client_node,
                 std::string path, DoneCallback on_done);
  ~DfsInputStream() override;

  /// Fetches locations and starts streaming the first block.
  void start();

  bool finished() const { return finished_; }
  const ReadStats& stats() const { return stats_; }

  // --- ReadSink ---------------------------------------------------------------
  void deliver_read_packet(const ReadPacket& packet) override;

 private:
  /// One outstanding request against one replica. A block normally has a
  /// single attempt (primary_); when the hedge timer fires a second attempt
  /// races it from the primary's current progress offset.
  struct ReadAttempt {
    ReadId read;              ///< invalid when the attempt is not running
    NodeId replica;
    Bytes start_offset = 0;   ///< block offset the attempt began at
    Bytes bytes = 0;          ///< payload bytes delivered by this attempt
    std::int64_t expected_seq = 0;
    /// Packet-gap pacing: arrival time of the first/most recent packet and
    /// the packet count, so the pace trigger can compute the attempt's mean
    /// inter-packet gap.
    SimTime first_packet_at = -1;
    SimTime last_packet_at = -1;
    std::int64_t packets = 0;

    bool active() const { return read.valid(); }
    Bytes progress() const { return start_offset + bytes; }
    /// Mean inter-packet gap (ns); 0 until two packets have arrived.
    double mean_gap() const {
      return packets > 1 ? static_cast<double>(last_packet_at -
                                               first_packet_at) /
                               static_cast<double>(packets - 1)
                         : 0.0;
    }
    void reset() { *this = ReadAttempt{}; }
  };

  void fetch_locations();
  /// The namenode shed getBlockLocations: re-poll at kOverloadRetryInterval
  /// while the wait stays inside overload_retry_budget, else fail cleanly.
  void retry_locations_after_shed();
  void start_block(std::size_t block_index);
  void request_from_replica();
  void on_block_done();
  void on_attempt_failed(ReadAttempt& attempt, const std::string& reason);
  /// The serving replica returned a checksum-mismatch marker: report it to
  /// the namenode, remember it as corrupt, and fail over.
  void on_attempt_corrupt(ReadAttempt& attempt);
  void arm_watchdog();
  void finish(bool failed, const std::string& reason);

  // --- Hedged reads -----------------------------------------------------------
  /// Launches `attempt` against `replica` from the block's current progress
  /// watermark.
  void send_attempt(ReadAttempt& attempt, NodeId replica);
  /// Hedge-timer duration: p95 of the serving node's ack-latency histogram x
  /// multiplier when enough samples exist, else the static fallback.
  SimDuration hedge_threshold(NodeId replica) const;
  /// (Re)arms the no-progress hedge timer; no-op while a hedge is racing or
  /// hedged reads are disabled.
  void arm_hedge_timer();
  /// No byte progressed within the hedge threshold: race a second replica if
  /// the budget and replica set allow it.
  void on_hedge_timer();
  /// Pace trigger, checked on every primary packet: a gray-slow replica keeps
  /// the stall timer re-armed, so also hedge when the primary's mean packet
  /// gap exceeds `kHedgePaceFactor` x the cluster-wide lower-quartile gap.
  void maybe_hedge_on_pace();
  /// Cold-start deadline: until `read.gap_ns` has enough samples the pace
  /// trigger has no healthy baseline, so the first block(s) get a one-shot
  /// completion deadline of `kHedgeStaticThreshold` instead — HDFS's static
  /// whole-request hedge threshold.
  void arm_cold_start_deadline();
  /// Shared hedge launcher behind both triggers; enforces the budget.
  void launch_hedge(const char* why);
  /// `winner` delivered the block's last byte: settle the race and advance.
  void on_attempt_won(ReadAttempt& winner);
  /// The losing attempt of a decided hedge race: cancel at the datanode and
  /// account its suspicion/metrics.
  void cancel_attempt(ReadAttempt& attempt, bool lost_race);
  /// Picks the replica a hedge should race: first non-failed target that is
  /// not `avoid`, preferring replicas not previously hedge-beaten.
  NodeId pick_hedge_replica(NodeId avoid) const;
  void set_hedges_in_flight(int delta);

  Deps deps_;
  ClientId client_;
  NodeId client_node_;
  std::string path_;
  DoneCallback on_done_;

  std::vector<LocatedBlock> blocks_;
  /// Reported replica length per block is the block's readable size; the
  /// namenode's record is authoritative after close.
  std::vector<Bytes> block_sizes_;

  std::size_t current_block_ = 0;
  ReadAttempt primary_;
  ReadAttempt hedge_;
  /// Every read id this stream opened on the transport (closed by the
  /// destructor). A hedged block has two live ids, primary and hedge;
  /// packets for any other id are dropped on arrival.
  std::vector<ReadId> opened_reads_;
  /// High-water mark of contiguous payload delivered for the current block by
  /// either attempt; stats_.bytes_read counts only watermark advances so a
  /// hedge race never double-counts the overlap.
  Bytes block_bytes_received_ = 0;
  std::unordered_set<std::int64_t> failed_replicas_;
  /// Subset of failed_replicas_ that failed with a checksum mismatch; when
  /// *every* exhausted replica is in here, the block is wholly rotted and the
  /// read fails with all_replicas_corrupt instead of a liveness error.
  std::unordered_set<std::int64_t> checksum_failed_replicas_;
  /// Replicas that lost a hedge race this read: still usable, but later
  /// blocks prefer other replicas first.
  std::unordered_set<std::int64_t> slow_replicas_;
  sim::EventHandle watchdog_;
  /// Hedge no-progress timer; re-armed whenever a payload byte lands.
  sim::EventHandle hedge_timer_;
  /// One-shot cold-start completion deadline for the current block.
  sim::EventHandle cold_start_deadline_;
  /// Pending getBlockLocations re-poll after an overload shed.
  sim::EventHandle locate_retry_;
  /// When the current overload wait began (-1: not waiting).
  SimTime overload_wait_started_ = -1;
  int hedges_this_read_ = 0;

  ReadStats stats_;
  bool finished_ = false;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  /// Open span covering the whole read (locate -> last block done).
  trace::SpanHandle read_span_;
  /// Open span for the block currently streaming; reopened on failover so a
  /// trace shows one span per replica attempt.
  trace::SpanHandle block_span_;
};

}  // namespace smarth::hdfs
