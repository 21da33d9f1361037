#include "hdfs/datanode.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "trace/trace_recorder.hpp"

namespace smarth::hdfs {

namespace {

// SplitMix64 finalizer: deterministic salts for bit-rot target selection
// without touching any shared RNG stream.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

}  // namespace

Datanode::Datanode(sim::Simulation& sim, Transport& transport,
                   rpc::RpcBus& rpc, Namenode& namenode,
                   const HdfsConfig& config, NodeId self, Options options)
    : sim_(sim), transport_(transport), rpc_(rpc), namenode_(namenode),
      config_(config), self_(self), options_(options),
      store_(kChecksumChunkSize) {
  disk_ = std::make_unique<storage::DiskDevice>(
      sim_, "disk@" + self.to_string(), options_.disk_write_bandwidth,
      options_.disk_op_overhead);
  scanner_ = std::make_unique<BlockScanner>(
      sim_, *disk_, store_, config_, [this](BlockId block) {
        rpc_.notify(self_, namenode_.node_id(), [this, block] {
          namenode_.report_bad_replica(block, self_);
        });
      });
  ack_latency_hist_ = &metrics::global_registry().histogram(
      "datanode." + self_.to_string() + ".ack_ns");
  hedge_cancelled_hist_ =
      &metrics::global_registry().histogram("hedge.cancelled_ns");
  transport_.attach(*this);
}

Datanode::~Datanode() { transport_.detach(self_); }

void Datanode::start() {
  namenode_.register_datanode(self_);
  heartbeat_ = std::make_unique<sim::PeriodicTask>(
      sim_, kHeartbeatInterval, [this] {
        if (crashed_) return;
        // Each heartbeat carries a full report of this node's finalized
        // replicas. blockReceived notifications are fire-and-forget and can
        // be lost to RPC chaos or partitions; the periodic report makes the
        // namenode's replica map self-healing (block_received is idempotent).
        std::vector<std::pair<BlockId, Bytes>> report;
        report.reserve(store_.replica_count());
        store_.for_each_replica([&report](const storage::ReplicaInfo& replica) {
          if (replica.state == storage::ReplicaState::kFinalized) {
            report.emplace_back(replica.block, replica.bytes);
          }
        });
        // A heartbeat shed by namenode admission control never reaches this
        // handler at all — overload can delay liveness bookkeeping but never
        // mistake a healthy node for a stale or slow one.
        rpc_.notify(self_, namenode_.node_id(),
                    [this, report = std::move(report)] {
                      if (!namenode_.handle_heartbeat(self_)) {
                        // The namenode restarted and lost our registration:
                        // re-register, then let the full report below stand
                        // in for the post-registration block report.
                        namenode_.register_datanode(self_);
                      }
                      for (const auto& [block, bytes] : report) {
                        namenode_.block_received(self_, block, bytes);
                      }
                    },
                    {rpc::ServiceClass::kHeartbeat});
      });
  // Spread heartbeats so the cluster's are not phase-locked.
  const auto jitter = static_cast<SimDuration>(
      sim_.rng().uniform_int(0, kHeartbeatInterval - 1));
  heartbeat_->start_with_delay(jitter);
  scanner_->start();  // no-op unless a scrub budget is configured
}

void Datanode::crash() {
  crashed_ = true;
  if (trace::active()) {
    trace::recorder()->instant(trace::Category::kFault,
                               "dn " + self_.to_string(), "crash", {});
  }
  if (heartbeat_) heartbeat_->stop();
  scanner_->stop();
  rpc_.set_host_down(self_, true);
  // Staging accounting for in-flight pipelines is torn down with the node.
  for (auto& [pipeline, ctx] : pipelines_) {
    storage::StagingBuffer& buf = staging_for(ctx.setup.client);
    buf.release(std::min(ctx.staging_held, buf.used()));
  }
  pipelines_.clear();
}

void Datanode::restart() {
  if (!crashed_) return;
  crashed_ = false;
  if (trace::active()) {
    trace::recorder()->instant(trace::Category::kFault,
                               "dn " + self_.to_string(), "restart", {});
  }
  // Replicas that were mid-write when the node died are untrusted and
  // discarded; finalized replicas survive the reboot.
  for (const auto& replica : store_.all_replicas()) {
    if (replica.state != storage::ReplicaState::kFinalized) {
      store_.remove(replica.block);
    }
  }
  staging_.clear();
  rpc_.set_host_down(self_, false);
  namenode_.register_datanode(self_);
  // Re-report surviving finalized replicas (HDFS's post-registration block
  // report) so the namenode's replica map reflects reality again.
  for (const auto& replica : store_.all_replicas()) {
    rpc_.notify(self_, namenode_.node_id(),
                [this, block = replica.block, bytes = replica.bytes] {
                  namenode_.block_received(self_, block, bytes);
                },
                {rpc::ServiceClass::kHeartbeat});
  }
  if (heartbeat_) {
    const auto jitter = static_cast<SimDuration>(
        sim_.rng().uniform_int(0, kHeartbeatInterval - 1));
    heartbeat_->start_with_delay(jitter);
  }
  scanner_->start();
  SMARTH_INFO("datanode") << "node " << self_.value() << " restarted with "
                          << store_.finalized_count()
                          << " finalized replicas";
}

void Datanode::inject_checksum_error(BlockId block, std::int64_t seq) {
  corrupt_injections_.emplace(block.value(), seq);
}

void Datanode::inject_checksum_error_on_nth_packet(std::uint64_t n) {
  SMARTH_CHECK_MSG(n > 0, "packet counts are 1-based");
  corrupt_at_count_.insert(n);
}

Status Datanode::rot_replica_chunk(BlockId block, std::size_t chunk) {
  // Deliberately not gated on crashed_: media decays whether or not the
  // daemon is running.
  return store_.rot_chunk(block, chunk);
}

bool Datanode::rot_random_finalized_chunk(std::uint64_t salt) {
  // Deterministic choice over a sorted candidate list: the same salt always
  // rots the same chunk regardless of map iteration order.
  std::vector<std::pair<std::int64_t, std::size_t>> candidates;
  for (const auto& replica : store_.all_replicas()) {
    if (replica.state != storage::ReplicaState::kFinalized) continue;
    const std::size_t chunks = store_.chunk_count(replica.block);
    if (chunks > 0) candidates.emplace_back(replica.block.value(), chunks);
  }
  if (candidates.empty()) return false;
  std::sort(candidates.begin(), candidates.end());
  const std::uint64_t h = mix64(salt);
  const auto& [value, chunks] = candidates[h % candidates.size()];
  const auto chunk = static_cast<std::size_t>(mix64(h) % chunks);
  SMARTH_WARN("datanode") << self_.to_string() << " bit-rot in block "
                          << value << " chunk " << chunk;
  return store_.rot_chunk(BlockId{value}, chunk).ok();
}

void Datanode::invalidate_replica(BlockId block) {
  if (crashed_) return;
  if (!store_.has_replica(block)) return;
  SMARTH_CHECK(store_.remove(block).ok());
  metrics::global_registry().counter("datanode.replicas_invalidated").add();
  SMARTH_INFO("datanode") << self_.to_string()
                          << " invalidated corrupt replica "
                          << block.to_string();
}

storage::StagingBuffer& Datanode::staging_for(ClientId client) {
  auto it = staging_.find(client);
  if (it == staging_.end()) {
    it = staging_
             .emplace(client, std::make_unique<storage::StagingBuffer>(
                                  config_.staging_buffer_bytes))
             .first;
  }
  return *it->second;
}

Bytes Datanode::staging_used(ClientId client) const {
  auto it = staging_.find(client);
  return it == staging_.end() ? 0 : it->second->used();
}

Bytes Datanode::staging_high_water(ClientId client) const {
  auto it = staging_.find(client);
  return it == staging_.end() ? 0 : it->second->high_water();
}

std::uint64_t Datanode::staging_overflows(ClientId client) const {
  auto it = staging_.find(client);
  return it == staging_.end() ? 0 : it->second->overflow_events();
}

void Datanode::PacketWindow::reset(std::int64_t base) {
  base_ = base;
  slots_.clear();
}

Datanode::PacketState& Datanode::PacketWindow::at(std::int64_t seq) {
  if (seq < base_) {
    slots_.insert(slots_.begin(), static_cast<std::size_t>(base_ - seq),
                  PacketState{});
    base_ = seq;
  }
  const auto index = static_cast<std::size_t>(seq - base_);
  if (index >= slots_.size()) slots_.resize(index + 1);
  PacketState& st = slots_[index];
  st.present = true;
  return st;
}

Datanode::PacketState* Datanode::PacketWindow::find(std::int64_t seq) {
  if (seq < base_) return nullptr;
  const auto index = static_cast<std::size_t>(seq - base_);
  if (index >= slots_.size() || !slots_[index].present) return nullptr;
  return &slots_[index];
}

void Datanode::deliver_setup(const PipelineSetup& setup) {
  if (crashed_) return;
  auto it = std::find(setup.targets.begin(), setup.targets.end(), self_);
  SMARTH_CHECK_MSG(it != setup.targets.end(),
                   "setup delivered to node not in pipeline");
  PipelineCtx ctx;
  ctx.setup = setup;
  ctx.my_index = static_cast<int>(it - setup.targets.begin());
  ctx.is_first = ctx.my_index == 0;
  ctx.is_last = ctx.my_index + 1 == static_cast<int>(setup.targets.size());
  if (!ctx.is_first) {
    ctx.upstream = setup.targets[static_cast<std::size_t>(ctx.my_index - 1)];
  }
  if (!ctx.is_last) {
    ctx.downstream = setup.targets[static_cast<std::size_t>(ctx.my_index + 1)];
  }
  ctx.resume_start_seq = setup.resume_offset / config_.transfer_payload();
  ctx.packets.reset(ctx.resume_start_seq);

  if (!store_.has_replica(setup.block)) {
    SMARTH_CHECK(store_.create_replica(setup.block).ok());
    if (setup.resume_offset > 0) {
      // Replacement node that just received the prefix via transfer_replica
      // would already have a replica; a fresh node resuming mid-block means
      // the prefix arrived as raw bytes — account for them.
      SMARTH_CHECK(store_.append(setup.block, setup.resume_offset).ok());
    }
  } else {
    // Resuming after recovery: the durable prefix must match the sync point
    // the client negotiated.
    const auto info = store_.replica(setup.block);
    SMARTH_CHECK_MSG(info.ok() && info.value().bytes == setup.resume_offset,
                     "resume offset mismatch on "
                         << setup.block.to_string() << ": have "
                         << (info.ok() ? info.value().bytes : -1) << " want "
                         << setup.resume_offset);
  }
  pipelines_[setup.pipeline] = std::move(ctx);

  const PipelineCtx& stored = pipelines_[setup.pipeline];
  SMARTH_DEBUG("datanode") << self_.to_string() << " joins "
                           << setup.pipeline.to_string() << " for "
                           << setup.block.to_string() << " at position "
                           << stored.my_index
                           << (stored.is_first ? " (first)" : "")
                           << (stored.is_last ? " (last)" : "");
  if (stored.is_last) {
    // End of the chain: acknowledge setup back up.
    SetupAck ack{setup.pipeline, true, -1};
    if (stored.is_first) {
      transport_.send_setup_ack_to_client(self_, setup.client_node, ack);
    } else {
      transport_.send_setup_ack_to_datanode(self_, stored.upstream, ack);
    }
  } else {
    transport_.send_setup(self_, stored.downstream, setup);
  }
}

void Datanode::deliver_downstream_setup_ack(const SetupAck& ack) {
  if (crashed_) return;
  auto it = pipelines_.find(ack.pipeline);
  if (it == pipelines_.end()) return;
  PipelineCtx& ctx = it->second;
  if (ctx.is_first) {
    transport_.send_setup_ack_to_client(self_, ctx.setup.client_node, ack);
  } else {
    transport_.send_setup_ack_to_datanode(self_, ctx.upstream, ack);
  }
}

void Datanode::deliver_packet(const WirePacket& packet) {
  if (crashed_) return;
  if (pipelines_.find(packet.pipeline) == pipelines_.end()) return;
  ++packets_received_;
  const SimTime arrived_at = sim_.now();
  // Checksum verification occupies the node before the packet is mirrored or
  // queued for the disk (a coalesced transfer pays it once per real packet).
  const SimDuration verify = config_.transfer_verify_time(packet.payload);
  if (verify > 0) {
    sim_.post_after(verify, "dn.verify", [this, packet, arrived_at] {
      process_packet(packet, arrived_at);
    });
  } else {
    process_packet(packet, arrived_at);
  }
}

void Datanode::process_packet(const WirePacket& packet, SimTime arrived_at) {
  if (crashed_) return;
  auto it = pipelines_.find(packet.pipeline);
  if (it == pipelines_.end()) return;
  PipelineCtx& ctx = it->second;

  const auto corrupt_key = std::make_pair(packet.block.value(), packet.seq);
  const bool corrupt_by_count = corrupt_at_count_.erase(packets_received_) > 0;
  if (corrupt_injections_.erase(corrupt_key) > 0 || corrupt_by_count) {
    SMARTH_WARN("datanode") << self_.to_string()
                            << " checksum failure on seq " << packet.seq;
    send_ack_upstream(ctx, PipelineAck{packet.pipeline, packet.seq,
                                       AckStatus::kChecksumError,
                                       ctx.my_index});
    return;  // packet dropped; the client will run pipeline recovery
  }

  if (packet.last_in_block) ctx.last_seq = packet.seq;
  PacketState& st = ctx.packets.at(packet.seq);
  st.payload = packet.payload;
  st.arrived_at = arrived_at;
  staging_for(ctx.setup.client).reserve_forced(packet.payload);
  ctx.staging_held += packet.payload;

  // Mirror downstream before the local write completes (cut-through at the
  // node granularity, as HDFS's DataXceiver does).
  if (!ctx.is_last) {
    transport_.send_packet(self_, ctx.downstream, packet);
  }

  disk_->write(packet.payload,
               static_cast<std::uint64_t>(
                   config_.packets_in_transfer(packet.payload)),
               [this, pipeline = packet.pipeline, packet] {
                 on_packet_written(pipeline, packet);
               });
}

void Datanode::release_packet_staging(PipelineCtx& ctx, PacketState& st) {
  if (st.staging_released) return;
  st.staging_released = true;
  storage::StagingBuffer& buf = staging_for(ctx.setup.client);
  buf.release(std::min(st.payload, buf.used()));
  ctx.staging_held -= std::min(st.payload, ctx.staging_held);
}

void Datanode::on_packet_written(PipelineId pipeline,
                                 const WirePacket& packet) {
  if (crashed_) return;
  auto it = pipelines_.find(pipeline);
  if (it == pipelines_.end()) return;  // pipeline aborted meanwhile
  PipelineCtx& ctx = it->second;

  SMARTH_CHECK(store_.append(packet.block, packet.payload).ok());
  PacketState& st = ctx.packets.at(packet.seq);
  st.written = true;
  ++ctx.written_count;

  if (ctx.is_last) {
    // Nothing to mirror: the staging slot frees on the durable write.
    release_packet_staging(ctx, st);
  }
  maybe_ack_upstream(ctx, packet.seq);
  if (ctx.is_first && ctx.setup.smarth_mode) maybe_emit_fnfa(ctx);
  maybe_finalize(pipeline, ctx);
}

void Datanode::deliver_downstream_ack(const PipelineAck& ack) {
  if (crashed_) return;
  auto it = pipelines_.find(ack.pipeline);
  if (it == pipelines_.end()) return;
  PipelineCtx& ctx = it->second;

  if (ack.status != AckStatus::kSuccess) {
    // Error statuses propagate to the client untouched.
    send_ack_upstream(ctx, ack);
    return;
  }
  PacketState& st = ctx.packets.at(ack.seq);
  if (!st.downstream_acked) {
    st.downstream_acked = true;
    // The mirrored copy is confirmed downstream: the staging slot frees.
    release_packet_staging(ctx, st);
  }
  maybe_ack_upstream(ctx, ack.seq);
  maybe_finalize(ack.pipeline, ctx);
}

void Datanode::maybe_ack_upstream(PipelineCtx& ctx, std::int64_t seq) {
  PacketState* found = ctx.packets.find(seq);
  if (found == nullptr) return;
  PacketState& st = *found;
  if (st.ack_sent || !st.written) return;
  if (!ctx.is_last && !st.downstream_acked) return;
  st.ack_sent = true;
  ++ctx.acked_count;
  // Per-hop latency: arrival -> upstream ACK. For the tail node this is its
  // own verify+write time; for interior nodes it folds in the downstream
  // wait, which the straggler report subtracts back out.
  if (st.arrived_at >= 0) {
    const SimDuration held = sim_.now() - st.arrived_at;
    ack_latency_hist_->observe(static_cast<double>(held));
    if (trace::active()) {
      trace::recorder()->record_hop(ctx.setup.pipeline, self_, ctx.my_index,
                                    held);
    }
  }
  send_ack_upstream(
      ctx, PipelineAck{ctx.setup.pipeline, seq, AckStatus::kSuccess, -1});
}

void Datanode::send_ack_upstream(PipelineCtx& ctx, PipelineAck ack) {
  if (ctx.is_first) {
    transport_.send_ack_to_client(self_, ctx.setup.client_node, ack);
  } else {
    transport_.send_ack_to_datanode(self_, ctx.upstream, ack);
  }
}

void Datanode::maybe_emit_fnfa(PipelineCtx& ctx) {
  if (ctx.fnfa_emitted || ctx.last_seq < 0) return;
  const std::int64_t expected = ctx.last_seq - ctx.resume_start_seq + 1;
  if (ctx.written_count < expected) return;
  ctx.fnfa_emitted = true;
  ++fnfa_sent_;
  if (trace::active()) {
    trace::recorder()->instant(
        trace::Category::kPipeline, "dn " + self_.to_string(), "FNFA sent",
        {{"block", ctx.setup.block.to_string()},
         {"pipeline", ctx.setup.pipeline.to_string()}});
  }
  SMARTH_DEBUG("datanode") << self_.to_string()
                           << " holds all packets of "
                           << ctx.setup.block.to_string()
                           << "; sending FNFA";
  transport_.send_fnfa(self_, ctx.setup.client_node,
                       FnfaMessage{ctx.setup.pipeline, ctx.setup.block});
}

void Datanode::maybe_finalize(PipelineId pipeline, PipelineCtx& ctx) {
  if (ctx.finalized || ctx.last_seq < 0) return;
  const std::int64_t expected = ctx.last_seq - ctx.resume_start_seq + 1;
  if (ctx.acked_count < expected) return;
  ctx.finalized = true;
  const auto len = store_.finalize(ctx.setup.block);
  SMARTH_CHECK(len.ok());
  if (trace::active()) {
    trace::recorder()->instant(
        trace::Category::kBlock, "dn " + self_.to_string(), "finalize",
        {{"block", ctx.setup.block.to_string()},
         {"bytes", std::to_string(len.value())},
         {"pipeline", ctx.setup.pipeline.to_string()}});
  }
  SMARTH_DEBUG("datanode") << self_.to_string() << " finalized "
                           << ctx.setup.block.to_string() << " ("
                           << format_bytes(len.value()) << ")";
  rpc_.notify(self_, namenode_.node_id(),
              [this, block = ctx.setup.block, bytes = len.value()] {
                namenode_.block_received(self_, block, bytes);
              },
              {rpc::ServiceClass::kHeartbeat});
  pipelines_.erase(pipeline);
}

void Datanode::deliver_read_request(const ReadRequest& request) {
  if (crashed_) return;  // the reader's timeout handles it
  const auto replica = store_.replica(request.block);
  const bool available =
      replica.ok() && replica.value().bytes >= request.offset + request.length;
  if (!available || request.length <= 0) {
    ReadPacket nak;
    nak.read = request.read;
    nak.block = request.block;
    nak.error = true;
    nak.last = true;
    transport_.send_read_packet(self_, request.reader_node, nak);
    return;
  }
  ++reads_served_;
  serve_read_packet(request, request.length);
}

void Datanode::cancel_read(ReadId read) {
  cancelled_reads_.insert(read.value());
  metrics::global_registry().counter("hedge.cancelled").add();
}

void Datanode::serve_read_packet(ReadRequest request, Bytes remaining) {
  if (crashed_ || remaining <= 0) return;
  const Bytes read_size = std::min(remaining, config_.transfer_payload());
  const auto read_ops =
      static_cast<std::uint64_t>(config_.packets_in_transfer(read_size));
  const SimTime issued_at = sim_.now();
  // The capture stays within the disk callback's inline storage: payload and
  // seq are recomputed from `remaining` (every packet but the last is full).
  disk_->read(read_size, read_ops, [this, request, remaining, issued_at] {
    if (crashed_) return;
    const Bytes payload = std::min(remaining, config_.transfer_payload());
    const std::int64_t seq =
        (request.length - remaining) / config_.transfer_payload();
    const SimDuration served = sim_.now() - issued_at;
    const auto it = cancelled_reads_.find(request.read.value());
    if (it != cancelled_reads_.end()) {
      // Hedge loser: the client already took the block from the winner. Stop
      // streaming and keep the slow-disk evidence out of the per-node
      // ack-latency histogram that straggler attribution reads.
      cancelled_reads_.erase(it);
      hedge_cancelled_hist_->observe(static_cast<double>(served));
      return;
    }
    if (config_.hedged_reads) {
      // Hedged mode folds read-serve latency into the same per-node latency
      // histogram the hedge timer derives its threshold from, so a gray node
      // that only serves reads still grows a visibly slow profile.
      ack_latency_hist_->observe(static_cast<double>(served));
    }
    // Verify the chunk CRCs covering this packet's byte range, as a real
    // datanode does after pulling the bytes off disk. On mismatch no payload
    // leaves this node — the reader is told to fail over and report us.
    const Bytes packet_offset = request.offset + (request.length - remaining);
    if (!store_.verify_range(request.block, packet_offset, payload)) {
      ++read_verify_failures_;
      metrics::global_registry().counter("datanode.read_verify_failures").add();
      if (trace::active()) {
        trace::recorder()->instant(
            trace::Category::kRead, "dn " + self_.to_string(),
            "read checksum mismatch",
            {{"block", request.block.to_string()},
             {"offset", std::to_string(packet_offset)}});
      }
      SMARTH_WARN("datanode") << self_.to_string()
                              << " read verification failed on "
                              << request.block.to_string() << " at offset "
                              << packet_offset;
      ReadPacket bad;
      bad.read = request.read;
      bad.block = request.block;
      bad.seq = seq;
      bad.corrupt = true;
      bad.last = true;
      transport_.send_read_packet(self_, request.reader_node, bad);
      return;  // stop streaming this replica
    }
    ReadPacket packet;
    packet.read = request.read;
    packet.block = request.block;
    packet.seq = seq;
    packet.payload = payload;
    packet.last = remaining == payload;
    read_bytes_served_ += payload;
    transport_.send_read_packet(self_, request.reader_node, packet);
    // Next disk read proceeds without waiting for the network send; the
    // egress link and disk FIFO each pace themselves.
    serve_read_packet(request, remaining - payload);
  });
}

ReplicaProbeResult Datanode::probe_replica(BlockId block) const {
  ReplicaProbeResult result;
  result.alive = !crashed_;
  if (crashed_) return result;
  const auto info = store_.replica(block);
  if (info.ok()) {
    result.has_replica = true;
    result.bytes = info.value().bytes;
  }
  return result;
}

Status Datanode::truncate_replica(BlockId block, Bytes length) {
  if (crashed_) return make_error("crashed", "datanode down");
  if (!store_.has_replica(block)) {
    // A pipeline member whose upstream died before forwarding anything: it
    // resumes from scratch, so materialize the empty replica here.
    if (length != 0) {
      return make_error("replica_missing",
                        "cannot truncate absent replica to nonzero length");
    }
    return store_.create_replica(block);
  }
  return store_.truncate(block, length);
}

void Datanode::abort_pipeline(PipelineId pipeline) {
  auto it = pipelines_.find(pipeline);
  if (it == pipelines_.end()) return;
  storage::StagingBuffer& buf = staging_for(it->second.setup.client);
  buf.release(std::min(it->second.staging_held, buf.used()));
  pipelines_.erase(it);
}

void Datanode::abort_block(BlockId block) {
  if (crashed_) return;
  for (auto it = pipelines_.begin(); it != pipelines_.end();) {
    if (it->second.setup.block == block) {
      storage::StagingBuffer& buf = staging_for(it->second.setup.client);
      buf.release(std::min(it->second.staging_held, buf.used()));
      it = pipelines_.erase(it);
    } else {
      ++it;
    }
  }
}

Result<Bytes> Datanode::commit_replica(BlockId block, Bytes length) {
  if (crashed_) return Error{"crashed", "datanode down"};
  const auto info = store_.replica(block);
  if (!info.ok()) {
    return Error{"replica_missing", "no replica of " + block.to_string()};
  }
  if (info.value().bytes < length) {
    return Error{"short_replica",
                 block.to_string() + " holds " +
                     std::to_string(info.value().bytes) + " < " +
                     std::to_string(length)};
  }
  if (info.value().state == storage::ReplicaState::kFinalized) {
    if (info.value().bytes != length) {
      return Error{"length_mismatch",
                   block.to_string() + " finalized at " +
                       std::to_string(info.value().bytes) + ", want " +
                       std::to_string(length)};
    }
    return length;  // idempotent: an earlier round already committed it
  }
  if (info.value().bytes > length) {
    const Status st = store_.truncate(block, length);
    if (!st.ok()) return st.error();
  }
  const auto fin = store_.finalize(block);
  if (!fin.ok()) return fin.error();
  // No blockReceived notify here: the namenode learns the holder set from
  // commitBlockSynchronization itself, and the heartbeat's incremental
  // report re-asserts the finalized replica should that commit get lost.
  return length;
}

void Datanode::discard_replica(BlockId block) {
  if (crashed_) return;
  if (store_.has_replica(block)) SMARTH_CHECK(store_.remove(block).ok());
}

void Datanode::recover_uc_block(const UcRecoveryCommand& cmd) {
  if (crashed_) return;
  SMARTH_INFO("datanode") << self_.to_string()
                          << " primary for commitBlockSynchronization of "
                          << cmd.block.to_string() << " ("
                          << cmd.targets.size() << " targets"
                          << (cmd.tail ? ", tail)" : ")");
  auto sync = std::make_shared<UcSync>();
  sync->cmd = cmd;
  sync->awaiting = cmd.targets.size();
  for (NodeId target : cmd.targets) {
    if (target == self_) {
      abort_block(cmd.block);
      sync->probes.emplace_back(target, probe_replica(cmd.block));
      if (--sync->awaiting == 0) apply_uc_sync(sync);
      continue;
    }
    // Tear down the dead writer's pipeline state on the peer first. Aborts
    // never touch replica bytes, so ordering against the probe is
    // irrelevant.
    rpc_.notify(self_, target, [this, target, block = cmd.block] {
      Datanode* peer = transport_.datanode(target);
      if (peer != nullptr) peer->abort_block(block);
    });
    auto settled = std::make_shared<bool>(false);
    auto settle = [this, sync, target, settled](ReplicaProbeResult result) {
      if (*settled) return;
      *settled = true;
      if (crashed_) return;  // primary died mid-round; the monitor re-elects
      sync->probes.emplace_back(target, result);
      if (--sync->awaiting == 0) apply_uc_sync(sync);
    };
    Datanode* peer = transport_.datanode(target);
    if (peer != nullptr) {
      rpc_.call<ReplicaProbeResult>(
          self_, target, [peer, block = cmd.block] {
            return peer->probe_replica(block);
          },
          [settle](ReplicaProbeResult result) { settle(result); });
    }
    sim_.schedule_after(kProbeTimeout,
                        [settle] { settle(ReplicaProbeResult{}); });
  }
}

void Datanode::apply_uc_sync(const std::shared_ptr<UcSync>& sync) {
  if (crashed_) return;
  // Deterministic order regardless of probe completion interleaving.
  std::sort(sync->probes.begin(), sync->probes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  // Durable candidates: live responders holding a nonempty replica. A
  // zero-byte replica (setup arrived, no packet written) contributes no
  // salvageable data and must not drag the sync point to zero.
  Bytes target_len = 0;
  bool have_candidate = false;
  for (const auto& [node, probe] : sync->probes) {
    if (!probe.alive || !probe.has_replica || probe.bytes == 0) continue;
    if (sync->cmd.tail) {
      target_len = have_candidate ? std::min(target_len, probe.bytes)
                                  : probe.bytes;
    } else {
      target_len = std::max(target_len, probe.bytes);
    }
    have_candidate = true;
  }
  if (!have_candidate) {
    SMARTH_WARN("datanode") << "no durable replica of "
                            << sync->cmd.block.to_string()
                            << "; reporting abandonment";
    report_uc_sync(sync->cmd.block, 0, {});
    return;
  }

  struct Commit {
    std::vector<NodeId> holders;
    std::size_t awaiting = 0;
    Bytes length = 0;
  };
  auto commit = std::make_shared<Commit>();
  commit->length = target_len;
  const BlockId block = sync->cmd.block;
  std::vector<NodeId> participants;
  for (const auto& [node, probe] : sync->probes) {
    if (!probe.alive || !probe.has_replica) continue;
    if (probe.bytes < target_len) {
      // Straggler (possible only in finalize-at-max mode, or a zero-byte
      // shell in tail mode): its prefix is a strict subset of what the
      // holders keep, so it is dropped rather than synchronized.
      if (node == self_) {
        discard_replica(block);
      } else {
        rpc_.notify(self_, node, [this, node, block] {
          Datanode* peer = transport_.datanode(node);
          if (peer != nullptr) peer->discard_replica(block);
        });
      }
      continue;
    }
    participants.push_back(node);
  }
  commit->awaiting = participants.size();
  for (NodeId node : participants) {
    auto settle = [this, commit, node, block](bool ok) {
      if (crashed_) return;
      if (ok) commit->holders.push_back(node);
      if (--commit->awaiting == 0) {
        std::sort(commit->holders.begin(), commit->holders.end());
        report_uc_sync(block, commit->length, std::move(commit->holders));
      }
    };
    if (node == self_) {
      settle(commit_replica(block, target_len).ok());
      continue;
    }
    auto settled = std::make_shared<bool>(false);
    auto once = [settle, settled](bool ok) {
      if (*settled) return;
      *settled = true;
      settle(ok);
    };
    Datanode* peer = transport_.datanode(node);
    if (peer != nullptr) {
      rpc_.call<bool>(
          self_, node, [peer, block, target_len] {
            return peer->commit_replica(block, target_len).ok();
          },
          [once](bool ok) { once(ok); });
    }
    sim_.schedule_after(kProbeTimeout, [once] { once(false); });
  }
}

void Datanode::report_uc_sync(BlockId block, Bytes length,
                              std::vector<NodeId> holders) {
  if (length > 0 && holders.empty()) {
    // Every commit failed (e.g. the targets crashed between probe and
    // commit). Report nothing: the monitor's round deadline will re-elect a
    // primary with fresh liveness data rather than abandoning data that may
    // still exist.
    SMARTH_WARN("datanode") << "commitBlockSynchronization of "
                            << block.to_string()
                            << " committed no replica; leaving to retry";
    return;
  }
  rpc_.notify(self_, namenode_.node_id(),
              [this, block, length, holders = std::move(holders)] {
                namenode_.commit_block_synchronization(block, length, holders);
              });
}

void Datanode::transfer_replica(BlockId block, NodeId dest, Bytes length,
                                std::function<void(bool)> done,
                                bool finalize_at_dest) {
  if (crashed_) {
    done(false);
    return;
  }
  const auto info = store_.replica(block);
  if (!info.ok() || info.value().bytes < length) {
    done(false);
    return;
  }
  if (!store_.verify_range(block, 0, length)) {
    // The chosen re-replication source has itself rotted. Never propagate
    // bad bytes: self-report so the namenode quarantines this copy too, and
    // fail the transfer so the monitor retries from another holder.
    SMARTH_WARN("datanode") << self_.to_string()
                            << " refusing to copy corrupt replica "
                            << block.to_string();
    rpc_.notify(self_, namenode_.node_id(), [this, block] {
      namenode_.report_bad_replica(block, self_);
    });
    done(false);
    return;
  }
  // Read the replica off the local disk, then one bulk transfer over the
  // fabric; the destination writes it durably and the completion flows back
  // through `done` (whose RPC response message is paid by the caller's
  // call_async).
  disk_->read(length, [this, block, dest, length, finalize_at_dest,
                       done = std::move(done)]() mutable {
    if (crashed_) {
      done(false);
      return;
    }
    // A distinct flow key keeps this one bulk copy from monopolizing shared
    // links over concurrent pipeline/read traffic.
    const net::FlowKey flow =
        (net::FlowKey{1} << 40) + static_cast<net::FlowKey>(block.value());
    transport_.network().send(
        self_, dest, length + kPacketHeaderWire,
        [this, block, dest, length, finalize_at_dest,
         done = std::move(done)]() mutable {
          Datanode* peer = transport_.datanode(dest);
          if (peer == nullptr || peer->crashed()) {
            done(false);
            return;
          }
          peer->receive_replica_prefix(
              block, length, finalize_at_dest,
              [done = std::move(done)] { done(true); });
        },
        net::LinkPriority::kBulk, flow);
  });
}

void Datanode::receive_replica_prefix(BlockId block, Bytes length,
                                      bool finalize,
                                      std::function<void()> done) {
  // A replacement transfer supersedes whatever this node held for the block
  // (e.g. a stale or finalized copy from an earlier pipeline incarnation).
  if (store_.has_replica(block)) {
    SMARTH_CHECK(store_.remove(block).ok());
  }
  SMARTH_CHECK(store_.create_replica(block).ok());
  disk_->write(length, [this, block, length, finalize,
                        done = std::move(done)] {
    SMARTH_CHECK(store_.append(block, length).ok());
    if (finalize) {
      SMARTH_CHECK(store_.finalize(block).ok());
      rpc_.notify(self_, namenode_.node_id(),
                  [this, block, length] {
                    namenode_.block_received(self_, block, length);
                  },
                  {rpc::ServiceClass::kHeartbeat});
    }
    done();
  });
}

}  // namespace smarth::hdfs
