#include "smarth/smarth_stream.hpp"

#include "common/log.hpp"
#include "smarth/local_optimizer.hpp"

namespace smarth::core {

using hdfs::ClientPipeline;

SmarthOutputStream::SmarthOutputStream(hdfs::StreamDeps deps, ClientId client,
                                       NodeId client_node, FileId file,
                                       Bytes file_size, SpeedTracker& tracker,
                                       DoneCallback on_done)
    : OutputStreamBase(std::move(deps), client, client_node, file, file_size,
                       std::move(on_done)),
      tracker_(tracker) {}

bool SmarthOutputStream::production_window_open() const {
  // Production may run one block ahead of the wire; pipelines hold their own
  // in-flight state.
  return data_queue_.size() <
         static_cast<std::size_t>(deps_.config.transfers_per_block());
}

bool SmarthOutputStream::may_advance() {
  // The protocol's pacing rule: the next block may start only once the
  // current block is fully held by its first datanode (FNFA). This guard
  // also makes post-recovery advance calls safe — a resumed streaming
  // pipeline blocks further dispatch until its own FNFA arrives.
  const ClientPipeline* s = find_pipeline(streaming_);
  return s == nullptr || s->fnfa;
}

std::vector<NodeId> SmarthOutputStream::placement_exclusions() const {
  // The buffer-overflow guard (§IV-C): a datanode already serving one of this
  // client's pipelines may not join another, which caps concurrent pipelines
  // at |datanodes| / replication.
  std::vector<NodeId> nodes;
  if (!deps_.config.enforce_pipeline_cap) return nodes;
  for (const auto& [id, p] : pipelines_) {
    nodes.insert(nodes.end(), p.targets.begin(), p.targets.end());
  }
  return nodes;
}

bool SmarthOutputStream::wait_for_slot(const Error& refusal) {
  // Every eligible datanode is busy in one of our pipelines: wait for a
  // pipeline to drain, then retry (the guard working as intended).
  if (refusal.code != "insufficient_datanodes" || pipelines_.empty()) {
    return false;
  }
  ++slot_waits_;
  return true;
}

void SmarthOutputStream::order_targets(std::vector<NodeId>& targets) {
  if (!deps_.config.smarth_local_opt) return;
  targets = local_optimize(std::move(targets), tracker_, deps_.sim.rng(),
                           deps_.config.local_opt_threshold)
                .targets;
}

void SmarthOutputStream::pump_stream() {
  if (finished_ || !error_pipelines_.empty()) return;  // Alg. 4: paused

  const auto window_open = [this](const ClientPipeline& p) {
    // SMARTH streams a whole block ahead of full-pipeline ACKs; the window is
    // a block, i.e. effectively open until the block is fully in flight.
    return p.ack_queue.size() <
           static_cast<std::size_t>(
               deps_.config.smarth_outstanding_transfers());
  };

  // Recovered pipelines retransmit their backlog first.
  for (auto& [id, p] : pipelines_) {
    if (!p.ready || p.failed) continue;
    while (!p.pending.empty() && window_open(p)) send_next_packet(p);
  }
  // Fresh data flows into the streaming pipeline.
  ClientPipeline* p = find_pipeline(streaming_);
  if (p != nullptr && p->ready && !p->failed) {
    while (!data_queue_.empty() &&
           data_queue_.front().block_index == p->block_index &&
           window_open(*p)) {
      p->pending.push_back(data_queue_.front());
      data_queue_.pop_front();
      send_next_packet(*p);
    }
  }
  pump_production();
}

void SmarthOutputStream::deliver_fnfa(const hdfs::FnfaMessage& fnfa) {
  ClientPipeline* pipeline = find_pipeline(fnfa.pipeline);
  if (pipeline == nullptr || finished_ || pipeline->failed) return;
  if (pipeline->fnfa) return;
  pipeline->fnfa = true;
  pipeline->fnfa_at = deps_.sim.now();
  ++fnfa_received_;
  if (trace::active()) {
    trace::recorder()->instant(
        trace::Category::kPipeline, trace_track(pipeline->block_index), "FNFA",
        {{"block", fnfa.block.to_string()},
         {"pipeline", fnfa.pipeline.to_string()},
         {"first_node", pipeline->targets[0].to_string()}});
  }
  // The client's speed record for this first datanode: whole-block bytes over
  // first-packet-sent -> FNFA (network + the node's storage path).
  if (pipeline->first_packet_sent >= 0) {
    tracker_.record(pipeline->targets[0],
                    pipeline->block_bytes - pipeline->resume_offset,
                    pipeline->fnfa_at - pipeline->first_packet_sent,
                    deps_.sim.now());
  }
  SMARTH_DEBUG("smarth") << "FNFA for " << fnfa.block.to_string()
                         << "; advancing while replicas drain";
  // The heart of SMARTH: the first node holds the whole block, so the client
  // moves on to the next block without waiting for the replica ACKs.
  if (fnfa.pipeline == streaming_) advance_block();
}

}  // namespace smarth::core
