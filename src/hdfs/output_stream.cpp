#include "hdfs/output_stream.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"
#include "hdfs/recovery.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::hdfs {

namespace {
/// A stream fails its upload after waiting this long in total for a
/// safe-mode namenode per allocation.
constexpr SimDuration kSafeModeRetryBudget = seconds(60);
/// Recovery rounds a single block may consume before the stream gives up
/// cleanly (Hadoop's dfs.client.block.write.retries analogue).
constexpr int kRecoveryAttemptsPerBlock = 5;
/// Slow-node eviction: a node is a straggler when its own-time exceeds the
/// median own-time of its pipeline peers by this factor.
constexpr double kEvictionOutlierFactor = 4.0;
/// ACK samples each pipeline member must contribute within the current
/// pipeline before the detector may speak — one slow seek is not a pattern.
constexpr std::uint64_t kEvictionMinSamples = 12;
/// Quiet period between evictions on one stream, so a recovering pipeline
/// is not immediately re-judged on its warm-up ACKs.
constexpr SimDuration kEvictionCooldown = seconds(5);
}  // namespace

OutputStreamBase::OutputStreamBase(StreamDeps deps, ClientId client,
                                   NodeId client_node, FileId file,
                                   Bytes file_size, DoneCallback on_done)
    : deps_(std::move(deps)), client_(client), client_node_(client_node),
      file_(file), file_size_(file_size), on_done_(std::move(on_done)) {
  SMARTH_CHECK_MSG(file_size_ > 0, "cannot upload an empty file");
  const std::int64_t blocks = total_blocks();
  total_packets_ = 0;
  for (std::int64_t b = 0; b < blocks; ++b) total_packets_ += packets_in_block(b);
  stats_.client = client_;
  stats_.file_size = file_size_;
  stats_.blocks = blocks;
  bytes_acked_counter_ = &metrics::global_registry().counter("client.bytes_acked");
}

OutputStreamBase::~OutputStreamBase() {
  *alive_ = false;
  for (PipelineId id : opened_pipelines_) deps_.transport.close_pipeline(id);
}

void OutputStreamBase::start() {
  stats_.started_at = deps_.sim.now();
  metrics::global_registry().gauge("client.streams_open").add(1.0);
  counted_open_ = true;
  if (trace::active()) {
    upload_span_ = trace::recorder()->begin_span(
        trace::Category::kRun, "client", "upload",
        {{"client", client_.to_string()},
         {"file", file_.to_string()},
         {"bytes", std::to_string(file_size_)},
         {"blocks", std::to_string(total_blocks())}});
  }
  pump_production();
  advance_block();
}

std::string OutputStreamBase::trace_track(std::int64_t block_index) {
  return "block " + std::to_string(block_index);
}

void OutputStreamBase::trace_pipeline_ready(ClientPipeline& pipeline) {
  if (!trace::active()) return;
  trace::recorder()->end_span(pipeline.span_setup);
  pipeline.span_stream = trace::recorder()->begin_span(
      trace::Category::kBlock, trace_track(pipeline.block_index), "stream",
      {{"block_index", std::to_string(pipeline.block_index)},
       {"block", pipeline.block.to_string()},
       {"pipeline", pipeline.id.to_string()}});
}

void OutputStreamBase::trace_pipeline_closed(ClientPipeline& pipeline,
                                             const char* outcome) {
  if (!trace::active()) return;
  trace::Args extra = {{"outcome", outcome}};
  trace::recorder()->end_span(pipeline.span_setup, extra);
  trace::recorder()->end_span(pipeline.span_stream, extra);
  trace::recorder()->end_span(pipeline.span_tail, extra);
}

std::int64_t OutputStreamBase::total_blocks() const {
  return (file_size_ + deps_.config.block_size - 1) / deps_.config.block_size;
}

Bytes OutputStreamBase::block_bytes(std::int64_t block_index) const {
  const Bytes start = block_index * deps_.config.block_size;
  SMARTH_DCHECK(start < file_size_);
  return std::min(deps_.config.block_size, file_size_ - start);
}

// Stream geometry is expressed in transfer units (== packets in packet
// fidelity, coalesced multi-packet units in block fidelity); `seq` fields
// index transfer units within a block.
std::int64_t OutputStreamBase::packets_in_block(
    std::int64_t block_index) const {
  const Bytes unit = deps_.config.transfer_payload();
  const Bytes bytes = block_bytes(block_index);
  return (bytes + unit - 1) / unit;
}

Bytes OutputStreamBase::packet_payload(std::int64_t block_index,
                                       std::int64_t seq) const {
  const Bytes unit = deps_.config.transfer_payload();
  const Bytes remaining = block_bytes(block_index) - seq * unit;
  SMARTH_DCHECK(remaining > 0);
  return std::min(unit, remaining);
}

void OutputStreamBase::pump_production() {
  if (!producer_armed_) produce_loop();
}

void OutputStreamBase::produce_loop() {
  if (finished_ || produced_packets_ >= total_packets_ ||
      !production_window_open()) {
    producer_armed_ = false;
    return;
  }
  producer_armed_ = true;
  const SimDuration production_time = deps_.config.transfer_production_time(
      packet_payload(produce_block_, produce_seq_));
  producer_event_ =
      deps_.sim.schedule_after(production_time, "client.produce", [this] {
    if (finished_) {
      producer_armed_ = false;
      return;
    }
    ProducedPacket packet;
    packet.block_index = produce_block_;
    packet.seq_in_block = produce_seq_;
    packet.payload = packet_payload(produce_block_, produce_seq_);
    packet.last_in_block = produce_seq_ + 1 == packets_in_block(produce_block_);
    if (packet.last_in_block) {
      ++produce_block_;
      produce_seq_ = 0;
    } else {
      ++produce_seq_;
    }
    data_queue_.push_back(packet);
    ++produced_packets_;
    ++stats_.packets;
    pump_stream();
    producer_armed_ = false;
    produce_loop();
  });
}

bool OutputStreamBase::start_safe_mode_wait() {
  const SimTime now = deps_.sim.now();
  if (safe_mode_wait_started_ < 0) safe_mode_wait_started_ = now;
  if (now - safe_mode_wait_started_ <= kSafeModeRetryBudget) {
    return true;
  }
  SMARTH_ERROR("stream") << "namenode still in safe mode after "
                         << to_seconds(now - safe_mode_wait_started_)
                         << "s; giving up";
  return false;
}

bool OutputStreamBase::start_overload_wait() {
  const SimTime now = deps_.sim.now();
  if (overload_wait_started_ < 0) overload_wait_started_ = now;
  if (now - overload_wait_started_ <= deps_.config.overload_retry_budget) {
    return true;
  }
  SMARTH_ERROR("stream") << "namenode still shedding our calls after "
                         << to_seconds(now - overload_wait_started_)
                         << "s; giving up";
  return false;
}

bool OutputStreamBase::recovery_budget_exhausted(BlockId block) {
  const int attempts = ++recovery_attempts_[block.value()];
  if (attempts <= kRecoveryAttemptsPerBlock) return false;
  SMARTH_ERROR("stream") << "recovery budget ("
                         << kRecoveryAttemptsPerBlock
                         << ") exhausted for " << block.to_string();
  return true;
}

void OutputStreamBase::note_recovery_start(PipelineId pipeline) {
  recovery_started_[pipeline] = deps_.sim.now();
  if (trace::active()) {
    const ClientPipeline* p = find_pipeline(pipeline);
    const std::string track =
        p != nullptr ? trace_track(p->block_index) : std::string("client");
    trace::Args args = {{"pipeline", pipeline.to_string()}};
    if (p != nullptr) {
      args.emplace_back("block_index", std::to_string(p->block_index));
      args.emplace_back("block", p->block.to_string());
    }
    recovery_spans_[pipeline] = trace::recorder()->begin_span(
        trace::Category::kRecovery, track, "recovery", std::move(args));
  }
}

void OutputStreamBase::note_recovery_end(PipelineId pipeline) {
  auto it = recovery_started_.find(pipeline);
  if (it == recovery_started_.end()) return;
  const SimDuration took = deps_.sim.now() - it->second;
  recovery_started_.erase(it);
  metrics::global_registry()
      .histogram("stream.recovery_ns")
      .observe(static_cast<double>(took));
  if (trace::active()) {
    auto span = recovery_spans_.find(pipeline);
    if (span != recovery_spans_.end()) {
      trace::recorder()->end_span(span->second);
      recovery_spans_.erase(span);
    }
  }
}

void OutputStreamBase::request_block(
    std::int64_t block_index, std::vector<NodeId> excluded,
    std::function<void(Result<LocatedBlock>)> cb) {
  Namenode& nn = deps_.namenode;
  std::vector<NodeId> deprioritized;
  if (deps_.quarantine != nullptr) deprioritized = deps_.quarantine->active();
  auto shared_cb =
      std::make_shared<std::function<void(Result<LocatedBlock>)>>(
          std::move(cb));
  trace::SpanHandle alloc_span;
  if (trace::active()) {
    alloc_span = trace::recorder()->begin_span(
        trace::Category::kBlock, trace_track(block_index), "allocate",
        {{"block_index", std::to_string(block_index)},
         {"client", client_.to_string()}});
  }
  // Client-observed addBlock latency (whole retry chain, success or error):
  // the saturation study's headline tail-latency series.
  const SimTime issued_at = deps_.sim.now();
  rpc::call_with_retry<Result<LocatedBlock>>(
      deps_.rpc, deps_.sim, rpc::RetryPolicy{}, client_node_, nn.node_id(),
      [&nn, file = file_, client = client_, node = client_node_,
       excluded = std::move(excluded),
       deprioritized = std::move(deprioritized), block_index] {
        return nn.add_block(file, client, node, excluded, deprioritized,
                            block_index);
      },
      [alive = alive_, shared_cb, alloc_span, issued_at,
       &sim = deps_.sim](Result<LocatedBlock> result) mutable {
        metrics::global_registry()
            .histogram("client.addblock_ns")
            .observe(static_cast<double>(sim.now() - issued_at));
        if (trace::active()) {
          trace::recorder()->end_span(
              alloc_span,
              {{"ok", result.ok() ? "true" : "false"},
               {"block",
                result.ok() ? result.value().block.to_string() : ""}});
        }
        if (!*alive) return;  // stream was pruned while the RPC was in flight
        (*shared_cb)(std::move(result));
      },
      [alive = alive_, shared_cb, alloc_span, issued_at,
       &sim = deps_.sim]() mutable {
        metrics::global_registry()
            .histogram("client.addblock_ns")
            .observe(static_cast<double>(sim.now() - issued_at));
        if (trace::active()) {
          trace::recorder()->end_span(alloc_span, {{"ok", "timeout"}});
        }
        if (!*alive) return;
        (*shared_cb)(Error{"rpc_timeout",
                           "addBlock gave up after repeated timeouts"});
      },
      retry_stats_, "addBlock",
      {rpc::ServiceClass::kAddBlock, client_.value()},
      [] {
        return Result<LocatedBlock>(
            Error{"overloaded", "namenode shed addBlock"});
      },
      [](const Result<LocatedBlock>& r) {
        return !r.ok() && r.error().code == "overloaded";
      });
}

ClientPipeline& OutputStreamBase::create_pipeline(std::int64_t block_index,
                                                  const LocatedBlock& located,
                                                  Bytes resume_offset) {
  const PipelineId id = deps_.transport.open_pipeline(*this);
  opened_pipelines_.push_back(id);
  ClientPipeline pipeline;
  pipeline.id = id;
  pipeline.block_index = block_index;
  pipeline.block = located.block;
  pipeline.targets = located.targets;
  pipeline.block_bytes = block_bytes(block_index);
  pipeline.num_packets = packets_in_block(block_index);
  pipeline.resume_offset = resume_offset;
  pipeline.set_resume_packets(resume_offset / deps_.config.transfer_payload());
  pipeline.created_at = deps_.sim.now();

  if (deps_.config.slow_node_eviction) {
    pipeline.ack_baselines.reserve(located.targets.size());
    for (NodeId target : located.targets) {
      ClientPipeline::AckBaseline base;
      if (const auto* hist = metrics::global_registry().find_histogram(
              "datanode." + target.to_string() + ".ack_ns")) {
        const auto stats = hist->stats();
        base.sum = stats.sum();
        base.count = stats.count();
      }
      pipeline.ack_baselines.push_back(base);
    }
  }

  auto [it, inserted] = pipelines_.emplace(id, std::move(pipeline));
  SMARTH_CHECK(inserted);
  safe_mode_wait_started_ = -1;  // allocation landed; safe-mode wait is over
  overload_wait_started_ = -1;   // ...and so is any overload wait
  ++stats_.pipelines_created;
  stats_.max_concurrent_pipelines =
      std::max(stats_.max_concurrent_pipelines,
               static_cast<int>(pipelines_.size()));

  PipelineSetup setup;
  setup.pipeline = id;
  setup.block = located.block;
  setup.targets = located.targets;
  setup.client_node = client_node_;
  setup.client = client_;
  setup.smarth_mode = requests_fnfa();
  setup.resume_offset = resume_offset;
  SMARTH_CHECK_MSG(!located.targets.empty(), "pipeline with no targets");
  if (trace::active()) {
    std::string targets;
    for (NodeId t : located.targets) {
      if (!targets.empty()) targets += "+";
      targets += t.to_string();
    }
    it->second.span_setup = trace::recorder()->begin_span(
        trace::Category::kBlock, trace_track(block_index), "setup",
        {{"block_index", std::to_string(block_index)},
         {"block", located.block.to_string()},
         {"pipeline", id.to_string()},
         {"targets", targets},
         {"resume_offset", std::to_string(resume_offset)}});
  }
  deps_.transport.send_setup(client_node_, located.targets[0], setup);
  return it->second;
}

void OutputStreamBase::send_next_packet(ClientPipeline& pipeline) {
  SMARTH_CHECK(!pipeline.pending.empty());
  ProducedPacket produced = pipeline.pending.front();
  pipeline.pending.pop_front();

  WirePacket wire;
  wire.pipeline = pipeline.id;
  wire.block = pipeline.block;
  wire.seq = produced.seq_in_block;
  wire.payload = produced.payload;
  wire.last_in_block = produced.last_in_block;
  if (pipeline.first_packet_sent < 0) {
    pipeline.first_packet_sent = deps_.sim.now();
  }
  deps_.transport.send_packet(client_node_, pipeline.targets[0], wire);
  pipeline.ack_queue.push_back(produced);
  // All of the block's packets are on the wire: the remaining wait is the
  // pipeline draining its ACKs (the tail-ACK phase of the lifecycle).
  if (trace::active() && pipeline.span_stream.valid() &&
      pipeline.pending.empty() &&
      pipeline.acked_packets +
              static_cast<std::int64_t>(pipeline.ack_queue.size()) >=
          pipeline.packets_since_resume()) {
    trace::recorder()->end_span(pipeline.span_stream);
    pipeline.span_tail = trace::recorder()->begin_span(
        trace::Category::kBlock, trace_track(pipeline.block_index), "tail-ack",
        {{"block_index", std::to_string(pipeline.block_index)},
         {"block", pipeline.block.to_string()},
         {"pipeline", pipeline.id.to_string()}});
  }
  arm_watchdog(pipeline);
}

void OutputStreamBase::complete_file() {
  if (finished_) return;
  Namenode& nn = deps_.namenode;
  rpc::call_with_retry<Result<bool>>(
      deps_.rpc, deps_.sim, rpc::RetryPolicy{}, client_node_, nn.node_id(),
      [&nn, file = file_, client = client_] {
        return nn.complete(file, client);
      },
      [this, alive = alive_](Result<bool> result) {
        if (!*alive || finished_) return;
        if (!result.ok()) {
          if (result.error().code == "overloaded" && start_overload_wait()) {
            // Shed even after RPC-level backoff: keep polling under the
            // overload budget rather than abandoning a fully-written file.
            complete_retry_ = deps_.sim.schedule_after(
                kOverloadRetryInterval, [this] { complete_file(); });
            return;
          }
          finish(true, result.error().to_string());
          return;
        }
        if (result.value()) {
          finish(false, "");
          return;
        }
        // Not all blocks reported yet (blockReceived still in flight):
        // retry, as the Hadoop client does.
        complete_retry_ = deps_.sim.schedule_after(
            milliseconds(300), [this] { complete_file(); });
      },
      [this, alive = alive_] {
        if (!*alive || finished_) return;
        finish(true, "complete() timed out after repeated attempts");
      },
      retry_stats_, "complete", {rpc::ServiceClass::kMeta},
      [] {
        return Result<bool>(Error{"overloaded", "namenode shed complete"});
      },
      [](const Result<bool>& r) {
        return !r.ok() && r.error().code == "overloaded";
      });
}

void OutputStreamBase::finish(bool failed, const std::string& reason) {
  if (finished_) return;
  finished_ = true;
  if (counted_open_) {
    metrics::global_registry().gauge("client.streams_open").add(-1.0);
    counted_open_ = false;
  }
  stats_.finished_at = deps_.sim.now();
  stats_.failed = failed;
  stats_.failure_reason = reason;
  stats_.rpc_retries = retry_stats_->retries;
  producer_event_.cancel();
  complete_retry_.cancel();
  safe_mode_retry_.cancel();
  for (auto& [id, pipeline] : pipelines_) {
    pipeline.watchdog.cancel();
    trace_pipeline_closed(pipeline, failed ? "aborted" : "complete");
  }
  if (trace::active()) {
    for (auto& [id, span] : recovery_spans_) {
      trace::recorder()->end_span(span, {{"outcome", "aborted"}});
    }
    recovery_spans_.clear();
    trace::recorder()->end_span(
        upload_span_, {{"failed", failed ? "true" : "false"},
                       {"reason", reason},
                       {"recoveries", std::to_string(stats_.recoveries)}});
  }
  if (failed) {
    SMARTH_ERROR("stream") << "upload failed: " << reason;
  }
  if (on_done_) on_done_(stats_);
}

void OutputStreamBase::abort(const std::string& reason) {
  finish(true, reason);
}

void OutputStreamBase::arm_watchdog(ClientPipeline& pipeline) {
  pipeline.watchdog.cancel();
  if (finished_ || pipeline.failed) return;
  const PipelineId id = pipeline.id;
  pipeline.watchdog =
      deps_.sim.schedule_after(deps_.config.ack_timeout, [this, id] {
        ClientPipeline* p = find_pipeline(id);
        if (p == nullptr || p->failed || p->complete() || finished_) return;
        // A ready pipeline with nothing outstanding is merely idle; one that
        // never became ready, or has un-acked traffic, has stalled.
        if (p->ready && p->ack_queue.empty() && p->pending.empty()) return;
        SMARTH_WARN("stream") << "ack timeout on pipeline " << id.to_string();
        on_pipeline_error(*p, -1);
      });
}

ClientPipeline* OutputStreamBase::find_pipeline(PipelineId id) {
  auto it = pipelines_.find(id);
  return it == pipelines_.end() ? nullptr : &it->second;
}

int OutputStreamBase::find_slow_pipeline_node(
    const ClientPipeline& pipeline) const {
  if (pipeline.ack_baselines.size() != pipeline.targets.size() ||
      pipeline.targets.size() < 2) {
    return -1;
  }
  // Windowed mean ack latency per member: this pipeline's delta against the
  // creation-time baseline of each node's histogram.
  std::vector<double> means(pipeline.targets.size(), 0.0);
  for (std::size_t i = 0; i < pipeline.targets.size(); ++i) {
    const auto* hist = metrics::global_registry().find_histogram(
        "datanode." + pipeline.targets[i].to_string() + ".ack_ns");
    if (hist == nullptr) return -1;
    const auto stats = hist->stats();
    const auto window_count = stats.count() - pipeline.ack_baselines[i].count;
    if (window_count < kEvictionMinSamples) return -1;
    means[i] = (stats.sum() - pipeline.ack_baselines[i].sum) /
               static_cast<double>(window_count);
  }
  // A node's ack latency includes the time it waited for its downstream
  // neighbour's ack, so segment i (the difference of adjacent means; the
  // tail's is its raw mean) isolates node i's write + the i -> i+1 hop.
  std::vector<double> own(means.size(), 0.0);
  for (std::size_t i = 0; i + 1 < means.size(); ++i) {
    own[i] = std::max(0.0, means[i] - means[i + 1]);
  }
  own.back() = std::max(0.0, means.back());
  std::vector<double> sorted = own;
  std::sort(sorted.begin(), sorted.end());
  const double median = sorted[sorted.size() / 2];
  if (median <= 0.0) return -1;
  const double bound = kEvictionOutlierFactor * median;
  std::size_t worst = 0;
  for (std::size_t i = 1; i < own.size(); ++i) {
    if (own[i] > own[worst]) worst = i;
  }
  if (own[worst] <= bound) return -1;
  // Segment `worst` straddles two nodes: node `worst`'s disk/egress and node
  // `worst + 1`'s ingress NIC both land in it (a slow ingress NIC makes the
  // upstream neighbour queue, so the wait is charged upstream). When the next
  // segment is also elevated the shared node (`worst + 1`) is poisoning both
  // — blame it, not its innocent upstream neighbour. The elevation test for
  // that next segment must exclude BOTH implicated segments from its
  // baseline: with replication 3 and a mid-pipeline straggler, two of the
  // three segments are inflated, so the plain median is itself inflated and
  // would mask the culprit.
  if (worst + 1 < own.size()) {
    std::vector<double> rest;
    for (std::size_t i = 0; i < own.size(); ++i) {
      if (i != worst && i != worst + 1) rest.push_back(own[i]);
    }
    if (!rest.empty()) {
      std::sort(rest.begin(), rest.end());
      const double peer_baseline = rest[rest.size() / 2];
      if (peer_baseline > 0.0 &&
          own[worst + 1] > kEvictionOutlierFactor * peer_baseline) {
        return static_cast<int>(worst + 1);
      }
    }
  }
  return static_cast<int>(worst);
}

bool OutputStreamBase::maybe_evict_slow_node(ClientPipeline& pipeline) {
  if (!deps_.config.slow_node_eviction || finished_ || pipeline.failed) {
    return false;
  }
  const SimTime now = deps_.sim.now();
  if (last_eviction_at_ >= 0 &&
      now - last_eviction_at_ < kEvictionCooldown) {
    return false;
  }
  const int slow_index = find_slow_pipeline_node(pipeline);
  if (slow_index < 0) return false;
  const NodeId slow = pipeline.targets[static_cast<std::size_t>(slow_index)];
  last_eviction_at_ = now;
  ++stats_.slow_evictions;
  metrics::global_registry().counter("write.slow_evictions").add();
  if (trace::active()) {
    trace::recorder()->instant(
        trace::Category::kRecovery, "stream", "slow node evicted",
        {{"pipeline", pipeline.id.to_string()},
         {"node", slow.to_string()},
         {"index", std::to_string(slow_index)}});
  }
  SMARTH_WARN("stream") << "pipeline " << pipeline.id.to_string()
                        << ": datanode " << slow.to_string()
                        << " is a mid-block straggler; evicting";
  Namenode& nn = deps_.namenode;
  deps_.rpc.notify(client_node_, nn.node_id(), [&nn, slow] {
    nn.report_slow_datanode(slow, kSuspicionEvictionWeight);
  });
  // The straggler rides the normal error path: recovery excludes the node at
  // error_index, splices in a replacement and transfers the prefix.
  on_pipeline_error(pipeline, slow_index);
  return true;
}

// ---------------------------------------------------------------------------
// Pipeline lifecycle
// ---------------------------------------------------------------------------

void OutputStreamBase::advance_block() {
  if (finished_ || awaiting_block_ || !error_pipelines_.empty()) return;
  if (!may_advance()) return;
  if (next_block_ >= total_blocks()) {
    maybe_complete();
    return;
  }
  awaiting_block_ = true;
  request_block(next_block_, placement_exclusions(),
                [this](Result<LocatedBlock> result) {
    if (finished_) return;
    awaiting_block_ = false;
    if (!result.ok()) {
      if (wait_for_slot(result.error())) return;
      if (result.error().code == "safe_mode" && start_safe_mode_wait()) {
        // The namenode is back up but still rebuilding its replica map from
        // block reports; poll until it leaves safe mode (budgeted).
        // next_block_ was not advanced, so the retry asks for the same block.
        safe_mode_retry_ = deps_.sim.schedule_after(
            kSafeModeRetryInterval, [this] { advance_block(); });
        return;
      }
      if (result.error().code == "overloaded" && start_overload_wait()) {
        // Admission control shed the allocation even after RPC backoff;
        // re-poll at the overload cadence under its budget.
        safe_mode_retry_ = deps_.sim.schedule_after(
            kOverloadRetryInterval, [this] { advance_block(); });
        return;
      }
      finish(true, "addBlock failed: " + result.error().to_string());
      return;
    }
    LocatedBlock& located = result.value();
    order_targets(located.targets);
    SMARTH_DEBUG("stream") << "addBlock -> " << located.block.to_string()
                           << " (block index " << next_block_ << ", "
                           << pipelines_.size() << " pipelines already live)";
    ClientPipeline& pipeline =
        create_pipeline(next_block_, located, /*resume_offset=*/0);
    streaming_ = pipeline.id;
    ++next_block_;
    arm_watchdog(pipeline);
  });
}

void OutputStreamBase::maybe_complete() {
  if (finished_ || complete_issued_ || next_block_ < total_blocks() ||
      !pipelines_.empty() || awaiting_block_ || !error_pipelines_.empty()) {
    return;
  }
  complete_issued_ = true;
  complete_file();
}

void OutputStreamBase::deliver_setup_ack(const SetupAck& ack) {
  ClientPipeline* pipeline = find_pipeline(ack.pipeline);
  if (pipeline == nullptr || finished_ || pipeline->failed) return;
  if (!ack.success) {
    on_pipeline_error(*pipeline, ack.error_index);
    return;
  }
  pipeline->ready = true;
  trace_pipeline_ready(*pipeline);
  SMARTH_DEBUG("stream") << "pipeline " << ack.pipeline.to_string()
                         << " ready";
  arm_watchdog(*pipeline);
  pump_stream();
}

void OutputStreamBase::deliver_ack(const PipelineAck& ack) {
  if (finished_) return;
  ClientPipeline* pipeline = find_pipeline(ack.pipeline);
  if (pipeline == nullptr || pipeline->failed) return;
  if (ack.status != AckStatus::kSuccess) {
    on_pipeline_error(*pipeline, ack.error_index);
    return;
  }
  if (pipeline->ack_queue.empty() ||
      pipeline->ack_queue.front().seq_in_block != ack.seq) {
    // An ack ahead of the queue head means an earlier ack was lost in
    // transit (a link flap or crash swallowed it): the ack stream is broken,
    // which is a pipeline error, not a protocol violation. Acks behind the
    // head are stale duplicates and are dropped.
    if (!pipeline->ack_queue.empty() &&
        ack.seq > pipeline->ack_queue.front().seq_in_block) {
      SMARTH_WARN("stream") << "ack gap on pipeline "
                            << ack.pipeline.to_string() << ": got seq "
                            << ack.seq << ", expected "
                            << pipeline->ack_queue.front().seq_in_block;
      on_pipeline_error(*pipeline, -1);
    }
    return;
  }
  bytes_acked_counter_->add(
      static_cast<std::uint64_t>(pipeline->ack_queue.front().payload));
  pipeline->ack_queue.pop_front();
  ++pipeline->acked_packets;
  arm_watchdog(*pipeline);
  if (pipeline->complete()) {
    trace_pipeline_closed(*pipeline, "complete");
    pipeline->watchdog.cancel();
    if (streaming_ == ack.pipeline) streaming_ = PipelineId{};
    pipelines_.erase(ack.pipeline);
    // A retired pipeline frees its datanodes and, for single-replica
    // pipelines whose final ACK can beat the FNFA message, also implies the
    // first datanode holds the whole block; the advance rule decides whether
    // the next block starts now. The retired pipeline's packets also leave
    // the production window, which pump_stream does not re-check when no
    // pipeline is ready to send.
    advance_block();
    pump_stream();
    pump_production();
    return;
  }
  // A mid-block straggler in *this* pipeline is replaced immediately.
  if (maybe_evict_slow_node(*pipeline)) return;
  pump_stream();
}

void OutputStreamBase::on_pipeline_error(ClientPipeline& pipeline,
                                         int error_index) {
  if (finished_ || pipeline.failed) return;
  if (recovery_budget_exhausted(pipeline.block)) {
    finish(true, "recovery budget exhausted for " +
                     pipeline.block.to_string());
    return;
  }
  SMARTH_WARN("stream") << "pipeline " << pipeline.id.to_string()
                        << " failed (error_index=" << error_index << ")";
  // Algorithm 4 lines 1-3 (Alg. 3 line 3 for a set of one): stop the current
  // block transfer, move the ACK queue back to the (re)send queue, and put
  // the pipeline in the error set.
  trace_pipeline_closed(pipeline, "error");
  pipeline.failed = true;
  pipeline.watchdog.cancel();
  ++stats_.recoveries;
  metrics::global_registry().counter("stream.recoveries").add();
  note_recovery_start(pipeline.id);
  pipeline.pending.insert(pipeline.pending.begin(),
                          pipeline.ack_queue.begin(),
                          pipeline.ack_queue.end());
  pipeline.ack_queue.clear();
  pipeline.error_index = error_index;
  error_pipelines_.insert(pipeline.id);
  recover_next_error_pipeline();
}

void OutputStreamBase::recover_next_error_pipeline() {
  if (recovery_running_ || error_pipelines_.empty() || finished_) return;
  recovery_running_ = true;
  const PipelineId id = *error_pipelines_.begin();
  ClientPipeline* pipeline = find_pipeline(id);
  SMARTH_CHECK(pipeline != nullptr);

  // Everything before the first un-acked packet is gone from the client's
  // resend buffer; recovery must not sync survivors below that offset.
  const Bytes durable_floor =
      pipeline->pending.empty()
          ? Bytes{0}
          : pipeline->pending.front().seq_in_block *
                deps_.config.transfer_payload();
  auto recovery = std::make_unique<BlockRecovery>(
      deps_, client_, client_node_, id, pipeline->block,
      pipeline->block_bytes, durable_floor, pipeline->targets,
      pipeline->error_index, [this, id](Result<RecoveryOutcome> result) {
        if (finished_) return;  // aborted (writer crash) mid-recovery
        recovery_running_ = false;
        error_pipelines_.erase(id);
        note_recovery_end(id);
        if (!result.ok()) {
          finish(true, result.error().to_string());
          return;
        }
        stats_.quarantine_events += result.value().quarantined;
        if (result.value().under_replicated) {
          ++stats_.under_replication_events;
          metrics::global_registry()
              .counter("stream.under_replication_events")
              .add();
        }
        resume_recovered_pipeline(id, result.value().targets,
                                  result.value().sync_offset);
        // Algorithm 4 lines 3-6: drain the rest of the error set, then line
        // 7: the interrupted transfer restarts via pump_stream/advance_block.
        recover_next_error_pipeline();
        if (error_pipelines_.empty()) {
          pump_stream();
          advance_block();
        }
      });
  BlockRecovery* raw = recovery.get();
  recoveries_.push_back(std::move(recovery));
  raw->run();
}

void OutputStreamBase::resume_recovered_pipeline(PipelineId old_id,
                                                 std::vector<NodeId> targets,
                                                 Bytes sync_offset) {
  ClientPipeline* old_pipeline = find_pipeline(old_id);
  SMARTH_CHECK(old_pipeline != nullptr);
  const std::int64_t resume_packets =
      sync_offset / deps_.config.transfer_payload();
  // Packets already durable everywhere are dropped from the resend queue.
  std::deque<ProducedPacket> pending = std::move(old_pipeline->pending);
  while (!pending.empty() && pending.front().seq_in_block < resume_packets) {
    pending.pop_front();
  }
  const std::int64_t block_index = old_pipeline->block_index;
  LocatedBlock located{old_pipeline->block, std::move(targets)};
  const bool was_streaming = streaming_ == old_id;
  pipelines_.erase(old_id);

  ClientPipeline& fresh = create_pipeline(block_index, located, sync_offset);
  fresh.pending = std::move(pending);
  if (was_streaming) streaming_ = fresh.id;
  SMARTH_DEBUG("stream") << "resumed " << old_id.to_string() << " as "
                         << fresh.id.to_string() << " pending="
                         << fresh.pending.size() << " resume=" << sync_offset;
  // Streaming resumes when the new setup ack arrives (deliver_setup_ack).
  arm_watchdog(fresh);
}

// ---------------------------------------------------------------------------
// Baseline HDFS stream
// ---------------------------------------------------------------------------

DfsOutputStream::DfsOutputStream(StreamDeps deps, ClientId client,
                                 NodeId client_node, FileId file,
                                 Bytes file_size, DoneCallback on_done)
    : OutputStreamBase(std::move(deps), client, client_node, file, file_size,
                       std::move(on_done)) {}

bool DfsOutputStream::production_window_open() const {
  // Hadoop caps dataQueue + ackQueue at kMaxOutstandingPackets (expressed
  // here in transfer units).
  std::size_t in_flight = data_queue_.size();
  for (const auto& [id, p] : pipelines_) {
    in_flight += p.pending.size() + p.ack_queue.size();
  }
  return in_flight <
         static_cast<std::size_t>(deps_.config.max_outstanding_transfers());
}

// Stop-and-wait: the next block starts only once the previous pipeline is
// fully acked and retired.
bool DfsOutputStream::may_advance() { return pipelines_.empty(); }

void DfsOutputStream::pump_stream() {
  if (finished_ || !error_pipelines_.empty()) return;
  ClientPipeline* pipeline = find_pipeline(streaming_);
  if (pipeline == nullptr || !pipeline->ready || pipeline->failed) return;

  // Window: Hadoop keeps at most kMaxOutstandingPackets un-acked.
  auto window_open = [&] {
    return pipeline->ack_queue.size() <
           static_cast<std::size_t>(deps_.config.max_outstanding_transfers());
  };
  while (window_open()) {
    if (!pipeline->pending.empty()) {
      send_next_packet(*pipeline);
      continue;
    }
    if (!data_queue_.empty() &&
        data_queue_.front().block_index == pipeline->block_index) {
      pipeline->pending.push_back(data_queue_.front());
      data_queue_.pop_front();
      send_next_packet(*pipeline);
      continue;
    }
    break;
  }
  pump_production();
}

void DfsOutputStream::deliver_fnfa(const FnfaMessage& fnfa) {
  if (find_pipeline(fnfa.pipeline) == nullptr) return;
  // The baseline protocol has no FNFA; a stray one indicates mis-wiring.
  SMARTH_WARN("stream") << "unexpected FNFA on baseline stream for "
                        << fnfa.block.to_string();
}

}  // namespace smarth::hdfs
