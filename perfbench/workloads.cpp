#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "cluster/instance_profile.hpp"
#include "stats.hpp"
#include "trace/metrics_registry.hpp"
#include "workload/open_loop.hpp"

namespace perfbench {

using namespace smarth;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

constexpr double kGiBf = static_cast<double>(kGiB);
constexpr double kMiBf = static_cast<double>(kMiB);

// fig6_write_read: the paper's Fig. 6 point, small cluster at 50 Mbps.
constexpr Bytes kFig6FileSize = 8 * kGiB;
constexpr double kFig6ThrottleMbps = 50.0;

// a12_openloop64: A12's defended 64-client point, as bench_overload builds
// it (0.5 jobs/s per tenant, ~28 addBlock/s namenode capacity).
constexpr int kA12Clients = 64;
constexpr double kA12JobsPerClientPerSecond = 0.5;
constexpr int kA12QueueCapacity = 32;

// grid1000: one upload per protocol on 1000 datanodes, run to a fixed
// simulated horizon so the heartbeat load is the same in every arm.
constexpr std::size_t kGridDatanodes = 1000;
constexpr Bytes kGridFileSize = 2 * kGiB;
constexpr SimTime kGridHorizon = seconds(300);

/// Adds the host seconds of its scope to `total` and, when `spans` is set,
/// records a span around it.
class TimedCall {
 public:
  TimedCall(double& total, trace::TraceRecorder* spans, std::string name)
      : total_(total), spans_(spans) {
    if (spans_ != nullptr) {
      span_ = spans_->begin_span(trace::Category::kRun, "benchmark",
                                 std::move(name));
    }
    start_ = Clock::now();
  }
  ~TimedCall() {
    total_ += seconds_since(start_);
    if (spans_ != nullptr) spans_->end_span(span_);
  }
  TimedCall(const TimedCall&) = delete;
  TimedCall& operator=(const TimedCall&) = delete;

 private:
  double& total_;
  trace::TraceRecorder* spans_;
  trace::SpanHandle span_;
  Clock::time_point start_;
};

const char* suffix(cluster::Protocol p) {
  return p == cluster::Protocol::kHdfs ? "hdfs" : "smarth";
}

/// Accumulates one repetition's simulated values and bookkeeping.
class Rep {
 public:
  explicit Rep(const RepOptions& options)
      : options_(options),
        install_(traced() ? &sim_recorder_ : trace::recorder()) {}

  const RepOptions& options() const { return options_; }
  RepResult& result() { return result_; }
  trace::TraceRecorder* spans() const { return options_.spans; }
  bool traced() const { return options_.spans != nullptr; }

  void add(const std::string& name, double v) { result_.sim[name] += v; }
  void set(const std::string& name, double v) { result_.sim[name] = v; }
  void max(const std::string& name, double v) {
    double& slot = result_.sim[name];
    slot = std::max(slot, v);
  }
  void check(bool ok, const std::string& what) {
    if (!ok) result_.check_failures.push_back(what);
  }
  void attempt(bool failed) {
    ++result_.attempted;
    if (failed) ++result_.failed;
  }

  /// Builds the arm's cluster (timed as set-up) on a fresh metrics registry;
  /// `prepare` applies throttles.
  std::unique_ptr<cluster::Cluster> build(
      cluster::Protocol p, const std::string& label,
      const cluster::ClusterSpec& spec,
      const std::function<void(cluster::Cluster&)>& prepare = {}) {
    metrics::global_registry().reset();
    std::unique_ptr<cluster::Cluster> c;
    {
      TimedCall timed(result_.setup_s, spans(), "setup " + label);
      c = std::make_unique<cluster::Cluster>(spec);
      if (prepare) prepare(*c);
    }
    ++result_.clusters;
    if (traced()) {
      sim_pids_.emplace_back(sim_recorder_.begin_run(label), suffix(p));
      cluster::Cluster* raw = c.get();
      sim_recorder_.set_time_source([raw] { return raw->sim().now(); });
    }
    return c;
  }

  /// Folds the arm's per-layer counts into the repetition and, when traced,
  /// snapshots the registry and detaches the simulator recorder's clock.
  void finish_arm(const std::string& label, cluster::Cluster& c);

  /// Records the simulated utilizations of the upload phase [t0, now].
  void record_utilization(cluster::Cluster& c, cluster::Protocol p, SimTime t0);

  /// Per-phase block-span sums from the simulator's recorder.
  void fold_trace_phases();

 private:
  RepOptions options_;
  RepResult result_;
  trace::TraceRecorder sim_recorder_;
  /// Installs sim_recorder_ for a traced repetition; otherwise leaves the
  /// current recorder (normally none) in place.
  trace::ScopedInstall install_;
  /// Simulator-recorder run pid and protocol suffix of each traced arm.
  std::vector<std::pair<int, const char*>> sim_pids_;
};

double counter(const char* name) {
  const metrics::Counter* c = metrics::global_registry().find_counter(name);
  return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

double histogram_p99_s(const char* name) {
  const metrics::LatencyHistogram* h =
      metrics::global_registry().find_histogram(name);
  return h != nullptr ? h->quantile(0.99) / 1e9 : 0.0;
}

void Rep::finish_arm(const std::string& label, cluster::Cluster& c) {
  sim::Simulation& s = c.sim();
  add("sim.events", static_cast<double>(s.events_executed()));
  add("sim.events_scheduled", static_cast<double>(s.events_scheduled()));
  add("sim.events_cancelled", static_cast<double>(s.events_cancelled()));

  net::Network& n = c.network();
  Bytes sent = 0;
  for (NodeId host : n.topology().all_hosts()) sent += n.bytes_sent(host);
  add("net.messages", static_cast<double>(n.messages_delivered()));
  add("net.gib", static_cast<double>(sent) / kGiBf);
  add("net.dropped", static_cast<double>(n.messages_dropped()));

  Bytes disk_bytes = 0;
  std::uint64_t disk_ops = 0, packets = 0, fnfa = 0;
  Bytes staging_high = 0;
  for (std::size_t i = 0; i < c.datanode_count(); ++i) {
    const hdfs::Datanode& dn = c.datanode(i);
    disk_ops += dn.disk().ops_completed();
    disk_bytes += dn.disk().bytes_written() + dn.disk().bytes_read();
    packets += dn.packets_received();
    fnfa += dn.fnfa_sent();
    for (std::size_t k = 0; k < c.client_count(); ++k) {
      staging_high =
          std::max(staging_high, dn.staging_high_water(c.client(k).id()));
    }
  }
  add("storage.disk_ops", static_cast<double>(disk_ops));
  add("storage.disk_gib", static_cast<double>(disk_bytes) / kGiBf);
  max("storage.staging_high_water_mib",
      static_cast<double>(staging_high) / kMiBf);
  check(staging_high <= c.config().block_size,
        label + ": a datanode staged more than one block for one client");
  add("hdfs.dn_packets", static_cast<double>(packets));
  add("smarth.fnfa", static_cast<double>(fnfa));

  add("rpc.calls", static_cast<double>(c.rpc().calls_started()));
  add("rpc.retries", counter("rpc.retries"));
  add("rpc.overload_retries", counter("rpc.overload_retries"));
  add("rpc.give_ups", counter("rpc.give_ups"));
  if (const rpc::ServiceQueue* q = c.nn_service_queue()) {
    add("rpc.shed", static_cast<double>(q->counters().shed_total));
    add("rpc.admitted", static_cast<double>(q->counters().admitted));
  }
  max("rpc.queue_wait_p99_s", histogram_p99_s("nn.rpc.queue_wait_ns"));
  max("rpc.sojourn_p99_s", histogram_p99_s("nn.rpc.sojourn_ns"));

  add("hdfs.nn_heartbeats",
      static_cast<double>(c.namenode().heartbeats_received()));
  add("hdfs.nn_blocks", static_cast<double>(c.namenode().block_count()));

  if (traced()) {
    result_.registry_snapshots.emplace_back(
        label, metrics::global_registry().to_json());
    sim_recorder_.set_time_source(nullptr);
  }
}

void Rep::record_utilization(cluster::Cluster& c, cluster::Protocol p,
                             SimTime t0) {
  const double span = to_seconds(c.sim().now() - t0);
  if (span <= 0.0) return;
  net::Network& n = c.network();
  double max_egress = 0.0;
  for (NodeId host : n.topology().all_hosts()) {
    max_egress =
        std::max(max_egress, to_seconds(n.egress_link(host).busy_time()) / span);
  }
  double client_egress = 0.0;
  for (std::size_t k = 0; k < c.client_count(); ++k) {
    client_egress = std::max(
        client_egress,
        to_seconds(n.egress_link(c.client_node(k)).busy_time()) / span);
  }
  double disk_util = 0.0;
  for (std::size_t i = 0; i < c.datanode_count(); ++i) {
    disk_util = std::max(
        disk_util, to_seconds(c.datanode(i).disk().busy_time()) / span);
  }
  max("net.max_egress_util", max_egress);
  set(std::string("net.client_egress_util.") + suffix(p), client_egress);
  max("storage.disk_max_util", disk_util);
}

void Rep::fold_trace_phases() {
  if (!traced()) return;
  static const std::pair<const char*, const char*> kPhases[] = {
      {"allocate", "allocate"},
      {"setup", "setup"},
      {"stream", "stream"},
      {"tail-ack", "tail_ack"}};
  for (const auto& [pid, proto] : sim_pids_) {
    for (const auto& [span_name, metric] : kPhases) {
      add(std::string("hdfs.phase.") + metric + "_s." + proto, 0.0);
    }
    for (const trace::TraceEvent& ev : sim_recorder_.events()) {
      if (ev.pid != pid || ev.ph != 'X' || ev.cat != trace::Category::kBlock ||
          ev.dur < 0) {
        continue;
      }
      for (const auto& [span_name, metric] : kPhases) {
        if (ev.name == span_name) {
          add(std::string("hdfs.phase.") + metric + "_s." + proto,
              to_seconds(ev.dur));
        }
      }
    }
  }
  result_.trace_records = sim_recorder_.events().size();
}

/// Folds one upload's StreamStats into the stream counters.
void fold_stream(Rep& rep, const hdfs::StreamStats& s, cluster::Protocol p) {
  rep.add("hdfs.pipelines", s.pipelines_created);
  rep.add("hdfs.recoveries", s.recoveries);
  if (p == cluster::Protocol::kSmarth) {
    rep.max("smarth.max_pipelines", s.max_concurrent_pipelines);
  }
}

/// Counts one closed-loop upload as a workload job; `finished` is false when
/// it produced no terminal status by the horizon (stuck).
void count_job(Rep& rep, bool finished, bool failed) {
  rep.add("workload.jobs", 1);
  rep.add("workload.completed", finished && !failed ? 1 : 0);
  rep.add("workload.failed", finished && failed ? 1 : 0);
  rep.add("workload.stuck", finished ? 0 : 1);
}

/// The per-protocol end-to-end values of an upload arm: its makespan,
/// goodput over it, job-latency quantiles and the client-observed addBlock
/// p99.
void record_upload_arm(Rep& rep, cluster::Protocol p, double makespan_s,
                       double goodput_mibps, double job_p50_s,
                       double job_p99_s) {
  const std::string sfx = suffix(p);
  rep.set("sim_upload_s." + sfx, makespan_s);
  rep.set("sim_goodput_mibps." + sfx, goodput_mibps);
  rep.set("sim_job_p50_s." + sfx, job_p50_s);
  rep.set("sim_job_p99_s." + sfx, job_p99_s);
  rep.set("rpc.addblock_p99_s." + sfx, histogram_p99_s("client.addblock_ns"));
}

/// A closed-loop arm's one upload is its only job: its time is the arm's
/// makespan and both job-latency quantiles.
void record_single_upload(Rep& rep, cluster::Protocol p,
                          const hdfs::StreamStats& up, Bytes size) {
  const double t = to_seconds(up.elapsed());
  record_upload_arm(rep, p, t, ratio(static_cast<double>(size) / kMiBf, t), t,
                    t);
}

// --- fig6_write_read ---------------------------------------------------------

void run_fig6(Rep& rep) {
  const std::string path = "/perfbench/fig6.bin";
  for (const cluster::Protocol p :
       {cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}) {
    const std::string label = std::string("fig6 ") + suffix(p);
    cluster::ClusterSpec spec = cluster::small_cluster(rep.options().seed);
    spec.hdfs.fidelity = hdfs::DataFidelity::kPacket;
    auto c = rep.build(p, label, spec, [](cluster::Cluster& cl) {
      cl.throttle_cross_rack(Bandwidth::mbps(kFig6ThrottleMbps));
    });

    const SimTime t0 = c->sim().now();
    hdfs::StreamStats up;
    {
      TimedCall timed(rep.result().host_run_s, rep.spans(),
                      "run_upload " + label);
      up = c->run_upload(path, kFig6FileSize, p);
    }
    rep.record_utilization(*c, p, t0);
    rep.attempt(up.failed);
    count_job(rep, true, up.failed);
    rep.check(!up.failed, label + ": upload failed: " + up.failure_reason);
    rep.check(c->file_fully_replicated(path),
              label + ": file not fully replicated");
    const Bytes replicas = static_cast<Bytes>(c->config().replication);
    rep.check(c->total_finalized_replica_bytes() == replicas * kFig6FileSize,
              label + ": finalized replica bytes != replication x file size");
    fold_stream(rep, up, p);
    record_single_upload(rep, p, up, kFig6FileSize);

    hdfs::ReadStats rd;
    {
      TimedCall timed(rep.result().host_run_s, rep.spans(),
                      "run_download " + label);
      rd = c->run_download(path);
    }
    rep.attempt(rd.failed);
    rep.check(!rd.failed, label + ": read-back failed: " + rd.failure_reason);
    rep.check(rd.bytes_read == kFig6FileSize,
              label + ": read-back returned " + std::to_string(rd.bytes_read) +
                  " bytes");
    if (p == cluster::Protocol::kSmarth) {
      rep.set("hdfs.read_s", to_seconds(rd.elapsed()));
    }
    rep.finish_arm(label, *c);
  }
}

// --- a12_openloop64 ----------------------------------------------------------

void run_a12(Rep& rep) {
  for (const cluster::Protocol p :
       {cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}) {
    const std::string label = std::string("a12 ") + suffix(p);
    cluster::ClusterSpec spec = cluster::small_cluster(rep.options().seed);
    spec.hdfs.fidelity = hdfs::DataFidelity::kBlock;
    spec.hdfs.nn_service_model = true;
    spec.hdfs.nn_admission_control = true;
    spec.hdfs.nn_cost_meta = milliseconds(5);
    spec.hdfs.nn_cost_add_block = milliseconds(25);
    spec.hdfs.nn_queue_capacity = kA12QueueCapacity;
    auto c = rep.build(p, label, spec);

    workload::OpenLoopConfig cfg;
    cfg.clients = kA12Clients;
    cfg.arrival_rate = kA12JobsPerClientPerSecond * kA12Clients;
    cfg.zipf_s = 1.2;
    cfg.min_file_size = 1 * kMiB;
    cfg.size_ranks = 3;
    cfg.duration = seconds(60);
    workload::OpenLoopWorkload wl(p, cfg);
    wl.set_job_observer(
        [&rep, p](const hdfs::StreamStats& s) { fold_stream(rep, s, p); });
    workload::OpenLoopResult r;
    {
      TimedCall timed(rep.result().host_run_s, rep.spans(),
                      "OpenLoopWorkload::run " + label);
      r = wl.run(*c);
    }
    rep.record_utilization(*c, p, r.started_at);
    rep.check(r.completed + r.failed + r.stuck == r.jobs,
              label + ": completed + failed + stuck != jobs");
    rep.result().attempted += static_cast<std::uint64_t>(r.jobs);
    rep.result().failed += static_cast<std::uint64_t>(r.failed + r.stuck);
    rep.add("workload.jobs", r.jobs);
    rep.add("workload.completed", r.completed);
    rep.add("workload.failed", r.failed);
    rep.add("workload.stuck", r.stuck);
    record_upload_arm(rep, p, to_seconds(r.finished_at - r.started_at),
                      r.goodput_mibps(), r.latency_quantile(0.50),
                      r.latency_quantile(0.99));
    rep.set(std::string("rpc.shed.") + suffix(p),
            static_cast<double>(c->nn_service_queue()->counters().shed_total));

    rep.finish_arm(label, *c);
  }
}

// --- grid1000 ------------------------------------------------------------------

void run_grid1000(Rep& rep) {
  const std::string path = "/perfbench/grid.bin";
  for (const cluster::Protocol p :
       {cluster::Protocol::kHdfs, cluster::Protocol::kSmarth}) {
    const std::string label = std::string("grid1000 ") + suffix(p);
    cluster::ClusterSpec spec = cluster::homogeneous_cluster(
        cluster::small_instance(), kGridDatanodes, rep.options().seed);
    spec.hdfs.fidelity = hdfs::DataFidelity::kPacket;
    auto c = rep.build(p, label, spec);

    std::optional<hdfs::StreamStats> up;
    std::optional<hdfs::ReadStats> rd;
    const SimTime t0 = c->sim().now();
    c->upload(path, kGridFileSize, p,
              [&](const hdfs::StreamStats& s) {
                up = s;
                rep.record_utilization(*c, p, t0);
                if (!s.failed && p == cluster::Protocol::kSmarth) {
                  c->download(path, [&](const hdfs::ReadStats& r) { rd = r; });
                }
              });
    {
      TimedCall timed(rep.result().host_run_s, rep.spans(),
                      "run_until " + label);
      c->sim().run_until(kGridHorizon);
    }
    rep.attempt(!up.has_value() || up->failed);
    count_job(rep, up.has_value(), up.has_value() && up->failed);
    rep.check(up.has_value(), label + ": upload did not finish by the horizon");
    if (up.has_value()) {
      rep.check(!up->failed, label + ": upload failed: " + up->failure_reason);
      rep.check(c->file_fully_replicated(path),
                label + ": file not fully replicated");
      fold_stream(rep, *up, p);
      record_single_upload(rep, p, *up, kGridFileSize);
    }
    if (p == cluster::Protocol::kSmarth) {
      rep.attempt(!rd.has_value() || rd->failed);
      rep.check(rd.has_value() && !rd->failed && rd->bytes_read == kGridFileSize,
                label + ": read-back incomplete by the horizon");
      if (rd.has_value()) rep.set("hdfs.read_s", to_seconds(rd->elapsed()));
    }
    rep.finish_arm(label, *c);
  }
}

/// Derived per-layer ratios and the end-to-end success ratio.
void finalize(Rep& rep) {
  RepResult& r = rep.result();
  rep.set("sim.cancel_ratio", ratio(r.sim["sim.events_cancelled"],
                                    r.sim["sim.events_scheduled"]));
  rep.set("rpc.shed_ratio",
          ratio(r.sim["rpc.shed"], r.sim["rpc.admitted"] + r.sim["rpc.shed"]));
  const double attempted = static_cast<double>(r.attempted);
  const double failed = static_cast<double>(r.failed);
  rep.set("workload.failed_ratio", ratio(failed, attempted));
  rep.set("ok_ratio", ratio(attempted - failed, attempted));
  rep.fold_trace_phases();
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (const Workload w : {Workload::kFig6, Workload::kA12, Workload::kGrid1000}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFig6: return "fig6_write_read";
    case Workload::kA12: return "a12_openloop64";
    case Workload::kGrid1000: return "grid1000";
  }
  return "?";
}

std::size_t seeds_per_run(Workload w) {
  // Each count also keeps one repetition per seed, plus the repeated first
  // seed, inside a 30 s run on the 4-vCPU host the benchmark was tuned on.
  switch (w) {
    // SMARTH's upload time varies with the seed (coefficient of variation
    // 11% over 240 seeds); a repetition costs ~3 host s.
    case Workload::kFig6: return 8;
    // Job latency quantiles vary most (HDFS p50 CV ~24% over 60 seeds); a
    // repetition costs ~1 host s.
    case Workload::kA12: return 26;
    // Both uploads are client-NIC bound; the seed barely moves them.
    case Workload::kGrid1000: return 9;
  }
  return 1;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"host_wall_s", "s"},
      {"setup_s", "s"},
      {"host_peak_rss_mib", "MiB"},
      {"sim_upload_s.hdfs", "s"},
      {"sim_upload_s.smarth", "s"},
      {"sim_goodput_mibps.hdfs", "MiB/s"},
      {"sim_goodput_mibps.smarth", "MiB/s"},
      {"sim_job_p50_s.hdfs", "s"},
      {"sim_job_p50_s.smarth", "s"},
      {"sim_job_p99_s.hdfs", "s"},
      {"sim_job_p99_s.smarth", "s"},
      {"ok_ratio", "ratio"},
  };
  return kMetrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> kMetrics = {
      {"sim.events", "count"},
      {"sim.events_scheduled", "count"},
      {"sim.cancel_ratio", "ratio"},
      {"sim.host_ns_per_event", "ns"},
      {"sim.probe_ns_per_event", "ns"},
      {"net.messages", "count"},
      {"net.gib", "GiB"},
      {"net.dropped", "count"},
      {"net.probe_ns_per_send", "ns"},
      {"net.max_egress_util", "ratio"},
      {"net.client_egress_util.hdfs", "ratio"},
      {"net.client_egress_util.smarth", "ratio"},
      {"storage.disk_ops", "count"},
      {"storage.disk_gib", "GiB"},
      {"storage.disk_max_util", "ratio"},
      {"storage.staging_high_water_mib", "MiB"},
      {"rpc.calls", "count"},
      {"rpc.retries", "count"},
      {"rpc.overload_retries", "count"},
      {"rpc.give_ups", "count"},
      {"rpc.shed_ratio", "ratio"},
      {"rpc.addblock_p99_s.hdfs", "s"},
      {"rpc.addblock_p99_s.smarth", "s"},
      {"rpc.queue_wait_p99_s", "s"},
      {"rpc.sojourn_p99_s", "s"},
      {"hdfs.nn_heartbeats", "count"},
      {"hdfs.nn_blocks", "count"},
      {"hdfs.dn_packets", "count"},
      {"hdfs.pipelines", "count"},
      {"hdfs.recoveries", "count"},
      {"hdfs.read_s", "s"},
      {"hdfs.phase.allocate_s.hdfs", "s"},
      {"hdfs.phase.setup_s.hdfs", "s"},
      {"hdfs.phase.stream_s.hdfs", "s"},
      {"hdfs.phase.tail_ack_s.hdfs", "s"},
      {"hdfs.phase.allocate_s.smarth", "s"},
      {"hdfs.phase.setup_s.smarth", "s"},
      {"hdfs.phase.stream_s.smarth", "s"},
      {"hdfs.phase.tail_ack_s.smarth", "s"},
      {"smarth.fnfa", "count"},
      {"smarth.max_pipelines", "count"},
      {"cluster.setup_s", "s"},
      {"workload.jobs", "count"},
      {"workload.completed", "count"},
      {"workload.failed", "count"},
      {"workload.stuck", "count"},
      {"workload.failed_ratio", "ratio"},
      {"trace.overhead_pct", "%"},
      {"trace.records", "count"},
      {"host.allocs", "count"},
      {"host.alloc_mib", "MiB"},
      {"host.raw_wall_s", "s"},
      {"host.calibration_s", "s"},
  };
  return kMetrics;
}

RepResult run_rep(Workload w, const RepOptions& options) {
  const AllocTally before = alloc_tally();
  Rep rep(options);
  switch (w) {
    case Workload::kFig6: run_fig6(rep); break;
    case Workload::kA12: run_a12(rep); break;
    case Workload::kGrid1000: run_grid1000(rep); break;
  }
  finalize(rep);
  rep.result().allocs = alloc_tally() - before;
  return std::move(rep.result());
}

RepResult run_upload_with_all_datanodes_down(std::uint64_t seed) {
  RepOptions options;
  options.seed = seed;
  Rep rep(options);
  const std::string label = "all datanodes down";
  auto c = rep.build(cluster::Protocol::kHdfs, label,
                     cluster::small_cluster(seed));
  for (std::size_t i = 0; i < c->datanode_count(); ++i) {
    c->crash_datanode_at(i, 0);
  }
  const hdfs::StreamStats up =
      c->run_upload("/perfbench/doomed.bin", 1 * kMiB,
                    cluster::Protocol::kHdfs);
  rep.attempt(up.failed);
  count_job(rep, true, up.failed);
  rep.finish_arm(label, *c);
  finalize(rep);
  return std::move(rep.result());
}

}  // namespace perfbench
