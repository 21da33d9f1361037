#include "metrics/report.hpp"

#include <cstdint>

namespace smarth::metrics {

std::string render_comparison_table(const std::string& x_label,
                                    const std::vector<ComparisonRow>& rows) {
  TextTable table({x_label, "HDFS (s)", "SMARTH (s)", "improvement (%)"});
  for (const ComparisonRow& row : rows) {
    table.add_row({row.scenario, TextTable::num(row.hdfs_seconds),
                   TextTable::num(row.smarth_seconds),
                   TextTable::num(row.improvement_percent(), 1)});
  }
  return table.to_string();
}

std::string render_observations(const std::vector<UploadObservation>& rows) {
  TextTable table({"scenario", "protocol", "seconds", "throughput (Mbps)",
                   "blocks", "pipelines", "max concurrency", "recoveries"});
  for (const UploadObservation& row : rows) {
    table.add_row({row.scenario, row.protocol, TextTable::num(row.seconds()),
                   TextTable::num(row.throughput_mbps(), 1),
                   std::to_string(row.stats.blocks),
                   std::to_string(row.stats.pipelines_created),
                   std::to_string(row.stats.max_concurrent_pipelines),
                   std::to_string(row.stats.recoveries)});
  }
  return table.to_string();
}

std::string comparison_csv(const std::string& x_label,
                           const std::vector<ComparisonRow>& rows) {
  TextTable table({x_label, "hdfs_seconds", "smarth_seconds",
                   "improvement_percent"});
  for (const ComparisonRow& row : rows) {
    table.add_row({row.scenario, TextTable::num(row.hdfs_seconds, 4),
                   TextTable::num(row.smarth_seconds, 4),
                   TextTable::num(row.improvement_percent(), 2)});
  }
  return table.to_csv();
}

namespace {

/// How a robustness row reads its metric.
enum class Source {
  kCounter,        ///< counter value
  kGauge,          ///< gauge value, as an integer
  kCounterPrefix,  ///< sum of every counter whose name starts with `metric`
  kSecondsPer,     ///< histogram sum (ns) in seconds, per `per` counter
  kDowntime,       ///< mean, min/max and stddev rows, only when observed
};

struct RobustnessRow {
  const char* label;
  const char* metric;
  Source source = Source::kCounter;
  const char* per = nullptr;
};

constexpr RobustnessRow kRobustnessRows[] = {
    {"uploads", "client.uploads"},
    {"failed uploads", "client.uploads_failed"},
    {"recoveries", "stream.recoveries"},
    {"recovery MTTR (s)", "stream.recovery_ns", Source::kSecondsPer,
     "stream.recoveries"},
    {"quarantine events", "quarantine.events"},
    {"under-replication events", "stream.under_replication_events"},
    {"rpc retries", "rpc.retries"},
    {"rpc give-ups", "rpc.give_ups"},
    {"rpc calls dropped", "rpc.calls_dropped"},
    {"rpc messages lost", "rpc.messages_lost"},
    {"rpc messages delayed", "rpc.messages_delayed"},
    {"datanode re-registrations", "namenode.reregistrations"},
    {"under-replicated blocks", "nn.under_replicated", Source::kGauge},
    {"faults injected", "faults.", Source::kCounterPrefix},
    {"lease expiries", "namenode.lease_recoveries"},
    {"UC blocks recovered", "namenode.uc_blocks_recovered"},
    {"bytes salvaged", "namenode.bytes_salvaged"},
    {"orphans abandoned", "namenode.orphans_abandoned"},
    {"nn crashes", "faults.nn_crashes"},
    {"nn restarts", "faults.nn_restarts"},
    {"nn failovers", "faults.nn_failovers"},
    {"safe-mode entries", "namenode.safe_mode_entries"},
    {"safe-mode exits", "namenode.safe_mode_exits"},
    {"edit ops logged", "namenode.edit_ops"},
    {"checkpoints", "namenode.checkpoints"},
    {"nn downtime", "namenode.downtime_ns", Source::kDowntime},
    {"reads", "client.reads"},
    {"failed reads", "client.reads_failed"},
    {"read failovers", "read.failovers"},
    {"checksum mismatches", "read.checksum_mismatches"},
    {"bad replica reports", "namenode.bad_replica_reports"},
    {"hedged reads", "read.hedges"},
    {"hedge wins", "read.hedge_wins"},
    {"hedges denied", "read.hedges_denied"},
    {"hedge wasted bytes", "read.hedge_wasted_bytes"},
    {"slow evictions", "write.slow_evictions"},
    {"slow-node reports", "namenode.slow_node_reports"},
    {"hedge-cancelled serves", "hedge.cancelled"},
    {"bitrot flips", "faults.bitrot_flips"},
    {"replicas invalidated", "datanode.replicas_invalidated"},
    {"scrub rot detected", "scanner.rot_detected"},
    {"scrub bytes scanned", "scanner.bytes_scanned"},
    {"nn ops admitted", "nn.rpc.admitted"},
    {"nn ops shed", "nn.rpc.shed"},
    {"nn shed heartbeats", "nn.rpc.shed_heartbeats"},
    {"nn shed addBlocks", "nn.rpc.shed_add_blocks"},
    {"nn addBlock cap rejections", "nn.rpc.addblock_cap_rejections"},
    {"nn heartbeat batches", "nn.rpc.heartbeat_batches"},
    {"nn heartbeats batched", "nn.rpc.heartbeats_batched"},
    {"overload retries", "rpc.overload_retries"},
};

/// A nanosecond metric value as a seconds cell.
std::string seconds(double ns) {
  return TextTable::num(ns / static_cast<double>(kSecond));
}

}  // namespace

std::string render_robustness(const Registry& registry) {
  TextTable table({"metric", "value"});
  for (const RobustnessRow& row : kRobustnessRows) {
    switch (row.source) {
      case Source::kCounter:
        table.add_row(
            {row.label, std::to_string(registry.counter_value(row.metric))});
        break;
      case Source::kGauge: {
        const Gauge* g = registry.find_gauge(row.metric);
        table.add_row({row.label, std::to_string(static_cast<std::int64_t>(
                                      g != nullptr ? g->value() : 0.0))});
        break;
      }
      case Source::kCounterPrefix: {
        const std::string prefix = row.metric;
        std::uint64_t total = 0;
        for (auto it = registry.counters().lower_bound(prefix);
             it != registry.counters().end() &&
             it->first.compare(0, prefix.size(), prefix) == 0;
             ++it) {
          total += it->second.value();
        }
        table.add_row({row.label, std::to_string(total)});
        break;
      }
      case Source::kSecondsPer: {
        const LatencyHistogram* h = registry.find_histogram(row.metric);
        const std::uint64_t per = registry.counter_value(row.per);
        const double total_ns = h != nullptr ? h->stats().sum() : 0.0;
        table.add_row({row.label,
                       seconds(per > 0 ? total_ns / static_cast<double>(per)
                                       : 0.0)});
        break;
      }
      case Source::kDowntime: {
        const LatencyHistogram* h = registry.find_histogram(row.metric);
        if (h == nullptr || h->count() == 0) break;
        const SummaryStats& s = h->stats();
        const std::string label = row.label;
        table.add_row({label + " mean (s)", seconds(s.mean())});
        table.add_row({label + " min/max (s)",
                       seconds(s.min()) + " / " + seconds(s.max())});
        table.add_row({label + " stddev (s)", seconds(s.population_stddev())});
        break;
      }
    }
  }
  return table.to_string();
}

}  // namespace smarth::metrics
