// Tests for the metrics renderers and the experiment harness: comparison
// math, table/CSV shapes, registry merging and the robustness table,
// scenario builders, speed pre-warming, and protocol-pairing on identical
// worlds.
#include <gtest/gtest.h>

#include "harness/experiment.hpp"
#include "metrics/report.hpp"
#include "metrics/timeline.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth {
namespace {

TEST(Metrics, ImprovementPercent) {
  metrics::ComparisonRow row{"x", 200.0, 100.0};
  EXPECT_DOUBLE_EQ(row.improvement_percent(), 100.0);
  row.smarth_seconds = 200.0;
  EXPECT_DOUBLE_EQ(row.improvement_percent(), 0.0);
}

TEST(Metrics, ComparisonTableShape) {
  std::vector<metrics::ComparisonRow> rows{{"50 Mbps", 100, 50},
                                           {"100 Mbps", 60, 40}};
  const std::string table = metrics::render_comparison_table("throttle", rows);
  EXPECT_NE(table.find("throttle"), std::string::npos);
  EXPECT_NE(table.find("50 Mbps"), std::string::npos);
  EXPECT_NE(table.find("100.0"), std::string::npos);  // improvement column
  const std::string csv = metrics::comparison_csv("throttle", rows);
  EXPECT_NE(csv.find("throttle,hdfs_seconds"), std::string::npos);
  EXPECT_NE(csv.find("50 Mbps,100.0000"), std::string::npos);
}

TEST(Metrics, ObservationsTable) {
  hdfs::StreamStats stats;
  stats.file_size = kGiB;
  stats.started_at = 0;
  stats.finished_at = seconds(10);
  stats.blocks = 16;
  stats.pipelines_created = 16;
  stats.max_concurrent_pipelines = 3;
  metrics::UploadObservation obs{"hetero", "SMARTH", stats};
  EXPECT_DOUBLE_EQ(obs.seconds(), 10.0);
  EXPECT_NEAR(obs.throughput_mbps(), 859.0, 1.0);
  const std::string table = metrics::render_observations({obs});
  EXPECT_NE(table.find("SMARTH"), std::string::npos);
  EXPECT_NE(table.find("hetero"), std::string::npos);
}

// Value cell of the robustness table row labelled `label`.
std::string robustness_row(const std::string& table, const std::string& label) {
  const std::size_t at = table.find("\n" + label + " ");
  if (at == std::string::npos) return "<missing>";
  const std::size_t begin =
      table.find_first_not_of(' ', at + 1 + label.size());
  const std::size_t end = table.find('\n', begin);
  std::string cell = table.substr(begin, end - begin);
  cell.erase(cell.find_last_not_of(' ') + 1);
  return cell;
}

TEST(Registry, MergeAddsHistogramBucketsAndStats) {
  metrics::Registry a;
  metrics::Registry b;
  a.histogram("x_ns").observe(2e4);
  a.histogram("x_ns").observe(5e6);
  b.histogram("x_ns").observe(5e6);
  b.histogram("x_ns").observe(7e9);
  b.histogram("only_b_ns").observe(1e5);
  a.counter("c").add(2);
  b.counter("c").add(3);
  a.gauge("g").set(1.5);
  b.gauge("g").set(2.0);
  a.merge(b);

  const metrics::LatencyHistogram* h = a.find_histogram("x_ns");
  ASSERT_NE(h, nullptr);
  // Buckets add: the merged histogram equals one fed all four samples.
  metrics::LatencyHistogram all(metrics::default_latency_bounds());
  for (double v : {2e4, 5e6, 5e6, 7e9}) all.observe(v);
  ASSERT_EQ(h->histogram().bucket_count(), all.histogram().bucket_count());
  for (std::size_t i = 0; i < all.histogram().bucket_count(); ++i) {
    EXPECT_EQ(h->histogram().bucket(i), all.histogram().bucket(i)) << i;
  }
  EXPECT_EQ(h->histogram().total(), 4u);
  EXPECT_DOUBLE_EQ(h->quantile(0.5), all.quantile(0.5));
  // Summary stats merge exactly where it matters and closely elsewhere.
  EXPECT_EQ(h->count(), 4u);
  EXPECT_DOUBLE_EQ(h->stats().sum(), all.stats().sum());
  EXPECT_DOUBLE_EQ(h->stats().min(), 2e4);
  EXPECT_DOUBLE_EQ(h->stats().max(), 7e9);
  EXPECT_DOUBLE_EQ(h->stats().mean(), all.stats().mean());
  EXPECT_NEAR(h->stats().population_stddev(),
              all.stats().population_stddev(),
              1e-9 * all.stats().population_stddev());
  // A histogram only the other side had is copied in.
  ASSERT_NE(a.find_histogram("only_b_ns"), nullptr);
  EXPECT_EQ(a.find_histogram("only_b_ns")->count(), 1u);
  EXPECT_EQ(a.counter_value("c"), 5u);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 3.5);
}

TEST(Registry, MergingAnEmptyRegistryIsTheIdentity) {
  metrics::Registry a;
  a.counter("c").add(7);
  a.gauge("g").set(2.5);
  a.histogram("h_ns").observe(3e6);
  a.histogram("h_ns").observe(4e8);
  const std::string before = a.to_json();
  a.merge(metrics::Registry{});
  EXPECT_EQ(a.to_json(), before);
  // ...from either side: an empty registry merging `a` becomes `a`.
  metrics::Registry empty;
  empty.merge(a);
  EXPECT_EQ(empty.to_json(), before);
  EXPECT_DOUBLE_EQ(empty.find_histogram("h_ns")->stats().population_stddev(),
                   a.find_histogram("h_ns")->stats().population_stddev());
}

TEST(Robustness, AbsentMetricsRenderAsZero) {
  const std::string table = metrics::render_robustness(metrics::Registry{});
  EXPECT_EQ(robustness_row(table, "uploads"), "0");
  EXPECT_EQ(robustness_row(table, "recovery MTTR (s)"), "0.00");
  EXPECT_EQ(robustness_row(table, "under-replicated blocks"), "0");
  EXPECT_EQ(robustness_row(table, "faults injected"), "0");
  EXPECT_EQ(robustness_row(table, "overload retries"), "0");
  // No outage completed: no downtime rows at all.
  EXPECT_EQ(table.find("nn downtime"), std::string::npos);
}

TEST(Robustness, RowsReadTheRegistry) {
  metrics::Registry reg;
  reg.counter("client.uploads").add(3);
  reg.counter("stream.recoveries").add(4);
  reg.histogram("stream.recovery_ns").observe(1.5e9);
  reg.histogram("stream.recovery_ns").observe(0.5e9);
  reg.counter("faults.crashes").add(2);
  reg.counter("faults.fail_slows").add(5);
  reg.counter("faults.bitrot_flips").add(1);
  reg.gauge("nn.under_replicated").set(6.0);
  const std::string table = metrics::render_robustness(reg);
  EXPECT_EQ(robustness_row(table, "uploads"), "3");
  EXPECT_EQ(robustness_row(table, "recoveries"), "4");
  // MTTR: completed recovery time over recoveries started (2 s / 4).
  EXPECT_EQ(robustness_row(table, "recovery MTTR (s)"), "0.50");
  // "faults injected" sums every faults.* kind; per-kind rows read theirs.
  EXPECT_EQ(robustness_row(table, "faults injected"), "8");
  EXPECT_EQ(robustness_row(table, "bitrot flips"), "1");
  EXPECT_EQ(robustness_row(table, "under-replicated blocks"), "6");
}

TEST(Robustness, OneOutageDowntimeHasZeroSpread) {
  metrics::Registry reg;
  reg.histogram("namenode.downtime_ns").observe(3.25e9);
  const std::string table = metrics::render_robustness(reg);
  // A single sample: min == max == mean and stddev 0, never NaN.
  EXPECT_EQ(robustness_row(table, "nn downtime mean (s)"), "3.25");
  EXPECT_EQ(robustness_row(table, "nn downtime min/max (s)"), "3.25 / 3.25");
  EXPECT_EQ(robustness_row(table, "nn downtime stddev (s)"), "0.00");
  // A one-seed sweep merges into an empty registry and renders the same.
  metrics::Registry merged;
  merged.merge(reg);
  EXPECT_EQ(metrics::render_robustness(merged), table);
}

TEST(Robustness, DowntimeStddevIsThePopulationOne) {
  metrics::Registry reg;
  reg.histogram("namenode.downtime_ns").observe(2e9);
  reg.histogram("namenode.downtime_ns").observe(4e9);
  const std::string table = metrics::render_robustness(reg);
  EXPECT_EQ(robustness_row(table, "nn downtime mean (s)"), "3.00");
  EXPECT_EQ(robustness_row(table, "nn downtime min/max (s)"), "2.00 / 4.00");
  // Population (divide by n) stddev of {2, 4} is 1; the sample one is 1.41.
  EXPECT_EQ(robustness_row(table, "nn downtime stddev (s)"), "1.00");
}

TEST(Harness, RunProtocolProducesCleanStats) {
  harness::Scenario scenario = harness::two_rack_scenario(
      "t", [](std::uint64_t seed) {
        cluster::ClusterSpec spec = cluster::small_cluster(seed);
        spec.hdfs.block_size = 4 * kMiB;
        return spec;
      },
      Bandwidth::mbps(50), 8 * kMiB);
  const auto stats =
      harness::run_protocol(scenario, cluster::Protocol::kHdfs, 7);
  EXPECT_FALSE(stats.failed);
  EXPECT_EQ(stats.blocks, 2);
}

TEST(Harness, CompareUsesIdenticalWorlds) {
  harness::Scenario scenario = harness::two_rack_scenario(
      "t", [](std::uint64_t seed) {
        cluster::ClusterSpec spec = cluster::small_cluster(seed);
        spec.hdfs.block_size = 4 * kMiB;
        return spec;
      },
      Bandwidth::mbps(50), 12 * kMiB);
  const auto row = harness::compare_protocols(scenario, 7);
  EXPECT_GT(row.hdfs_seconds, 0.0);
  EXPECT_GT(row.smarth_seconds, 0.0);
  // Under a deep throttle, SMARTH must not lose.
  EXPECT_GE(row.improvement_percent(), -5.0);
  // Deterministic: re-running yields the identical row.
  const auto row2 = harness::compare_protocols(scenario, 7);
  EXPECT_DOUBLE_EQ(row.hdfs_seconds, row2.hdfs_seconds);
  EXPECT_DOUBLE_EQ(row.smarth_seconds, row2.smarth_seconds);
}

TEST(Harness, AveragedRepeatsDiffer) {
  harness::Scenario scenario = harness::contention_scenario(
      "c", [](std::uint64_t seed) {
        cluster::ClusterSpec spec = cluster::small_cluster(seed);
        spec.hdfs.block_size = 4 * kMiB;
        return spec;
      },
      2, Bandwidth::mbps(50), 12 * kMiB);
  const auto mean = harness::compare_protocols_averaged(scenario, 3, 100);
  EXPECT_GT(mean.hdfs_seconds, 0.0);
  EXPECT_GT(mean.smarth_seconds, 0.0);
}

TEST(Harness, ContentionScenarioThrottlesExactlyK) {
  harness::Scenario scenario = harness::contention_scenario(
      "c", [](std::uint64_t seed) { return cluster::small_cluster(seed); },
      3, Bandwidth::mbps(50), kMiB);
  cluster::Cluster cluster(scenario.make_spec(1));
  scenario.prepare(cluster);
  int slow = 0;
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    if (cluster.network().node_nic(cluster.datanode_id(i)).mbps() == 50.0) {
      ++slow;
    }
  }
  EXPECT_EQ(slow, 3);
}

TEST(Harness, WarmSpeedRecordsMatchConfiguration) {
  cluster::ClusterSpec spec = cluster::small_cluster(1);
  cluster::Cluster cluster(spec);
  cluster.throttle_cross_rack(Bandwidth::mbps(50));
  harness::warm_speed_records(cluster);
  const auto& topo = cluster.network().topology();
  ASSERT_TRUE(cluster.speed_tracker().has_records());
  ASSERT_TRUE(
      cluster.namenode().speed_board().has_records(cluster.client().id()));
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    const auto speed = cluster.speed_tracker().speed(cluster.datanode_id(i));
    ASSERT_TRUE(speed.has_value());
    if (topo.same_rack(cluster.datanode_id(i), cluster.client_node())) {
      EXPECT_GT(speed->mbps(), 200.0);
    } else {
      EXPECT_LE(speed->mbps(), 51.0);
    }
  }
}

TEST(Timeline, SinglePointMeanHoldsValueToHorizon) {
  metrics::Timeline t("x");
  t.record(seconds(5), 4.0);
  // One sample: its value holds from its own time to the horizon.
  EXPECT_DOUBLE_EQ(t.time_weighted_mean(seconds(10)), 4.0);
  // Horizon at or before the sample leaves an empty window: mean is 0, and
  // in particular no division by zero / negative weighting.
  EXPECT_DOUBLE_EQ(t.time_weighted_mean(seconds(5)), 0.0);
  EXPECT_DOUBLE_EQ(t.time_weighted_mean(seconds(2)), 0.0);
}

TEST(Timeline, HorizonBeforeFirstPointIsZero) {
  metrics::Timeline t("x");
  t.record(seconds(10), 3.0);
  t.record(seconds(20), 1.0);
  EXPECT_DOUBLE_EQ(t.time_weighted_mean(seconds(8)), 0.0);
  // Horizon inside the series integrates only the covered prefix.
  EXPECT_DOUBLE_EQ(t.time_weighted_mean(seconds(15)), 3.0);
}

TEST(Timeline, SingleSampleRendersNoteNotBar) {
  metrics::Timeline t("pipes");
  t.record(seconds(5), 4.0);
  const std::string out = t.render_ascii(20);
  EXPECT_NE(out.find("single sample"), std::string::npos);
  // No fake full-width bar claiming the level held over a span.
  EXPECT_EQ(out.find("####"), std::string::npos);
}

TEST(Timeline, DuplicateTimestampsKeepLastValue) {
  metrics::Timeline t("x");
  t.record(seconds(1), 2.0);
  t.record(seconds(1), 6.0);  // same instant: later sample supersedes
  EXPECT_DOUBLE_EQ(t.time_weighted_mean(seconds(3)), 6.0);
  EXPECT_NE(t.render_ascii(20).find("single sample"), std::string::npos);
}

TEST(Harness, TwoRackScenarioUnlimitedMeansNoThrottle) {
  harness::Scenario scenario = harness::two_rack_scenario(
      "t", [](std::uint64_t seed) { return cluster::small_cluster(seed); },
      kUnlimitedBandwidth, kMiB);
  cluster::Cluster cluster(scenario.make_spec(1));
  scenario.prepare(cluster);
  EXPECT_FALSE(cluster.network().cross_rack_throttle().has_value());
}

}  // namespace
}  // namespace smarth
