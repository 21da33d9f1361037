// Unit tests of the chaos engine: deterministic one-shot injections
// (crash-and-rejoin with namenode re-registration, fail-slow windows that
// restore bandwidth, NIC flaps) and seeded chaos mode's reproducibility.
#include "faults/fault_injector.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::faults {
namespace {

using cluster::Cluster;
using cluster::small_cluster;

// Injections are counted into the thread's metrics registry; each test
// resets it before building its cluster (which caches registry references).
std::uint64_t count(const char* name) {
  return metrics::global_registry().counter_value(name);
}

/// Every `faults.*` counter, by name.
std::map<std::string, std::uint64_t> fault_counts() {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, counter] : metrics::global_registry().counters()) {
    if (name.rfind("faults.", 0) == 0) out[name] = counter.value();
  }
  return out;
}

TEST(FaultInjectorTest, CrashWithoutRejoinStaysDark) {
  metrics::global_registry().reset();
  Cluster cluster(small_cluster(1));
  FaultInjector injector(cluster);
  injector.crash(0, seconds(1));
  cluster.sim().run_until(seconds(10));
  EXPECT_TRUE(cluster.datanode(0).crashed());
  EXPECT_EQ(count("faults.crashes"), 1u);
  EXPECT_EQ(count("faults.restarts"), 0u);
  EXPECT_EQ(count("namenode.reregistrations"), 0u);
}

TEST(FaultInjectorTest, CrashAndRejoinReregisters) {
  metrics::global_registry().reset();
  Cluster cluster(small_cluster(1));
  FaultInjector injector(cluster);
  injector.crash_and_rejoin(0, seconds(1), seconds(4));
  cluster.sim().run_until(seconds(2));
  EXPECT_TRUE(cluster.datanode(0).crashed());
  cluster.sim().run_until(seconds(10));
  EXPECT_FALSE(cluster.datanode(0).crashed());
  EXPECT_EQ(count("faults.crashes"), 1u);
  EXPECT_EQ(count("faults.restarts"), 1u);
  // The reboot re-registered with the namenode (heartbeats resumed).
  EXPECT_EQ(count("namenode.reregistrations"), 1u);
  EXPECT_FALSE(cluster.rpc().host_down(cluster.datanode_id(0)));
}

TEST(FaultInjectorTest, FailSlowThrottlesThenRestores) {
  metrics::global_registry().reset();
  Cluster cluster(small_cluster(1));
  FaultInjector injector(cluster);
  const NodeId node = cluster.datanode_id(0);
  const Bandwidth nic_before = cluster.network().node_nic(node);
  const Bandwidth disk_before = cluster.datanode(0).disk().write_bandwidth();
  injector.fail_slow(0, seconds(1), seconds(3), /*disk_factor=*/8.0,
                     /*nic_factor=*/4.0);
  cluster.sim().run_until(seconds(2));
  EXPECT_NEAR(cluster.network().node_nic(node).bits_per_second(),
              nic_before.bits_per_second() / 4.0, 1.0);
  EXPECT_NEAR(cluster.datanode(0).disk().write_bandwidth().bits_per_second(),
              disk_before.bits_per_second() / 8.0, 1.0);
  cluster.sim().run_until(seconds(5));
  EXPECT_EQ(cluster.network().node_nic(node), nic_before);
  EXPECT_EQ(cluster.datanode(0).disk().write_bandwidth(), disk_before);
  EXPECT_EQ(count("faults.fail_slows"), 1u);
}

TEST(FaultInjectorTest, FlapIsolatesThenHeals) {
  metrics::global_registry().reset();
  Cluster cluster(small_cluster(1));
  FaultInjector injector(cluster);
  const NodeId node = cluster.datanode_id(0);
  injector.flap_node(0, seconds(1), seconds(2));
  cluster.sim().run_until(milliseconds(1500));
  EXPECT_TRUE(cluster.network().node_isolated(node));
  cluster.sim().run_until(seconds(3));
  EXPECT_FALSE(cluster.network().node_isolated(node));
  EXPECT_EQ(count("faults.flaps"), 1u);
}

TEST(FaultInjectorTest, RpcChaosInstalledOnBus) {
  metrics::global_registry().reset();
  Cluster cluster(small_cluster(1));
  FaultInjector injector(cluster);
  injector.set_rpc_chaos(0.05, milliseconds(2), milliseconds(1));
  EXPECT_TRUE(cluster.rpc().chaos().enabled());
  EXPECT_DOUBLE_EQ(cluster.rpc().chaos().loss_probability, 0.05);
}

ChaosRates moderate_rates() {
  ChaosRates rates;
  rates.crash_per_minute = 2.0;
  rates.fail_slow_per_minute = 3.0;
  rates.flap_per_minute = 2.0;
  rates.rejoin_delay = seconds(3);
  rates.fail_slow_duration = seconds(4);
  rates.flap_duration = seconds(1);
  return rates;
}

TEST(FaultInjectorTest, ChaosModeInjectsFaults) {
  metrics::global_registry().reset();
  Cluster cluster(small_cluster(1));
  FaultInjector injector(cluster, /*chaos_seed=*/7);
  injector.start_chaos(moderate_rates());
  EXPECT_TRUE(injector.chaos_running());
  cluster.sim().run_until(seconds(120));
  EXPECT_FALSE(fault_counts().empty());
  injector.stop_chaos();
  EXPECT_FALSE(injector.chaos_running());
}

TEST(FaultInjectorTest, ChaosTimelineIsSeedDeterministic) {
  auto run = [](std::uint64_t chaos_seed) {
    metrics::global_registry().reset();
  Cluster cluster(small_cluster(1));
    FaultInjector injector(cluster, chaos_seed);
    injector.start_chaos(moderate_rates());
    cluster.sim().run_until(seconds(120));
    return fault_counts();
  };
  const auto a = run(99);
  const auto b = run(99);
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(FaultInjectorTest, ChaosCrashesAlwaysRejoin) {
  metrics::global_registry().reset();
  Cluster cluster(small_cluster(1));
  FaultInjector injector(cluster, /*chaos_seed=*/11);
  ChaosRates rates;
  rates.crash_per_minute = 4.0;
  rates.rejoin_delay = seconds(2);
  injector.start_chaos(rates);
  cluster.sim().run_until(seconds(120));
  injector.stop_chaos();
  // Give the last scheduled rejoin time to land.
  cluster.sim().run_until(cluster.sim().now() + seconds(10));
  EXPECT_GT(count("faults.crashes"), 0u);
  EXPECT_EQ(count("faults.crashes"), count("faults.restarts"));
  for (std::size_t i = 0; i < cluster.datanode_count(); ++i) {
    EXPECT_FALSE(cluster.datanode(i).crashed()) << "datanode " << i;
  }
}

}  // namespace
}  // namespace smarth::faults
