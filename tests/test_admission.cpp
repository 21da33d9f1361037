// Namenode service-capacity model and overload defense: the ServiceQueue's
// two modes (undefended FIFO vs admission control with priority bands,
// bounded depth, heartbeat batching, tenant caps), the typed-rejection retry
// path in call_with_retry, and the registry plumbing (merge, robustness
// table) for the overload counters.
#include "rpc/service_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "metrics/report.hpp"
#include "net/network.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {
namespace {

class ServiceQueueTest : public ::testing::Test {
 protected:
  ServiceQueueTest() : sim_(1) { metrics::global_registry().reset(); }

  ServiceQueue make_queue(ServiceQueue::Config config) {
    return ServiceQueue(sim_, config);
  }

  sim::Simulation sim_;
};

TEST_F(ServiceQueueTest, UndefendedServesInArrivalOrderAtPerClassCost) {
  ServiceQueue::Config config;  // admission off: the undefended namenode
  ServiceQueue queue(sim_, config);
  std::vector<std::string> order;
  std::vector<SimTime> done_at;
  const auto record = [&](const char* name) {
    return [&order, &done_at, this, name] {
      order.push_back(name);
      done_at.push_back(sim_.now());
    };
  };
  queue.submit(ServiceClass::kMeta, -1, record("meta"), nullptr);
  queue.submit(ServiceClass::kAddBlock, -1, record("addblock"), nullptr);
  queue.submit(ServiceClass::kHeartbeat, -1, record("heartbeat"), nullptr);
  sim_.run();
  // Strict FIFO across classes: no priority in the undefended queue.
  ASSERT_EQ(order, (std::vector<std::string>{"meta", "addblock", "heartbeat"}));
  EXPECT_EQ(done_at[0], microseconds(150));
  EXPECT_EQ(done_at[1], microseconds(150 + 350));
  EXPECT_EQ(done_at[2], microseconds(150 + 350 + 30));
  EXPECT_EQ(queue.counters().admitted, 3u);
  EXPECT_EQ(queue.counters().served, 3u);
  EXPECT_EQ(queue.counters().shed_total, 0u);
}

TEST_F(ServiceQueueTest, UndefendedQueueDelayGrowsUnboundedly) {
  ServiceQueue::Config config;
  ServiceQueue queue(sim_, config);
  SimTime last_done = 0;
  for (int i = 0; i < 10; ++i) {
    queue.submit(ServiceClass::kAddBlock, -1,
                 [&last_done, this] { last_done = sim_.now(); }, nullptr);
  }
  sim_.run();
  // One server, no shedding: the 10th op waits for the other nine.
  EXPECT_EQ(last_done, 10 * microseconds(350));
  EXPECT_EQ(queue.counters().shed_total, 0u);
}

TEST_F(ServiceQueueTest, AdmissionServesHeartbeatsBeforeMetaBeforeAddBlock) {
  ServiceQueue::Config config;
  config.admission_control = true;
  ServiceQueue queue(sim_, config);
  std::vector<std::string> order;
  const auto record = [&order](const char* name) {
    return [&order, name] { order.push_back(name); };
  };
  // First op goes straight into service; the rest queue behind it and must
  // come out in priority order, not arrival order.
  queue.submit(ServiceClass::kAddBlock, -1, record("addblock1"), nullptr);
  queue.submit(ServiceClass::kAddBlock, -1, record("addblock2"), nullptr);
  queue.submit(ServiceClass::kMeta, -1, record("meta"), nullptr);
  queue.submit(ServiceClass::kHeartbeat, -1, record("heartbeat"), nullptr);
  sim_.run();
  ASSERT_EQ(order, (std::vector<std::string>{"addblock1", "heartbeat", "meta",
                                             "addblock2"}));
}

TEST_F(ServiceQueueTest, AdmissionBatchesQueuedHeartbeats) {
  ServiceQueue::Config config;
  config.admission_control = true;
  ServiceQueue queue(sim_, config);
  int heartbeats_served = 0;
  SimTime batch_done = 0;
  queue.submit(ServiceClass::kMeta, -1, [] {}, nullptr);  // occupy the server
  for (int i = 0; i < 5; ++i) {
    queue.submit(ServiceClass::kHeartbeat, -1,
                 [&heartbeats_served, &batch_done, this] {
                   ++heartbeats_served;
                   batch_done = sim_.now();
                 },
                 nullptr);
  }
  sim_.run();
  EXPECT_EQ(heartbeats_served, 5);
  EXPECT_EQ(queue.counters().heartbeat_batches, 1u);
  EXPECT_EQ(queue.counters().heartbeats_batched, 5u);
  // One slot: full cost for the first heartbeat + 25% marginal for the rest,
  // after the meta op that was in service.
  const SimDuration batch_cost =
      microseconds(30) + 4 * microseconds(30) / 4;  // 30 + 4 * 30 * 0.25
  EXPECT_EQ(batch_done, microseconds(150) + batch_cost);
}

TEST_F(ServiceQueueTest, AdmissionShedsArrivalWithNoLowerBandToDisplace) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 2;
  config.per_tenant_addblock_cap = 0;  // isolate the capacity path
  ServiceQueue queue(sim_, config);
  int served = 0;
  bool shed = false;
  queue.submit(ServiceClass::kAddBlock, -1, [&served] { ++served; }, nullptr);
  queue.submit(ServiceClass::kAddBlock, -1, [&served] { ++served; }, nullptr);
  queue.submit(ServiceClass::kAddBlock, -1, [&served] { ++served; }, nullptr);
  // Queue full of equal-priority ops: the arrival itself is shed, now.
  queue.submit(ServiceClass::kAddBlock, -1,
               [&served] { ++served; }, [&shed] { shed = true; });
  EXPECT_TRUE(shed);
  sim_.run();
  EXPECT_EQ(served, 3);
  EXPECT_EQ(queue.counters().shed_total, 1u);
  EXPECT_EQ(queue.counters().shed_add_blocks, 1u);
  EXPECT_EQ(queue.counters().addblock_cap_rejections, 0u);
}

TEST_F(ServiceQueueTest, AdmissionDisplacesNewestLowerPriorityOp) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 2;
  config.per_tenant_addblock_cap = 0;
  ServiceQueue queue(sim_, config);
  std::vector<std::string> order;
  bool newest_shed = false;
  const auto record = [&order](const char* name) {
    return [&order, name] { order.push_back(name); };
  };
  queue.submit(ServiceClass::kAddBlock, -1, record("in-service"), nullptr);
  queue.submit(ServiceClass::kAddBlock, -1, record("oldest"), nullptr);
  queue.submit(ServiceClass::kAddBlock, -1, record("newest"),
               [&newest_shed] { newest_shed = true; });
  // Full queue, but the heartbeat outranks the queued addBlocks: it evicts
  // the newest one instead of being dropped.
  queue.submit(ServiceClass::kHeartbeat, -1, record("heartbeat"), nullptr);
  sim_.run();
  EXPECT_TRUE(newest_shed);
  ASSERT_EQ(order, (std::vector<std::string>{"in-service", "heartbeat",
                                             "oldest"}));
  EXPECT_EQ(queue.counters().shed_total, 1u);
  EXPECT_EQ(queue.counters().shed_add_blocks, 1u);
}

TEST_F(ServiceQueueTest, PerTenantAddBlockCapRejectsAndReleases) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.per_tenant_addblock_cap = 2;
  ServiceQueue queue(sim_, config);
  int served = 0;
  bool capped = false;
  queue.submit(ServiceClass::kAddBlock, 7, [&served] { ++served; }, nullptr);
  queue.submit(ServiceClass::kAddBlock, 7, [&served] { ++served; }, nullptr);
  queue.submit(ServiceClass::kAddBlock, 7, [&served] { ++served; },
               [&capped] { capped = true; });
  EXPECT_TRUE(capped);
  EXPECT_EQ(queue.counters().addblock_cap_rejections, 1u);
  // A different tenant is not affected by tenant 7's cap.
  queue.submit(ServiceClass::kAddBlock, 8, [&served] { ++served; }, nullptr);
  sim_.run();
  EXPECT_EQ(served, 3);
  // Service completion released tenant 7's slots: the next one is admitted.
  bool capped_again = false;
  queue.submit(ServiceClass::kAddBlock, 7, [&served] { ++served; },
               [&capped_again] { capped_again = true; });
  sim_.run();
  EXPECT_FALSE(capped_again);
  EXPECT_EQ(served, 4);
}

TEST_F(ServiceQueueTest, CountersLandInMetricsRegistry) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 1;
  config.per_tenant_addblock_cap = 0;
  ServiceQueue queue(sim_, config);
  queue.submit(ServiceClass::kAddBlock, -1, [] {}, nullptr);
  queue.submit(ServiceClass::kAddBlock, -1, [] {}, nullptr);
  queue.submit(ServiceClass::kAddBlock, -1, [] {}, nullptr);  // shed
  sim_.run();
  const metrics::Registry& reg = metrics::global_registry();
  EXPECT_EQ(reg.find_counter("nn.rpc.admitted")->value(), 2u);
  EXPECT_EQ(reg.find_counter("nn.rpc.shed")->value(), 1u);
  EXPECT_NE(reg.find_histogram("nn.rpc.queue_wait_ns"), nullptr);
  EXPECT_NE(reg.find_histogram("nn.rpc.sojourn_ns"), nullptr);
}

// --- typed-rejection retry through the bus ---------------------------------

class OverloadRetryTest : public ::testing::Test {
 protected:
  OverloadRetryTest() : sim_(1), net_(sim_), bus_(net_) {
    metrics::global_registry().reset();
    client_ = net_.add_node("client", "/r0", Bandwidth::mbps(100));
    server_ = net_.add_node("server", "/r0", Bandwidth::mbps(100));
  }
  sim::Simulation sim_;
  net::Network net_;
  RpcBus bus_;
  NodeId client_, server_;
};

TEST_F(OverloadRetryTest, RetryOnRelaunchesAfterBackoffUntilSuccess) {
  int handler_calls = 0;
  int response = -1;
  SimTime responded_at = 0;
  // First attempt answers 0 ("overloaded"); the retry answers 42.
  call_with_retry<int>(
      bus_, sim_, RetryPolicy{}, client_, server_,
      [&handler_calls] { return ++handler_calls == 1 ? 0 : 42; },
      [&](int v) {
        response = v;
        responded_at = sim_.now();
      },
      [] { FAIL() << "gave up"; }, nullptr, "test", {}, nullptr,
      [](const int& v) { return v == 0; });
  sim_.run();
  EXPECT_EQ(handler_calls, 2);
  EXPECT_EQ(response, 42);
  // The relaunch waited out a real backoff, not an immediate hammer.
  EXPECT_GT(responded_at, milliseconds(100));
  EXPECT_EQ(metrics::global_registry().find_counter("rpc.overload_retries")
                ->value(),
            1u);
  // A retryable response is not a timeout retry: both series stay distinct.
  EXPECT_EQ(metrics::global_registry().find_counter("rpc.retries")->value(),
            1u);
}

TEST_F(OverloadRetryTest, FinalAttemptDeliversTheRetryableResponse) {
  RetryPolicy policy;
  policy.max_attempts = 2;
  int response = -1;
  bool gave_up = false;
  call_with_retry<int>(
      bus_, sim_, policy, client_, server_, [] { return 0; },
      [&response](int v) { response = v; }, [&gave_up] { gave_up = true; },
      nullptr, "test", {}, nullptr, [](const int& v) { return v == 0; });
  sim_.run();
  // Attempts exhausted: the caller sees the overloaded answer and falls back
  // to its own budgeted wait instead of spinning forever.
  EXPECT_FALSE(gave_up);
  EXPECT_EQ(response, 0);
  EXPECT_EQ(metrics::global_registry().find_counter("rpc.overload_retries")
                ->value(),
            1u);
}

TEST_F(OverloadRetryTest, ShedResponseShortCircuitsTheServiceQueue) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 1;
  config.per_tenant_addblock_cap = 0;
  config.cost_add_block = seconds(1);
  ServiceQueue queue(sim_, config);
  bus_.set_service_queue(server_, &queue);
  std::vector<int> responses;
  for (int i = 0; i < 3; ++i) {
    bus_.call<int>(
        client_, server_, [] { return 1; },
        [&responses](int v) { responses.push_back(v); },
        CallOptions{ServiceClass::kAddBlock, -1}, [] { return -1; });
  }
  sim_.run();
  // One served, one queued+served, one shed with the typed response; every
  // caller heard back.
  ASSERT_EQ(responses.size(), 3u);
  EXPECT_EQ(std::count(responses.begin(), responses.end(), -1), 1);
  EXPECT_EQ(std::count(responses.begin(), responses.end(), 1), 2);
  EXPECT_EQ(queue.counters().shed_total, 1u);
}

TEST_F(OverloadRetryTest, DisplacedAndShedOpsReleaseTheirRecordsOnce) {
  ServiceQueue::Config config;
  config.admission_control = true;
  config.queue_capacity = 1;
  config.per_tenant_addblock_cap = 0;
  config.cost_add_block = seconds(1);
  ServiceQueue queue(sim_, config);
  bus_.set_service_queue(server_, &queue);
  const CallOptions add_block{ServiceClass::kAddBlock, -1};
  std::vector<int> a_responses;
  std::vector<int> b_responses;
  int c_responses = 0;
  int h1_runs = 0;
  int h2_runs = 0;
  // Requests arrive in send order. A is served; B waits in the one slot.
  bus_.call<int>(client_, server_, [] { return 1; },
                 [&a_responses](int v) { a_responses.push_back(v); },
                 add_block, [] { return -1; });
  bus_.call<int>(client_, server_, [] { return 2; },
                 [&b_responses](int v) { b_responses.push_back(v); },
                 add_block, [] { return -1; });
  // H1 displaces queued B, which hears the typed rejection; H2 then finds
  // no lower band to displace and is shed, as is C (no shed response: its
  // caller would time out).
  bus_.notify(client_, server_, [&h1_runs] { ++h1_runs; },
              {ServiceClass::kHeartbeat, -1});
  bus_.notify(client_, server_, [&h2_runs] { ++h2_runs; },
              {ServiceClass::kHeartbeat, -1});
  bus_.call<int>(client_, server_, [] { return 3; },
                 [&c_responses](int) { ++c_responses; },
                 {ServiceClass::kMeta, -1});
  sim_.run();
  EXPECT_EQ(a_responses, std::vector<int>{1});
  EXPECT_EQ(b_responses, std::vector<int>{-1});
  EXPECT_EQ(c_responses, 0);
  EXPECT_EQ(h1_runs, 1);
  EXPECT_EQ(h2_runs, 0);
  EXPECT_EQ(queue.counters().shed_total, 3u);
  // Each shed or displaced op gave its record back exactly once: a double
  // release would trip the record's reference check or wrap this count.
  EXPECT_EQ(bus_.records_in_use(), 0u);
}

// --- Registry plumbing ------------------------------------------------------

// The eight overload counters, in the robustness table's row order.
const char* const kOverloadCounters[] = {
    "nn.rpc.admitted",         "nn.rpc.shed",
    "nn.rpc.shed_heartbeats",  "nn.rpc.shed_add_blocks",
    "nn.rpc.addblock_cap_rejections", "nn.rpc.heartbeat_batches",
    "nn.rpc.heartbeats_batched",      "rpc.overload_retries"};

TEST(OverloadRegistry, MergeAddsOverloadCounters) {
  const std::uint64_t a_values[] = {10, 3, 1, 2, 1, 4, 12, 5};
  const std::uint64_t b_values[] = {7, 2, 2, 0, 0, 1, 2, 1};
  metrics::Registry a;
  metrics::Registry b;
  for (std::size_t i = 0; i < std::size(kOverloadCounters); ++i) {
    a.counter(kOverloadCounters[i]).add(a_values[i]);
    b.counter(kOverloadCounters[i]).add(b_values[i]);
  }
  a.merge(b);
  for (std::size_t i = 0; i < std::size(kOverloadCounters); ++i) {
    EXPECT_EQ(a.counter_value(kOverloadCounters[i]), a_values[i] + b_values[i])
        << kOverloadCounters[i];
  }
}

TEST(OverloadRegistry, RobustnessTableRendersOverloadCounters) {
  metrics::Registry reg;
  reg.counter("nn.rpc.admitted").add(20);
  reg.counter("nn.rpc.shed").add(4);
  reg.counter("nn.rpc.shed_heartbeats").add(1);
  reg.counter("nn.rpc.heartbeat_batches").add(2);
  reg.counter("nn.rpc.heartbeats_batched").add(6);
  reg.counter("rpc.overload_retries").add(3);
  const std::string table = metrics::render_robustness(reg);
  // Each row carries its counter's value; absent counters render as 0.
  const auto row_value = [&table](const std::string& label) {
    const std::size_t at = table.find("\n" + label + " ");
    if (at == std::string::npos) return std::string("<missing>");
    const std::size_t begin =
        table.find_first_not_of(' ', at + 1 + label.size());
    return table.substr(begin, table.find_first_of(" \n", begin) - begin);
  };
  EXPECT_EQ(row_value("nn ops admitted"), "20");
  EXPECT_EQ(row_value("nn ops shed"), "4");
  EXPECT_EQ(row_value("nn shed heartbeats"), "1");
  EXPECT_EQ(row_value("nn shed addBlocks"), "0");
  EXPECT_EQ(row_value("nn addBlock cap rejections"), "0");
  EXPECT_EQ(row_value("nn heartbeat batches"), "2");
  EXPECT_EQ(row_value("nn heartbeats batched"), "6");
  EXPECT_EQ(row_value("overload retries"), "3");
}

}  // namespace
}  // namespace smarth::rpc
