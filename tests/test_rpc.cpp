#include "rpc/rpc_bus.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace smarth::rpc {
namespace {

class RpcTest : public ::testing::Test {
 protected:
  RpcTest() : sim_(1), net_(sim_), bus_(net_) {
    client_ = net_.add_node("client", "/r0", Bandwidth::mbps(100));
    server_ = net_.add_node("server", "/r0", Bandwidth::mbps(100));
  }
  sim::Simulation sim_;
  net::Network net_;
  RpcBus bus_;
  NodeId client_, server_;
};

TEST_F(RpcTest, CallRoundTrip) {
  int response = 0;
  bus_.call<int>(client_, server_, [] { return 42; },
                 [&](int v) { response = v; });
  sim_.run();
  EXPECT_EQ(response, 42);
  EXPECT_EQ(bus_.calls_started(), 1u);
  EXPECT_EQ(bus_.calls_completed(), 1u);
}

TEST_F(RpcTest, CallPaysNetworkAndServiceTime) {
  SimTime responded_at = -1;
  bus_.call<int>(client_, server_, [] { return 1; },
                 [&](int) { responded_at = sim_.now(); });
  sim_.run();
  // Request wire + service + response wire; must exceed the pure service
  // time and two propagation delays.
  EXPECT_GT(responded_at, kServiceTime);
  EXPECT_LT(responded_at, milliseconds(10));
}

TEST_F(RpcTest, CallAsyncDeferredResponse) {
  int response = 0;
  bus_.call_async<int>(
      client_, server_,
      [this](std::function<void(int)> respond) {
        // Server finishes the work one second later.
        sim_.schedule_after(seconds(1),
                            [respond = std::move(respond)] { respond(7); });
      },
      [&](int v) { response = v; });
  sim_.run();
  EXPECT_EQ(response, 7);
  EXPECT_GT(sim_.now(), seconds(1));
}

TEST_F(RpcTest, DownServerNeverResponds) {
  bus_.set_host_down(server_, true);
  bool responded = false;
  bus_.call<int>(client_, server_, [] { return 1; },
                 [&](int) { responded = true; });
  sim_.run();
  EXPECT_FALSE(responded);
  EXPECT_EQ(bus_.calls_completed(), 0u);
}

TEST_F(RpcTest, ServerDiesMidFlight) {
  bool responded = false;
  bool handled = false;
  bus_.call<int>(client_, server_,
                 [&] {
                   handled = true;
                   return 1;
                 },
                 [&](int) { responded = true; });
  // Kill the server before the request can arrive.
  sim_.schedule_at(1, [&] { bus_.set_host_down(server_, true); });
  sim_.run();
  EXPECT_FALSE(handled);
  EXPECT_FALSE(responded);
}

TEST_F(RpcTest, HostCanComeBack) {
  bus_.set_host_down(server_, true);
  bus_.set_host_down(server_, false);
  int response = 0;
  bus_.call<int>(client_, server_, [] { return 5; },
                 [&](int v) { response = v; });
  sim_.run();
  EXPECT_EQ(response, 5);
}

TEST_F(RpcTest, NotifyIsOneWay) {
  bool handled = false;
  bus_.notify(client_, server_, [&] { handled = true; });
  sim_.run();
  EXPECT_TRUE(handled);
}

TEST_F(RpcTest, NotifyToDownHostDropped) {
  bus_.set_host_down(server_, true);
  bool handled = false;
  bus_.notify(client_, server_, [&] { handled = true; });
  sim_.run();
  EXPECT_FALSE(handled);
}

TEST_F(RpcTest, PointerResponseType) {
  // Responses must be copyable (std::function constraint); shared ownership
  // is the supported way to move heavyweight payloads.
  std::shared_ptr<int> got;
  bus_.call<std::shared_ptr<int>>(
      client_, server_, [] { return std::make_shared<int>(9); },
      [&](std::shared_ptr<int> v) { got = std::move(v); });
  sim_.run();
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(*got, 9);
}

TEST_F(RpcTest, ControlPriorityBypassesBulkQueue) {
  // Saturate the client's egress with bulk data, then issue an RPC: the
  // request must not wait for megabytes of bulk to serialize.
  for (int i = 0; i < 64; ++i) {
    net_.send(client_, server_, 64 * kKiB, [] {});
  }
  SimTime responded_at = -1;
  bus_.call<int>(client_, server_, [] { return 1; },
                 [&](int) { responded_at = sim_.now(); });
  sim_.run();
  const SimDuration bulk_total =
      Bandwidth::mbps(100).transmit_time(64 * 64 * kKiB);
  EXPECT_LT(responded_at, bulk_total / 4);
}

TEST_F(RpcTest, RecordsReturnToThePoolAfterEveryOutcome) {
  int responses = 0;
  bus_.call<int>(client_, server_, [] { return 1; },
                 [&](int) { ++responses; });
  bus_.notify(client_, server_, [] {});
  sim_.run();
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(bus_.records_in_use(), 0u);
  // Lost on the way out, lost on the server, lost by chaos: no record leaks.
  bus_.set_host_down(server_, true);
  bus_.call<int>(client_, server_, [] { return 1; }, [&](int) { ++responses; });
  bus_.notify(client_, server_, [] {});
  bus_.set_host_down(server_, false);
  bus_.call<int>(client_, server_, [] { return 1; }, [&](int) { ++responses; });
  sim_.schedule_at(sim_.now() + 1, [this] { bus_.set_host_down(server_, true); });
  sim_.run();
  bus_.set_host_down(server_, false);
  RpcChaos chaos;
  chaos.loss_probability = 1.0;
  bus_.set_chaos(chaos);
  bus_.call<int>(client_, server_, [] { return 1; }, [&](int) { ++responses; });
  bus_.notify(client_, server_, [] {});
  sim_.run();
  EXPECT_EQ(responses, 1);
  EXPECT_EQ(bus_.records_in_use(), 0u);
}

TEST_F(RpcTest, StaleResponderNeverActsOnARecycledRecord) {
  // Call 1 responds once and its record returns to the pool; call 2 (same
  // response type, so the same record) is still waiting when call 1's
  // continuation is invoked again. The generation check drops that stale
  // answer, and call 2 hears only its own.
  std::function<void(int)> first_respond;
  std::function<void(int)> second_respond;
  std::vector<int> first_responses;
  std::vector<int> second_responses;
  bus_.call_async<int>(
      client_, server_,
      [&first_respond](std::function<void(int)> respond) {
        first_respond = std::move(respond);
      },
      [&first_responses](int v) { first_responses.push_back(v); });
  sim_.schedule_at(seconds(1), [&first_respond] { first_respond(7); });
  sim_.run();
  ASSERT_EQ(first_responses, std::vector<int>{7});
  ASSERT_EQ(bus_.records_in_use(), 0u);

  bus_.call_async<int>(
      client_, server_,
      [&second_respond](std::function<void(int)> respond) {
        second_respond = std::move(respond);
      },
      [&second_responses](int v) { second_responses.push_back(v); });
  sim_.run_until(seconds(3));
  ASSERT_TRUE(static_cast<bool>(second_respond));
  first_respond(99);  // stale: call 1's record now belongs to call 2
  sim_.schedule_at(seconds(4), [&second_respond] { second_respond(5); });
  sim_.run();
  EXPECT_EQ(first_responses, std::vector<int>{7});
  EXPECT_EQ(second_responses, std::vector<int>{5});
  EXPECT_EQ(bus_.records_in_use(), 0u);
}

}  // namespace
}  // namespace smarth::rpc
