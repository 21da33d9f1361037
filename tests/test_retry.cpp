// Unit tests of the client-side RPC retry wrapper: first-attempt success,
// recovery across a server outage, bounded give-up, duplicate-response
// hygiene when a slow response races its own timeout, and the RpcBus
// drop/loss/delay counters it records into the metrics registry.
#include "rpc/retry.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"

namespace smarth::rpc {
namespace {

class RetryTest : public ::testing::Test {
 protected:
  RetryTest() : sim_(1), net_(sim_), bus_(net_) {
    metrics::global_registry().reset();
    client_ = net_.add_node("client", "/r0", Bandwidth::mbps(1000));
    server_ = net_.add_node("server", "/r0", Bandwidth::mbps(1000));
  }

  static std::uint64_t counter(const char* name) {
    return metrics::global_registry().counter_value(name);
  }

  RetryPolicy fast_policy() const {
    RetryPolicy policy;
    policy.timeout = milliseconds(500);
    policy.max_attempts = 4;
    policy.backoff_base = milliseconds(100);
    policy.backoff_max = seconds(1);
    policy.jitter = 0.2;
    return policy;
  }

  sim::Simulation sim_;
  net::Network net_;
  RpcBus bus_;
  NodeId client_, server_;
};

TEST_F(RetryTest, SucceedsFirstAttempt) {
  auto stats = std::make_shared<RetryStats>();
  std::optional<int> response;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 42; },
      [&response](int value) { response = value; }, [] { FAIL(); }, stats);
  sim_.run_until(seconds(5));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, 42);
  EXPECT_EQ(stats->retries, 0u);
  EXPECT_EQ(stats->give_ups, 0u);
}

TEST_F(RetryTest, RetriesThroughServerOutage) {
  // Server is down for the first two attempt windows, then comes back; the
  // call must eventually succeed and account the extra attempts.
  bus_.set_host_down(server_, true);
  sim_.schedule_at(milliseconds(1400),
                   [this] { bus_.set_host_down(server_, false); });
  auto stats = std::make_shared<RetryStats>();
  std::optional<int> response;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 7; },
      [&response](int value) { response = value; }, [] { FAIL(); }, stats);
  sim_.run_until(seconds(30));
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(*response, 7);
  EXPECT_GE(stats->retries, 1u);
  EXPECT_EQ(stats->give_ups, 0u);
  EXPECT_GE(counter("rpc.calls_dropped"), 1u);
}

TEST_F(RetryTest, GivesUpAfterBoundedAttempts) {
  bus_.set_host_down(server_, true);
  auto stats = std::make_shared<RetryStats>();
  int give_ups = 0;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 7; },
      [](int) { FAIL() << "server is down; no response should arrive"; },
      [&give_ups] { ++give_ups; }, stats);
  sim_.run_until(seconds(60));
  EXPECT_EQ(give_ups, 1);
  EXPECT_EQ(stats->give_ups, 1u);
  // max_attempts=4 means exactly 3 retries beyond the first.
  EXPECT_EQ(stats->retries, 3u);
}

TEST_F(RetryTest, SlowResponseSettlesExactlyOnce) {
  // Chaos delay pushes every response past the per-attempt timeout, so a
  // retry fires while attempt 1's response is still in flight. The first
  // response to land wins; later ones must be ignored.
  RpcChaos chaos;
  chaos.delay_mean = milliseconds(800);
  bus_.set_chaos(chaos);
  auto stats = std::make_shared<RetryStats>();
  int responses = 0;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 7; },
      [&responses](int) { ++responses; }, [] { FAIL(); }, stats);
  sim_.run_until(seconds(30));
  EXPECT_EQ(responses, 1);
  EXPECT_GE(stats->retries, 1u);
  EXPECT_GT(counter("rpc.messages_delayed"), 0u);
}

TEST_F(RetryTest, SupersededAttemptsLateResponsesAreDropped) {
  // Every message takes 800 ms, so attempts 2 and 3 launch before attempt
  // 1's response lands. The first response to arrive (attempt 1's) settles
  // the call; the later attempts' responses reach the client and are
  // dropped, and the record is released once the last of them is in.
  RpcChaos chaos;
  chaos.delay_mean = milliseconds(800);
  bus_.set_chaos(chaos);
  int handled = 0;
  std::vector<int> responses;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_,
      [&handled] { return ++handled; },
      [&responses](int v) { responses.push_back(v); }, [] { FAIL(); });
  sim_.run();
  EXPECT_EQ(responses, std::vector<int>{1});
  EXPECT_GT(handled, 1);
  EXPECT_EQ(bus_.calls_completed(), static_cast<std::uint64_t>(handled));
  EXPECT_EQ(bus_.records_in_use(), 0u);
}

TEST_F(RetryTest, ResponseAfterGiveUpRunsNothing) {
  RpcChaos chaos;
  chaos.delay_mean = milliseconds(800);
  bus_.set_chaos(chaos);
  RetryPolicy policy = fast_policy();
  policy.max_attempts = 2;
  int handled = 0;
  int give_ups = 0;
  call_with_retry<int>(
      bus_, sim_, policy, client_, server_, [&handled] { return ++handled; },
      [](int) { FAIL() << "the call already gave up"; },
      [&give_ups] { ++give_ups; });
  sim_.run();
  EXPECT_EQ(give_ups, 1);
  // Both attempts were served and both responses came back, after the
  // give-up; neither ran anything on the caller.
  EXPECT_EQ(handled, 2);
  EXPECT_EQ(bus_.calls_completed(), 2u);
  EXPECT_EQ(bus_.records_in_use(), 0u);
}

TEST_F(RetryTest, StaleTimeoutNeverActsOnARecycledRecord) {
  // Call A settles within milliseconds and its record returns to the pool,
  // but its attempt-1 timeout stays scheduled for 500 ms. Call B reuses the
  // record at 100 ms against a down server. A's timeout must not be taken
  // for B's: B's first retry waits for B's own deadline at 600 ms.
  int a_responses = 0;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 1; },
      [&a_responses](int) { ++a_responses; }, [] { FAIL(); });
  sim_.run_until(milliseconds(100));
  ASSERT_EQ(a_responses, 1);
  ASSERT_EQ(bus_.records_in_use(), 0u);
  bus_.set_host_down(server_, true);
  auto stats = std::make_shared<RetryStats>();
  int b_give_ups = 0;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 2; },
      [](int) { FAIL() << "server is down"; },
      [&b_give_ups] { ++b_give_ups; }, stats);
  // A's stale deadline (500 ms) plus the largest first backoff (120 ms).
  sim_.run_until(milliseconds(620));
  EXPECT_EQ(bus_.calls_started(), 2u);
  EXPECT_EQ(stats->retries, 0u);
  sim_.run();
  EXPECT_EQ(b_give_ups, 1);
  EXPECT_EQ(stats->retries, 3u);
  EXPECT_EQ(bus_.records_in_use(), 0u);
}

TEST_F(RetryTest, ChaosLossForcesGiveUp) {
  RpcChaos chaos;
  chaos.loss_probability = 1.0;
  bus_.set_chaos(chaos);
  auto stats = std::make_shared<RetryStats>();
  int give_ups = 0;
  call_with_retry<int>(
      bus_, sim_, fast_policy(), client_, server_, [] { return 7; },
      [](int) { FAIL(); }, [&give_ups] { ++give_ups; }, stats);
  sim_.run_until(seconds(60));
  EXPECT_EQ(give_ups, 1);
  EXPECT_GE(counter("rpc.messages_lost"), 4u);  // every attempt's request vanished
}

TEST_F(RetryTest, DroppedCallCounterTracksHostDownCalls) {
  bus_.set_host_down(server_, true);
  bus_.call<int>(client_, server_, [] { return 1; }, [](int) { FAIL(); });
  sim_.run_until(seconds(1));
  EXPECT_EQ(counter("rpc.calls_dropped"), 1u);
  EXPECT_EQ(bus_.calls_completed(), 0u);
  EXPECT_EQ(bus_.calls_started(), 1u);
}

}  // namespace
}  // namespace smarth::rpc
