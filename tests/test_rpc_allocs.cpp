// The steady-state control plane allocates nothing beyond the closures its
// callers build: after a warm-up round has grown every pool (call records,
// replies, notifications, event records, in-flight records, queue rings) to
// its peak, a round of retried calls and heartbeat notifications through an
// admission-controlled ServiceQueue makes zero heap allocations once the
// callers' std::function objects exist. The closures are built before the
// counted region, so any copy the RPC layer made of them would count.
//
// This binary replaces the global operator new with a counting version, so
// it stays separate from the other test binaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <vector>

#include "net/network.hpp"
#include "rpc/retry.hpp"
#include "rpc/rpc_bus.hpp"
#include "rpc/service_queue.hpp"
#include "sim/simulation.hpp"
#include "trace/metrics_registry.hpp"

namespace {
std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace smarth::rpc {
namespace {

constexpr int kHeartbeats = 1000;
constexpr int kOverloaded = -1;

/// A capture too large for std::function's inline buffer, so every copy of
/// a closure holding it allocates.
struct Payload {
  std::uint64_t words[4] = {1, 2, 3, 4};
};

/// The closures one round's callers build, made before the counted region.
struct CallerClosures {
  struct Call {
    std::function<int()> handler;
    std::function<void(int)> on_response;
    std::function<void()> on_give_up;
    std::function<int()> shed_response;
    std::function<bool(const int&)> retry_on;
  };
  std::vector<Call> calls;
  std::vector<std::function<void()>> heartbeats;
};

class RpcAllocsTest : public ::testing::Test {
 protected:
  RpcAllocsTest() : sim_(7), net_(sim_), bus_(net_) {
    metrics::global_registry().reset();
    client_ = net_.add_node("client", "/r0", Bandwidth::mbps(1000));
    server_ = net_.add_node("server", "/r1", Bandwidth::mbps(1000));
    datanode_ = net_.add_node("dn", "/r1", Bandwidth::mbps(1000));
    ServiceQueue::Config config;
    config.admission_control = true;
    config.queue_capacity = 16;
    config.per_tenant_addblock_cap = 0;
    config.cost_add_block = milliseconds(20);
    queue_ = std::make_unique<ServiceQueue>(sim_, config);
    bus_.set_service_queue(server_, queue_.get());
    policy_.timeout = milliseconds(500);
  }

  CallerClosures build_closures() {
    CallerClosures c;
    for (int i = 0; i < 4; ++i) {
      CallerClosures::Call call;
      call.handler = [this, payload = Payload{}] {
        return static_cast<int>(payload.words[0]) + ++handled_;
      };
      call.on_response = [this, payload = Payload{}](int) {
        responses_ += static_cast<int>(payload.words[0]);
      };
      call.on_give_up = [this, payload = Payload{}] {
        give_ups_ += static_cast<int>(payload.words[0]);
      };
      call.shed_response = [payload = Payload{}] {
        return payload.words[0] > 0 ? kOverloaded : 0;
      };
      call.retry_on = [payload = Payload{}](const int& v) {
        return v == kOverloaded && payload.words[0] > 0;
      };
      c.calls.push_back(std::move(call));
    }
    c.heartbeats.reserve(kHeartbeats);
    for (int i = 0; i < kHeartbeats; ++i) {
      c.heartbeats.emplace_back([this, payload = Payload{}] {
        heartbeats_ += static_cast<int>(payload.words[0]);
      });
    }
    return c;
  }

  void launch(CallerClosures::Call& call, CallOptions options) {
    call_with_retry<int>(bus_, sim_, policy_, client_, server_,
                         std::move(call.handler), std::move(call.on_response),
                         std::move(call.on_give_up), stats_, "alloc_test",
                         options, std::move(call.shed_response),
                         std::move(call.retry_on));
  }

  /// One round: a call that succeeds first time, one whose first attempt
  /// times out against a down server and is retried, two addBlocks the
  /// full queue sheds with a typed `overloaded` answer and the caller
  /// retries after backoff, and a burst of heartbeat notifications (some
  /// batched, some shed by the bounded queue).
  void round(CallerClosures& c) {
    const CallOptions add_block{ServiceClass::kAddBlock, -1};
    launch(c.calls[0], {ServiceClass::kMeta, -1});
    sim_.run();

    bus_.set_host_down(server_, true);
    sim_.schedule_after(milliseconds(100),
                        [this] { bus_.set_host_down(server_, false); });
    launch(c.calls[1], {ServiceClass::kMeta, -1});
    sim_.run();

    // Fill the queue with addBlocks the server takes 20 ms each to serve.
    for (int i = 0; i < 17; ++i) {
      bus_.notify(client_, server_, [] {}, add_block);
    }
    launch(c.calls[2], add_block);
    launch(c.calls[3], add_block);
    sim_.run();

    for (auto& heartbeat : c.heartbeats) {
      bus_.notify(datanode_, server_, std::move(heartbeat),
                  {ServiceClass::kHeartbeat, -1});
    }
    sim_.run();
  }

  sim::Simulation sim_;
  net::Network net_;
  RpcBus bus_;
  std::unique_ptr<ServiceQueue> queue_;
  RetryPolicy policy_;
  std::shared_ptr<RetryStats> stats_ = std::make_shared<RetryStats>();
  NodeId client_, server_, datanode_;
  int handled_ = 0;
  int responses_ = 0;
  int give_ups_ = 0;
  int heartbeats_ = 0;
};

TEST_F(RpcAllocsTest, RetriedCallsAndHeartbeatsAllocateNothing) {
  CallerClosures warmup = build_closures();
  round(warmup);
  const std::uint64_t calls_before = bus_.calls_started();
  const std::uint64_t retries_before = stats_->retries;
  const std::uint64_t shed_before = queue_->counters().shed_heartbeats;
  const int responses_before = responses_;
  const int heartbeats_before = heartbeats_;

  CallerClosures counted = build_closures();
  const std::uint64_t before = g_allocations;
  round(counted);
  const std::uint64_t allocs = g_allocations - before;

  // The counted round did the same work as the warm-up: 7 attempts (one
  // lost to the down server, two shed), every caller heard back once and
  // nobody gave up; of the heartbeat burst, 745 were shed and the rest
  // were served in batches.
  EXPECT_EQ(bus_.calls_started() - calls_before, 7u);
  EXPECT_EQ(stats_->retries - retries_before, 3u);
  EXPECT_EQ(metrics::global_registry().counter_value("rpc.overload_retries"),
            2u * 2);
  EXPECT_EQ(responses_ - responses_before, 4);
  EXPECT_EQ(give_ups_, 0);
  EXPECT_EQ(queue_->counters().shed_heartbeats - shed_before, 745u);
  EXPECT_EQ(heartbeats_ - heartbeats_before, kHeartbeats - 745);
  EXPECT_EQ(queue_->counters().heartbeat_batches, 2u * 16);
  EXPECT_EQ(allocs, 0u);
}

TEST(RegistryAllocs, HistogramHitAllocatesNothing) {
  metrics::Registry registry;
  metrics::LatencyHistogram& first =
      registry.histogram("nn.rpc.queue_wait_ns");
  registry.counter("rpc.calls_dropped").add();
  const std::uint64_t before = g_allocations;
  metrics::LatencyHistogram& second =
      registry.histogram("nn.rpc.queue_wait_ns");
  registry.counter("rpc.calls_dropped").add();
  const std::uint64_t allocs = g_allocations - before;
  EXPECT_EQ(&first, &second);
  const Histogram& h = second.histogram();
  const std::vector<double>& bounds = metrics::default_latency_bounds();
  ASSERT_EQ(h.bucket_count(), bounds.size() + 1);
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    EXPECT_EQ(h.upper_bound(i), bounds[i]);
  }
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace smarth::rpc
