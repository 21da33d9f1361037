// The steady-state packet path allocates nothing: after a warm-up round has
// grown every pool (event records, in-flight records, link slots, queue
// rings) to its peak, a round of cross-rack sends and disk writes with
// packet-sized captures makes zero heap allocations.
//
// This binary replaces the global operator new with a counting version, so
// it stays separate from the other test binaries.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "hdfs/types.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "storage/disk.hpp"

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

namespace smarth {
namespace {

constexpr int kMessages = 2000;

/// Runs `round` twice: once to warm every pool up, then counting.
template <typename Round>
std::uint64_t allocations_after_warmup(Round round) {
  round();
  const std::uint64_t before = g_allocations;
  round();
  return g_allocations - before;
}

TEST(PacketPathAllocs, CrossRackSendsAllocateNothing) {
  sim::Simulation sim;
  net::Network net(sim);
  const NodeId src = net.add_node("a", "/r0", Bandwidth::mbps(1000));
  const NodeId dst = net.add_node("b", "/r1", Bandwidth::mbps(1000));
  // Egress, cross-rack shaper out, cross-rack shaper in, ingress: 4 hops.
  net.set_cross_rack_throttle(Bandwidth::mbps(100));
  std::uint64_t delivered = 0;
  const hdfs::WirePacket packet{PipelineId{1}, BlockId{2}, 3, 64 * kKiB, false};
  const std::uint64_t allocs = allocations_after_warmup([&] {
    for (int i = 0; i < kMessages; ++i) {
      // Same capture shape as the transport's packet lambda.
      auto deliver = [&delivered, dst, packet] {
        if (dst.valid() && packet.payload > 0) ++delivered;
      };
      static_assert(sizeof(deliver) >= sizeof(hdfs::WirePacket) + 16);
      static_assert(
          net::Network::DeliveryCallback::stores_inline<decltype(deliver)>());
      net.send(src, dst, 64 * kKiB + 100, std::move(deliver),
               net::LinkPriority::kBulk, static_cast<net::FlowKey>(i % 3));
    }
    sim.run();
  });
  EXPECT_EQ(delivered, 2u * kMessages);
  EXPECT_EQ(allocs, 0u);
}

TEST(PacketPathAllocs, DiskWritesAllocateNothing) {
  sim::Simulation sim;
  storage::DiskDevice disk(sim, "disk", Bandwidth::mega_bytes_per_second(100),
                           microseconds(50));
  std::uint64_t written = 0;
  const hdfs::WirePacket packet{PipelineId{1}, BlockId{2}, 3, 64 * kKiB, false};
  const std::uint64_t allocs = allocations_after_warmup([&] {
    for (int i = 0; i < kMessages; ++i) {
      disk.write(packet.payload, [&written, packet] {
        written += static_cast<std::uint64_t>(packet.payload);
      });
    }
    sim.run();
  });
  EXPECT_EQ(written, 2u * kMessages * 64 * kKiB);
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace smarth
