// Differential tests for the allocation-free Link and Network::send.
//
// RefLink and RefNetwork below are the straightforward models the packet
// path is measured against: per-flow std::deque queues in an unordered_map,
// a deque service ring, std::function callbacks, and a recursive hop
// traversal over a per-send std::vector chain. Randomized scripts drive a
// reference and the real implementation on twin simulations, and every
// delivery must land in the same order at the same simulated time.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/link.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"

namespace smarth::net {
namespace {

class RefLink {
 public:
  using DeliveryCallback = std::function<void()>;

  RefLink(sim::Simulation& sim, const std::string& /*name*/,
          Bandwidth capacity, SimDuration latency)
      : sim_(sim), capacity_(capacity), latency_(latency) {}

  void set_capacity(Bandwidth capacity) { capacity_ = capacity; }

  void transmit(Bytes size, DeliveryCallback on_delivered,
                LinkPriority priority = LinkPriority::kBulk,
                FlowKey flow = kDefaultFlow) {
    if (priority == LinkPriority::kControl) {
      control_queue_.push_back(Pending{size, std::move(on_delivered)});
    } else {
      auto [it, inserted] = flow_queues_.try_emplace(flow);
      if (it->second.empty()) active_flows_.push_back(flow);
      it->second.push_back(Pending{size, std::move(on_delivered)});
      ++bulk_queued_;
    }
    queued_bytes_ += size;
    try_start_next();
  }

  void pause() { paused_ = true; }
  void resume() {
    if (!paused_) return;
    paused_ = false;
    try_start_next();
  }

  std::size_t queued_count() const {
    return bulk_queued_ + control_queue_.size();
  }
  Bytes queued_bytes() const { return queued_bytes_; }
  Bytes bytes_transmitted() const { return bytes_transmitted_; }
  std::uint64_t messages_transmitted() const { return messages_transmitted_; }
  SimDuration busy_time() const {
    return busy_accum_ + (busy_ ? sim_.now() - busy_since_ : 0);
  }

 private:
  struct Pending {
    Bytes size;
    DeliveryCallback on_delivered;
  };

  void try_start_next() {
    if (busy_ || paused_) return;
    Pending next{0, nullptr};
    if (!control_queue_.empty()) {
      next = std::move(control_queue_.front());
      control_queue_.pop_front();
    } else if (!active_flows_.empty()) {
      const FlowKey flow = active_flows_.front();
      active_flows_.pop_front();
      auto it = flow_queues_.find(flow);
      next = std::move(it->second.front());
      it->second.pop_front();
      --bulk_queued_;
      if (!it->second.empty()) {
        active_flows_.push_back(flow);
      } else {
        flow_queues_.erase(it);
      }
    } else {
      return;
    }
    queued_bytes_ -= next.size;
    busy_ = true;
    busy_since_ = sim_.now();
    sim_.post_after(
        capacity_.transmit_time(next.size), "link.serialize",
        [this, size = next.size, cb = std::move(next.on_delivered)]() mutable {
          finish_current(size, std::move(cb));
        });
  }

  void finish_current(Bytes size, DeliveryCallback cb) {
    busy_ = false;
    busy_accum_ += sim_.now() - busy_since_;
    bytes_transmitted_ += size;
    ++messages_transmitted_;
    if (latency_ > 0) {
      sim_.post_after(latency_, "link.deliver", [cb = std::move(cb)] { cb(); });
    } else {
      sim_.post_now("link.deliver", [cb = std::move(cb)] { cb(); });
    }
    try_start_next();
  }

  sim::Simulation& sim_;
  Bandwidth capacity_;
  SimDuration latency_;
  std::unordered_map<FlowKey, std::deque<Pending>> flow_queues_;
  std::deque<FlowKey> active_flows_;
  std::deque<Pending> control_queue_;
  std::size_t bulk_queued_ = 0;
  Bytes queued_bytes_ = 0;
  bool busy_ = false;
  bool paused_ = false;
  Bytes bytes_transmitted_ = 0;
  std::uint64_t messages_transmitted_ = 0;
  SimDuration busy_accum_ = 0;
  SimTime busy_since_ = 0;
};

/// (message id, delivery time), in delivery order.
using Deliveries = std::vector<std::pair<int, SimTime>>;

/// One randomized link script, replayed identically on both twins.
struct LinkStep {
  SimTime at = 0;
  enum class Kind { kSend, kPause, kResume, kCapacity } kind = Kind::kSend;
  Bytes size = 0;
  LinkPriority priority = LinkPriority::kBulk;
  FlowKey flow = kDefaultFlow;
  Bandwidth capacity = Bandwidth::mbps(100);
};

std::vector<LinkStep> random_link_script(std::uint64_t seed) {
  Rng rng(seed);
  const int flows = static_cast<int>(rng.uniform_int(1, 8));
  std::vector<LinkStep> steps;
  SimTime t = 0;
  for (int i = 0; i < 400; ++i) {
    // Bursts separated by idle gaps, so flows drain and later rejoin.
    t += rng.uniform() < 0.1 ? milliseconds(rng.uniform_int(5, 40))
                             : microseconds(rng.uniform_int(0, 300));
    LinkStep step;
    step.at = t;
    const double roll = rng.uniform();
    if (roll < 0.04) {
      step.kind = LinkStep::Kind::kPause;
    } else if (roll < 0.10) {
      step.kind = LinkStep::Kind::kResume;
    } else if (roll < 0.12) {
      step.kind = LinkStep::Kind::kCapacity;
      step.capacity = Bandwidth::mbps(static_cast<double>(rng.uniform_int(10, 400)));
    } else {
      step.priority = rng.uniform() < 0.2 ? LinkPriority::kControl
                                          : LinkPriority::kBulk;
      step.flow = static_cast<FlowKey>(rng.uniform_int(0, flows - 1));
      step.size = rng.uniform() < 0.05 ? 0 : rng.uniform_int(1, 64 * kKiB);
    }
    steps.push_back(step);
  }
  // Always end unpaused so every queued message drains.
  LinkStep resume;
  resume.at = t + 1;
  resume.kind = LinkStep::Kind::kResume;
  steps.push_back(resume);
  return steps;
}

/// Everything a link script observes, compared field by field.
struct LinkTrace {
  Deliveries deliveries;
  /// (queued_count, queued_bytes) right after each script step.
  std::vector<std::pair<std::size_t, Bytes>> occupancy;
  Bytes bytes_transmitted = 0;
  std::uint64_t messages_transmitted = 0;
  SimDuration busy_time = 0;

  bool operator==(const LinkTrace& o) const {
    return deliveries == o.deliveries && occupancy == o.occupancy &&
           bytes_transmitted == o.bytes_transmitted &&
           messages_transmitted == o.messages_transmitted &&
           busy_time == o.busy_time;
  }
};

template <typename L>
LinkTrace run_link_script(const std::vector<LinkStep>& steps,
                          SimDuration latency) {
  sim::Simulation sim;
  L link(sim, "l", Bandwidth::mbps(100), latency);
  LinkTrace trace;
  for (std::size_t i = 0; i < steps.size(); ++i) {
    const LinkStep& step = steps[i];
    sim.schedule_at(step.at, [&, i, step] {
      switch (step.kind) {
        case LinkStep::Kind::kPause: link.pause(); break;
        case LinkStep::Kind::kResume: link.resume(); break;
        case LinkStep::Kind::kCapacity: link.set_capacity(step.capacity); break;
        case LinkStep::Kind::kSend:
          link.transmit(
              step.size,
              [&trace, &sim, id = static_cast<int>(i)] {
                trace.deliveries.emplace_back(id, sim.now());
              },
              step.priority, step.flow);
          break;
      }
      trace.occupancy.emplace_back(link.queued_count(), link.queued_bytes());
    });
  }
  sim.run();
  EXPECT_EQ(link.queued_count(), 0u);
  trace.bytes_transmitted = link.bytes_transmitted();
  trace.messages_transmitted = link.messages_transmitted();
  trace.busy_time = link.busy_time();
  return trace;
}

TEST(LinkDifferential, RandomScriptsMatchReferenceModel) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const auto steps = random_link_script(seed);
    const SimDuration latency = seed % 2 ? 0 : microseconds(150);
    const LinkTrace ref = run_link_script<RefLink>(steps, latency);
    const LinkTrace got = run_link_script<Link>(steps, latency);
    ASSERT_EQ(got.deliveries, ref.deliveries) << "seed " << seed;
    EXPECT_TRUE(got == ref) << "seed " << seed;
    EXPECT_EQ(ref.deliveries.size(),
              static_cast<std::size_t>(std::count_if(
                  steps.begin(), steps.end(), [](const LinkStep& s) {
                    return s.kind == LinkStep::Kind::kSend;
                  })));
  }
}

// --- Network ------------------------------------------------------------------

/// The recursive-traversal fabric: the same hop chain rules as Network, but
/// a fresh std::vector chain per send and a new capture per hop.
class RefNetwork {
 public:
  explicit RefNetwork(sim::Simulation& sim) : sim_(sim) {}

  NodeId add_node(const std::string& name, const std::string& rack,
                  Bandwidth nic) {
    const NodeId id = topology_.add_host(name, rack);
    Port p;
    p.egress = std::make_unique<RefLink>(sim_, "", nic, 0);
    p.ingress = std::make_unique<RefLink>(sim_, "", nic, 0);
    ports_.push_back(std::move(p));
    return id;
  }
  void set_cross_rack_throttle(Bandwidth bw) {
    for (auto& p : ports_) {
      p.cross_egress = std::make_unique<RefLink>(sim_, "", bw, 0);
      p.cross_ingress = std::make_unique<RefLink>(sim_, "", bw, 0);
    }
  }
  void set_shared_rack_uplink(Bandwidth bw) { uplink_rate_ = bw; }
  void set_rack_partition(const std::string& a, const std::string& b,
                          bool severed) {
    auto key = a < b ? std::make_pair(a, b) : std::make_pair(b, a);
    if (severed) {
      partitions_.insert(key);
    } else {
      partitions_.erase(key);
    }
  }
  void set_node_isolated(NodeId node, bool isolated) {
    const auto idx = static_cast<std::size_t>(node.value());
    if (isolated_.size() <= idx) isolated_.resize(idx + 1, false);
    isolated_[idx] = isolated;
  }
  void pause_ingress(NodeId node) { port(node).ingress->pause(); }
  void resume_ingress(NodeId node) { port(node).ingress->resume(); }

  void send(NodeId src, NodeId dst, Bytes size, std::function<void()> done,
            LinkPriority priority, FlowKey flow) {
    if (src == dst) {
      ++delivered_;
      sim_.schedule_after(microseconds(20), std::move(done));
      return;
    }
    if (partitioned(src, dst) || isolated(src) || isolated(dst)) {
      ++dropped_;
      return;
    }
    Port& sp = port(src);
    Port& dp = port(dst);
    const bool cross = !topology_.same_rack(src, dst);
    std::vector<RefLink*> chain;
    chain.push_back(sp.egress.get());
    if (cross) {
      if (sp.cross_egress) chain.push_back(sp.cross_egress.get());
      if (uplink_rate_) chain.push_back(uplink(topology_.rack_of(src)));
      if (dp.cross_ingress) chain.push_back(dp.cross_ingress.get());
    }
    chain.push_back(dp.ingress.get());
    const SimDuration propagation =
        cross ? microseconds(400) : microseconds(150);
    traverse(std::move(chain), 0, size, priority, flow,
             [this, propagation, cb = std::move(done)]() mutable {
               ++delivered_;
               sim_.schedule_after(propagation, std::move(cb));
             });
  }

  std::uint64_t messages_delivered() const { return delivered_; }
  std::uint64_t messages_dropped() const { return dropped_; }

 private:
  struct Port {
    std::unique_ptr<RefLink> egress;
    std::unique_ptr<RefLink> ingress;
    std::unique_ptr<RefLink> cross_egress;
    std::unique_ptr<RefLink> cross_ingress;
  };

  Port& port(NodeId id) { return ports_[static_cast<std::size_t>(id.value())]; }
  bool isolated(NodeId id) const {
    const auto idx = static_cast<std::size_t>(id.value());
    return idx < isolated_.size() && isolated_[idx];
  }
  bool partitioned(NodeId a, NodeId b) const {
    std::string ra = topology_.rack_of(a);
    std::string rb = topology_.rack_of(b);
    if (ra == rb) return false;
    if (rb < ra) std::swap(ra, rb);
    return partitions_.count(std::make_pair(ra, rb)) > 0;
  }
  RefLink* uplink(const std::string& rack) {
    auto& link = uplinks_[rack];
    if (!link) link = std::make_unique<RefLink>(sim_, "", *uplink_rate_, 0);
    return link.get();
  }
  void traverse(std::vector<RefLink*> chain, std::size_t index, Bytes size,
                LinkPriority priority, FlowKey flow,
                std::function<void()> done) {
    if (index == chain.size()) {
      done();
      return;
    }
    RefLink* hop = chain[index];
    hop->transmit(size,
                  [this, chain = std::move(chain), index, size, priority, flow,
                   done = std::move(done)]() mutable {
                    traverse(std::move(chain), index + 1, size, priority, flow,
                             std::move(done));
                  },
                  priority, flow);
  }

  sim::Simulation& sim_;
  Topology topology_;
  std::vector<Port> ports_;
  std::optional<Bandwidth> uplink_rate_;
  std::unordered_map<std::string, std::unique_ptr<RefLink>> uplinks_;
  std::set<std::pair<std::string, std::string>> partitions_;
  std::vector<bool> isolated_;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

const char* const kRacks[] = {"/r0", "/r1", "/r2"};

template <typename N>
Deliveries run_network_script(std::uint64_t seed, std::uint64_t* delivered,
                              std::uint64_t* dropped) {
  sim::Simulation sim;
  N net(sim);
  std::vector<NodeId> nodes;
  for (int i = 0; i < 7; ++i) {
    nodes.push_back(net.add_node("n" + std::to_string(i), kRacks[i % 3],
                                 Bandwidth::mbps(200)));
  }
  net.set_cross_rack_throttle(Bandwidth::mbps(50));
  net.set_shared_rack_uplink(Bandwidth::mbps(80));

  Rng rng(seed);
  Deliveries out;
  SimTime t = 0;
  for (int i = 0; i < 600; ++i) {
    t += rng.uniform() < 0.05 ? milliseconds(rng.uniform_int(5, 30))
                              : microseconds(rng.uniform_int(0, 400));
    const double roll = rng.uniform();
    const NodeId a = nodes[rng.index(nodes.size())];
    const NodeId b = nodes[rng.index(nodes.size())];
    if (roll < 0.03) {
      const bool on = rng.uniform() < 0.5;
      sim.schedule_at(t, [&net, a, on] { net.set_node_isolated(a, on); });
    } else if (roll < 0.06) {
      const std::string ra = kRacks[rng.index(3)];
      const std::string rb = kRacks[rng.index(3)];
      const bool on = rng.uniform() < 0.5;
      sim.schedule_at(t, [&net, ra, rb, on] {
        net.set_rack_partition(ra, rb, on);
      });
    } else if (roll < 0.09) {
      const bool pause = rng.uniform() < 0.5;
      sim.schedule_at(t, [&net, a, pause] {
        if (pause) {
          net.pause_ingress(a);
        } else {
          net.resume_ingress(a);
        }
      });
    } else {
      const auto priority =
          rng.uniform() < 0.25 ? LinkPriority::kControl : LinkPriority::kBulk;
      const auto flow = static_cast<FlowKey>(rng.uniform_int(0, 5));
      const Bytes size = rng.uniform() < 0.05 ? 0 : rng.uniform_int(1, 64 * kKiB);
      sim.schedule_at(t, [&net, &out, &sim, a, b, size, priority, flow, i] {
        net.send(a, b, size, [&out, &sim, i] { out.emplace_back(i, sim.now()); },
                 priority, flow);
      });
    }
  }
  // Lift every pause so the run drains.
  sim.schedule_at(t + 1, [&net, &nodes] {
    for (NodeId n : nodes) net.resume_ingress(n);
  });
  sim.run();
  *delivered = net.messages_delivered();
  *dropped = net.messages_dropped();
  return out;
}

TEST(NetworkDifferential, UplinkShapersIsolationAndPartitionsMatchReference) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    std::uint64_t ref_delivered = 0;
    std::uint64_t ref_dropped = 0;
    std::uint64_t got_delivered = 0;
    std::uint64_t got_dropped = 0;
    const Deliveries ref =
        run_network_script<RefNetwork>(seed, &ref_delivered, &ref_dropped);
    const Deliveries got =
        run_network_script<Network>(seed, &got_delivered, &got_dropped);
    ASSERT_EQ(got, ref) << "seed " << seed;
    EXPECT_EQ(got_delivered, ref_delivered) << "seed " << seed;
    EXPECT_EQ(got_dropped, ref_dropped) << "seed " << seed;
    EXPECT_GT(ref_dropped, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace smarth::net
