#include "net/network.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/log.hpp"

namespace smarth::net {

Network::Network(sim::Simulation& sim, NetworkConfig config)
    : sim_(sim), config_(config) {}

NodeId Network::add_node(const std::string& name, const std::string& rack,
                         Bandwidth nic) {
  const NodeId id = topology_.add_host(name, rack);
  Port p;
  p.egress = std::make_unique<Link>(sim_, name + ".egress", nic, 0);
  p.ingress = std::make_unique<Link>(sim_, name + ".ingress", nic, 0);
  p.nic = nic;
  if (cross_throttle_) {
    p.cross_egress = std::make_unique<Link>(sim_, name + ".xeg",
                                            *cross_throttle_, 0);
    p.cross_ingress = std::make_unique<Link>(sim_, name + ".xin",
                                             *cross_throttle_, 0);
  }
  ports_.push_back(std::move(p));
  // A partition may name a rack that only now gets its first host.
  if (!partitions_.empty()) index_partitions();
  return id;
}

Network::Port& Network::port(NodeId id) {
  SMARTH_CHECK_MSG(id.valid() &&
                       static_cast<std::size_t>(id.value()) < ports_.size(),
                   "unknown node " << id.value());
  return ports_[static_cast<std::size_t>(id.value())];
}

const Network::Port& Network::port(NodeId id) const {
  SMARTH_CHECK_MSG(id.valid() &&
                       static_cast<std::size_t>(id.value()) < ports_.size(),
                   "unknown node " << id.value());
  return ports_[static_cast<std::size_t>(id.value())];
}

void Network::set_node_nic(NodeId node, Bandwidth bw) {
  Port& p = port(node);
  p.nic = bw;
  p.egress->set_capacity(bw);
  p.ingress->set_capacity(bw);
}

Bandwidth Network::node_nic(NodeId node) const { return port(node).nic; }

void Network::set_cross_rack_throttle(Bandwidth bw) {
  if (bw.is_unlimited()) {
    cross_throttle_.reset();
    for (auto& p : ports_) {
      p.cross_egress.reset();
      p.cross_ingress.reset();
    }
    return;
  }
  cross_throttle_ = bw;
  for (std::size_t i = 0; i < ports_.size(); ++i) {
    auto& p = ports_[i];
    const std::string& name = topology_.host_name(NodeId{
        static_cast<std::int64_t>(i)});
    if (p.cross_egress) {
      p.cross_egress->set_capacity(bw);
      p.cross_ingress->set_capacity(bw);
    } else {
      p.cross_egress = std::make_unique<Link>(sim_, name + ".xeg", bw, 0);
      p.cross_ingress = std::make_unique<Link>(sim_, name + ".xin", bw, 0);
    }
  }
}

void Network::set_shared_rack_uplink(Bandwidth bw) {
  if (bw.is_unlimited()) {
    shared_uplink_rate_.reset();
    rack_uplinks_.clear();
    return;
  }
  shared_uplink_rate_ = bw;
  for (auto& link : rack_uplinks_) {
    if (link) link->set_capacity(bw);
  }
}

Link* Network::rack_uplink(std::size_t rack) {
  if (!shared_uplink_rate_) return nullptr;
  if (rack_uplinks_.size() <= rack) rack_uplinks_.resize(rack + 1);
  std::unique_ptr<Link>& link = rack_uplinks_[rack];
  if (!link) {
    link = std::make_unique<Link>(sim_, topology_.racks()[rack] + ".uplink",
                                  *shared_uplink_rate_, 0);
  }
  return link.get();
}

void Network::set_rack_partition(const std::string& rack_a,
                                 const std::string& rack_b, bool severed) {
  auto key = rack_a < rack_b ? std::make_pair(rack_a, rack_b)
                             : std::make_pair(rack_b, rack_a);
  if (severed) {
    partitions_.insert(std::move(key));
  } else {
    partitions_.erase(key);
  }
  index_partitions();
}

void Network::index_partitions() {
  severed_.clear();
  for (const auto& [rack_a, rack_b] : partitions_) {
    const auto a = topology_.find_rack(rack_a);
    const auto b = topology_.find_rack(rack_b);
    if (!a || !b || *a == *b) continue;
    severed_.emplace_back(std::min(*a, *b), std::max(*a, *b));
  }
}

bool Network::partitioned(NodeId a, NodeId b) const {
  if (severed_.empty()) return false;
  std::size_t ra = topology_.rack_index(a);
  std::size_t rb = topology_.rack_index(b);
  if (ra == rb) return false;
  if (rb < ra) std::swap(ra, rb);
  return std::find(severed_.begin(), severed_.end(), std::make_pair(ra, rb)) !=
         severed_.end();
}

void Network::set_node_isolated(NodeId node, bool isolated) {
  SMARTH_CHECK(node.valid());
  const auto idx = static_cast<std::size_t>(node.value());
  if (isolated_.size() <= idx) isolated_.resize(idx + 1, false);
  isolated_[idx] = isolated;
}

bool Network::node_isolated(NodeId node) const {
  const auto idx = static_cast<std::size_t>(node.value());
  return idx < isolated_.size() && isolated_[idx];
}

void Network::pause_ingress(NodeId node) { port(node).ingress->pause(); }

void Network::resume_ingress(NodeId node) { port(node).ingress->resume(); }

bool Network::ingress_paused(NodeId node) const {
  return port(node).ingress->paused();
}

const Link& Network::egress_link(NodeId node) const {
  return *port(node).egress;
}

Bytes Network::bytes_sent(NodeId node) const {
  return port(node).egress->bytes_transmitted();
}

Bytes Network::bytes_received(NodeId node) const {
  return port(node).ingress->bytes_transmitted();
}

Network::InFlight* Network::acquire_record() {
  InFlight* rec = free_records_;
  if (rec != nullptr) {
    free_records_ = rec->next_free;
  } else {
    rec = &records_.emplace_back();
  }
  rec->hop_count = 0;
  rec->next_hop = 0;
  return rec;
}

void Network::transmit_hop(InFlight* rec) {
  rec->hops[rec->next_hop]->transmit(
      rec->size, [this, rec] { on_hop_done(rec); }, rec->priority, rec->flow);
}

void Network::on_hop_done(InFlight* rec) {
  if (++rec->next_hop < rec->hop_count) {
    transmit_hop(rec);
    return;
  }
  DeliveryCallback cb = std::move(rec->on_delivered);
  const SimDuration propagation = rec->propagation;
  rec->next_free = free_records_;
  free_records_ = rec;
  ++messages_delivered_;
  if (propagation > 0) {
    sim_.schedule_after(propagation, std::move(cb));
  } else {
    cb();
  }
}

void Network::send(NodeId src, NodeId dst, Bytes wire_size,
                   DeliveryCallback on_delivered, LinkPriority priority,
                   FlowKey flow) {
  SMARTH_CHECK(static_cast<bool>(on_delivered));
  if (src == dst) {
    ++messages_delivered_;
    sim_.schedule_after(config_.loopback_latency, std::move(on_delivered));
    return;
  }
  if (partitioned(src, dst) || node_isolated(src) || node_isolated(dst)) {
    // The inter-switch link or an endpoint NIC is down: the message vanishes
    // (senders discover it through their own timeouts, exactly as with real
    // partitions or flapping cables).
    ++messages_dropped_;
    return;
  }
  Port& sp = port(src);
  Port& dp = port(dst);
  const bool cross = !topology_.same_rack(src, dst);

  InFlight* rec = acquire_record();
  rec->hops[rec->hop_count++] = sp.egress.get();
  if (cross) {
    if (sp.cross_egress) rec->hops[rec->hop_count++] = sp.cross_egress.get();
    if (Link* uplink = rack_uplink(topology_.rack_index(src))) {
      rec->hops[rec->hop_count++] = uplink;
    }
    if (dp.cross_ingress) rec->hops[rec->hop_count++] = dp.cross_ingress.get();
  }
  rec->hops[rec->hop_count++] = dp.ingress.get();
  rec->size = wire_size;
  rec->priority = priority;
  rec->flow = flow;
  // Propagation is paid once, after the full store-and-forward chain; it does
  // not occupy any link.
  rec->propagation =
      cross ? config_.cross_rack_latency : config_.same_rack_latency;
  rec->on_delivered = std::move(on_delivered);
  transmit_hop(rec);
}

}  // namespace smarth::net
