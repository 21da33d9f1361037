// Shared fixture of the hdfs unit tests: a hand-built mini cluster (one
// namenode host, one client host, a few datanodes) on a raw transport, with
// no Cluster facade in between. Datanodes attach themselves to the
// transport, which resolves them by NodeId for the tests and their peers.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hdfs/datanode.hpp"
#include "hdfs/namenode.hpp"
#include "hdfs/transport.hpp"
#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {

class MiniClusterTest : public ::testing::Test {
 protected:
  /// 64 KiB packets, `packets_per_block` to a block, one started datanode
  /// per entry of `racks`; the namenode and client sit on /r0, and every
  /// host has a 1 Gbps NIC.
  MiniClusterTest(std::int64_t packets_per_block,
                  const std::vector<std::string>& racks)
      : sim_(1), net_(sim_) {
    config_.packet_payload = 64 * kKiB;
    config_.block_size = packets_per_block * config_.packet_payload;
    nn_node_ = net_.add_node("nn", "/r0", Bandwidth::mbps(1000));
    client_node_ = net_.add_node("client", "/r0", Bandwidth::mbps(1000));
    for (std::size_t i = 0; i < racks.size(); ++i) {
      dn_nodes_.push_back(net_.add_node("dn" + std::to_string(i), racks[i],
                                        Bandwidth::mbps(1000)));
    }
    namenode_ = std::make_unique<Namenode>(sim_, net_.topology(), config_,
                                           nn_node_);
    for (NodeId node : dn_nodes_) {
      dns_.push_back(std::make_unique<Datanode>(sim_, transport_, rpc_,
                                                *namenode_, config_, node));
      dns_.back()->start();
    }
  }

  sim::Simulation sim_;
  net::Network net_;
  HdfsConfig config_;
  rpc::RpcBus rpc_{net_};
  Transport transport_{net_, config_};
  NodeId nn_node_, client_node_;
  std::vector<NodeId> dn_nodes_;
  std::unique_ptr<Namenode> namenode_;
  std::vector<std::unique_ptr<Datanode>> dns_;
};

}  // namespace smarth::hdfs
