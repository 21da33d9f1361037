// Unit tests of the DfsClient facade: create() RPC semantics and the
// client-side heartbeat that piggybacks speed records (paper §III-B).
#include "hdfs/dfs_client.hpp"

#include <gtest/gtest.h>

#include "net/network.hpp"
#include "rpc/rpc_bus.hpp"
#include "sim/simulation.hpp"

namespace smarth::hdfs {
namespace {

class DfsClientTest : public ::testing::Test {
 protected:
  DfsClientTest() : sim_(1), net_(sim_) {
    nn_node_ = net_.add_node("nn", "/r0", Bandwidth::mbps(1000));
    client_node_ = net_.add_node("client", "/r0", Bandwidth::mbps(1000));
    dn_ = net_.add_node("dn0", "/r0", Bandwidth::mbps(1000));
    namenode_ = std::make_unique<Namenode>(sim_, net_.topology(), config_,
                                           nn_node_);
    namenode_->register_datanode(dn_);
    client_ = std::make_unique<DfsClient>(sim_, rpc_, *namenode_, config_,
                                          ClientId{0}, client_node_);
  }

  sim::Simulation sim_;
  net::Network net_;
  HdfsConfig config_;
  rpc::RpcBus rpc_{net_};
  NodeId nn_node_, client_node_, dn_;
  std::unique_ptr<Namenode> namenode_;
  std::unique_ptr<DfsClient> client_;
};

TEST_F(DfsClientTest, CreateFileRoundTrip) {
  std::optional<Result<FileId>> result;
  client_->create_file("/a", [&](Result<FileId> r) { result = std::move(r); });
  sim_.run_until(seconds(1));
  ASSERT_TRUE(result.has_value());
  ASSERT_TRUE(result->ok());
  EXPECT_NE(namenode_->file_by_path("/a"), nullptr);
}

TEST_F(DfsClientTest, CreatePropagatesNamenodeErrors) {
  namenode_->set_safe_mode(true);
  std::optional<Result<FileId>> result;
  client_->create_file("/a", [&](Result<FileId> r) { result = std::move(r); });
  sim_.run_until(seconds(1));
  ASSERT_TRUE(result.has_value());
  ASSERT_FALSE(result->ok());
  EXPECT_EQ(result->error().code, "safe_mode");
}

TEST_F(DfsClientTest, HeartbeatCarriesSpeedRecords) {
  std::vector<SpeedRecord> to_report{
      SpeedRecord{dn_, Bandwidth::mbps(123), 0}};
  client_->start_heartbeat([&to_report] { return to_report; });
  sim_.run_until(2 * kHeartbeatInterval + seconds(1));
  EXPECT_GE(client_->heartbeats_sent(), 1u);
  const auto speed = namenode_->speed_board().speed(ClientId{0}, dn_);
  ASSERT_TRUE(speed.has_value());
  EXPECT_DOUBLE_EQ(speed->mbps(), 123.0);
}

TEST_F(DfsClientTest, EmptyReportsSendPlainHeartbeat) {
  client_->start_heartbeat([] { return std::vector<SpeedRecord>{}; });
  sim_.run_until(2 * kHeartbeatInterval + seconds(1));
  EXPECT_GE(client_->heartbeats_sent(), 1u);
  EXPECT_FALSE(namenode_->speed_board().has_records(ClientId{0}));
}

TEST_F(DfsClientTest, HeartbeatCadenceMatchesConfig) {
  client_->start_heartbeat(nullptr);
  sim_.run_until(10 * kHeartbeatInterval + seconds(1));
  // Initial jitter spreads the first beat inside one interval; thereafter
  // one per interval.
  EXPECT_GE(client_->heartbeats_sent(), 9u);
  EXPECT_LE(client_->heartbeats_sent(), 11u);
}

TEST_F(DfsClientTest, StopHeartbeatQuiesces) {
  client_->start_heartbeat(nullptr);
  sim_.run_until(2 * kHeartbeatInterval);
  const std::uint64_t sent = client_->heartbeats_sent();
  client_->stop_heartbeat();
  sim_.run_until(sim_.now() + 5 * kHeartbeatInterval);
  EXPECT_EQ(client_->heartbeats_sent(), sent);
}

TEST_F(DfsClientTest, StartHeartbeatTwiceKeepsOneTask) {
  client_->start_heartbeat(nullptr);
  client_->start_heartbeat(nullptr);  // must not double-fire
  sim_.run_until(4 * kHeartbeatInterval + seconds(1));
  EXPECT_LE(client_->heartbeats_sent(), 5u);
}

}  // namespace
}  // namespace smarth::hdfs
