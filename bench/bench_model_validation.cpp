// Ablation A5 — the paper's cost model (Formulas 1-3, §III-D) against the
// simulator at full paper scale. The serial formulas are upper-bound-ish
// (they add stage costs), the pipelined variants lower bounds (max stage
// cost), and SMARTH additionally saturates at the finite-block replica-drain
// makespan; the measured time should land inside that bracket.
#include "bench_common.hpp"
#include "common/table.hpp"
#include "model/cost_model.hpp"

using namespace smarth;

namespace {

model::CostParams derive_params(const cluster::ClusterSpec& spec,
                                double throttle_mbps, Bytes file_size) {
  model::CostParams p;
  p.file_size = file_size;
  p.block_size = spec.hdfs.block_size;
  p.packet_size = spec.hdfs.packet_payload;
  p.t_c = spec.hdfs.packet_production_time;
  const auto& profile = spec.datanodes[0].profile;
  p.t_w = profile.disk_op_overhead +
          profile.disk_write.transmit_time(p.packet_size) +
          hdfs::kChecksumVerifyTime;
  p.t_n = milliseconds(2);
  const Bandwidth nic = profile.network;
  const Bandwidth cross =
      throttle_mbps > 0 ? Bandwidth::mbps(throttle_mbps) : nic;
  p.b_min = min(nic, cross);
  p.b_max = nic;
  return p;
}

double drain_seconds(const cluster::ClusterSpec& spec, double throttle_mbps,
                     Bytes file_size) {
  if (throttle_mbps <= 0) return 0.0;
  const std::int64_t n = static_cast<std::int64_t>(spec.datanode_count()) /
                         spec.hdfs.replication;
  const std::int64_t blocks =
      (file_size + spec.hdfs.block_size - 1) / spec.hdfs.block_size;
  const std::int64_t rounds = (blocks + n - 1) / n;
  return static_cast<double>(rounds) *
         static_cast<double>(spec.hdfs.block_size) * 8.0 /
         (throttle_mbps * 1e6);
}

}  // namespace

int main() {
  bench::print_header(
      "Model validation — Formulas 1-3 vs simulation (small cluster, 8 GB)",
      "serial = paper formula, pipelined = overlap-aware lower bound, "
      "drain = SMARTH replica-drain makespan.");

  const Bytes file_size = bench::bench_file_size();
  TextTable table({"throttle", "protocol", "sim (s)", "serial model (s)",
                   "pipelined model (s)", "drain bound (s)", "sim/bracket"});

  for (double throttle : {0.0, 150.0, 100.0, 50.0}) {
    const cluster::ClusterSpec spec = cluster::small_cluster(42);
    const model::CostParams params = derive_params(spec, throttle, file_size);
    const std::string label =
        throttle > 0 ? std::to_string(static_cast<int>(throttle)) + " Mbps"
                     : "default";
    for (int p = 0; p < 2; ++p) {
      cluster::Cluster cluster(spec);
      if (throttle > 0) cluster.throttle_cross_rack(Bandwidth::mbps(throttle));
      harness::warm_speed_records(cluster);
      const auto stats = cluster.run_upload(
          "/f", file_size,
          p ? cluster::Protocol::kSmarth : cluster::Protocol::kHdfs);
      const double sim_secs = to_seconds(stats.elapsed());
      const double serial =
          to_seconds(p ? model::predict_smarth_time(params)
                       : model::predict_hdfs_time(params));
      const double pipelined =
          to_seconds(p ? model::predict_smarth_time_pipelined(params)
                       : model::predict_hdfs_time_pipelined(params));
      const double drain =
          p ? drain_seconds(spec, throttle, file_size) : 0.0;
      const double upper = std::max(serial, drain);
      const bool inside = sim_secs >= pipelined * 0.9 &&
                          sim_secs <= upper * 1.35;
      table.add_row({label, p ? "SMARTH" : "HDFS", TextTable::num(sim_secs),
                     TextTable::num(serial), TextTable::num(pipelined),
                     p ? TextTable::num(drain) : std::string("-"),
                     inside ? "inside" : "OUTSIDE"});
    }
  }
  std::printf("%s\n", table.to_string().c_str());
  return 0;
}
