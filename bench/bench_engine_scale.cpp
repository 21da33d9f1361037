// Engine scale trajectory: events/sec and wall-clock per simulated hour
// across cluster sizes (10 / 100 / 1000 datanodes) in both fidelity modes,
// plus an in-process comparison of the calendar-queue event core against the
// pre-refactor reference design (sim/reference_queue.hpp). Emits
// BENCH_engine_scale.json so the perf trajectory is machine-checkable: CI
// gates on the median core speedup ratio over interleaved rounds, which is
// machine-independent because both cores run in the same process on the
// same workload, and steadier than any single round on a shared host.
//
//   bench_engine_scale [output.json]
//
// SMARTH_BENCH_ENGINE_FAST=1 shrinks the simulated horizon and upload (CI
// config); the cluster-size grid — including the 1000-node block-fidelity
// point — is identical in both configs.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/cluster_spec.hpp"
#include "cluster/instance_profile.hpp"
#include "sim/reference_queue.hpp"
#include "sim/simulation.hpp"

using namespace smarth;

namespace {

double wall_seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// --- Core micro-comparison ---------------------------------------------------
// Steady-state churn: `chains` concurrent self-rescheduling chains, the shape
// of a running simulation (every executed event schedules its successor).
// Identical workload on both cores; the ratio of events/sec is the speedup
// the refactor buys, independent of the machine the bench runs on.

constexpr int kChurnChains = 65536;
constexpr std::uint64_t kChurnEvents = 2'000'000;
/// Rounds of the churn comparison; each runs both cores, alternating which
/// goes first, and the reported rates and speedup are per-round medians.
constexpr int kChurnRounds = 7;

SimDuration churn_delay(std::uint64_t n) {
  return 100 + static_cast<SimDuration>((n * 2654435761u) % 10'000);
}

struct CoreRate {
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  }
};

CoreRate churn_calendar() {
  sim::Simulation sim(1);
  std::uint64_t n = 0;
  std::function<void()> spawn = [&] {
    sim.post_after(churn_delay(n++), "churn", [&] { spawn(); });
  };
  for (int i = 0; i < kChurnChains; ++i) spawn();
  const auto start = std::chrono::steady_clock::now();
  sim.run_steps(kChurnEvents);
  CoreRate rate;
  rate.wall_s = wall_seconds_since(start);
  rate.events = sim.events_executed();
  return rate;
}

CoreRate churn_reference() {
  sim::ReferenceQueue sim;
  std::uint64_t n = 0;
  std::function<void()> spawn = [&] {
    sim.schedule_after(churn_delay(n++), [&] { spawn(); });
  };
  for (int i = 0; i < kChurnChains; ++i) spawn();
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t executed = 0;
  while (executed < kChurnEvents && sim.execute_one()) ++executed;
  CoreRate rate;
  rate.wall_s = wall_seconds_since(start);
  rate.events = executed;
  return rate;
}

// --- Cluster-scale points ----------------------------------------------------

struct ScalePoint {
  int datanodes = 0;
  const char* fidelity = "packet";
  std::uint64_t events = 0;
  double wall_s = 0;
  double sim_s = 0;

  double events_per_sec() const {
    return wall_s > 0 ? static_cast<double>(events) / wall_s : 0;
  }
  double wall_per_sim_hour() const {
    return sim_s > 0 ? wall_s / sim_s * 3600.0 : 0;
  }
};

ScalePoint run_scale_point(int datanodes, hdfs::DataFidelity fidelity,
                           double sim_seconds, Bytes file_size) {
  cluster::ClusterSpec spec = cluster::homogeneous_cluster(
      cluster::small_instance(), static_cast<std::size_t>(datanodes), 42);
  spec.hdfs.fidelity = fidelity;
  cluster::Cluster cluster(spec);
  // One active upload keeps the data path hot; at 1000 nodes the heartbeat /
  // control plane is the dominant event source, which is the scale story.
  cluster.upload("/bench/scale.bin", file_size, cluster::Protocol::kSmarth,
                 [](const hdfs::StreamStats&) {});
  const auto start = std::chrono::steady_clock::now();
  cluster.sim().run_until(seconds_f(sim_seconds));
  ScalePoint point;
  point.datanodes = datanodes;
  point.fidelity =
      fidelity == hdfs::DataFidelity::kBlock ? "block" : "packet";
  point.wall_s = wall_seconds_since(start);
  point.sim_s = sim_seconds;
  point.events = cluster.sim().events_executed();
  return point;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2;
}

std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path =
      argc > 1 ? argv[1] : "BENCH_engine_scale.json";
  const bool fast = std::getenv("SMARTH_BENCH_ENGINE_FAST") != nullptr;
  const double sim_seconds = fast ? 8.0 : 30.0;
  const Bytes file_size = fast ? 256 * kMiB : kGiB;

  std::printf("engine core churn (%d chains, %llu events, %d rounds):\n",
              kChurnChains, static_cast<unsigned long long>(kChurnEvents),
              kChurnRounds);
  std::vector<double> calendar_rates;
  std::vector<double> reference_rates;
  std::vector<double> speedups;
  for (int round = 0; round < kChurnRounds; ++round) {
    CoreRate calendar;
    CoreRate reference;
    if (round % 2 == 0) {
      calendar = churn_calendar();
      reference = churn_reference();
    } else {
      reference = churn_reference();
      calendar = churn_calendar();
    }
    const double ratio =
        reference.events_per_sec() > 0
            ? calendar.events_per_sec() / reference.events_per_sec()
            : 0;
    std::printf("  round %d: calendar %10.0f  reference %10.0f  %5.2fx\n",
                round, calendar.events_per_sec(), reference.events_per_sec(),
                ratio);
    calendar_rates.push_back(calendar.events_per_sec());
    reference_rates.push_back(reference.events_per_sec());
    speedups.push_back(ratio);
  }
  const double speedup = median(speedups);
  const auto [min_speedup, max_speedup] =
      std::minmax_element(speedups.begin(), speedups.end());
  std::printf("  calendar queue  %10.0f events/s (median)\n",
              median(calendar_rates));
  std::printf("  reference core  %10.0f events/s (median)\n",
              median(reference_rates));
  std::printf("  speedup         %10.2fx (median; min %.2fx, max %.2fx)\n\n",
              speedup, *min_speedup, *max_speedup);

  std::vector<ScalePoint> points;
  for (const int datanodes : {10, 100, 1000}) {
    for (const hdfs::DataFidelity fidelity :
         {hdfs::DataFidelity::kPacket, hdfs::DataFidelity::kBlock}) {
      ScalePoint point =
          run_scale_point(datanodes, fidelity, sim_seconds, file_size);
      std::printf(
          "%5d datanodes  %-6s  %9llu events  %8.0f events/s  "
          "%7.2f wall-s per sim-hour\n",
          point.datanodes, point.fidelity,
          static_cast<unsigned long long>(point.events),
          point.events_per_sec(), point.wall_per_sim_hour());
      std::fflush(stdout);
      points.push_back(point);
    }
  }

  std::string json = "{\n  \"bench\": \"engine_scale\",\n";
  json += "  \"config\": {\"fast\": " + std::string(fast ? "true" : "false") +
          ", \"sim_seconds\": " + json_num(sim_seconds) +
          ", \"file_mib\": " + json_num(static_cast<double>(file_size / kMiB)) +
          "},\n";
  json += "  \"core_microbench\": {\"chains\": " + std::to_string(kChurnChains) +
          ", \"events\": " + std::to_string(kChurnEvents) +
          ", \"rounds\": " + std::to_string(kChurnRounds) +
          ", \"calendar_events_per_sec\": " + json_num(median(calendar_rates)) +
          ", \"reference_events_per_sec\": " +
          json_num(median(reference_rates)) +
          ", \"speedup\": " + json_num(speedup) +
          ", \"speedup_min\": " + json_num(*min_speedup) +
          ", \"speedup_max\": " + json_num(*max_speedup) + "},\n";
  json += "  \"clusters\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalePoint& p = points[i];
    json += std::string("    {\"datanodes\": ") + std::to_string(p.datanodes) +
            ", \"fidelity\": \"" + p.fidelity +
            "\", \"events\": " + std::to_string(p.events) +
            ", \"sim_seconds\": " + json_num(p.sim_s) +
            ", \"wall_seconds\": " + json_num(p.wall_s) +
            ", \"events_per_sec\": " + json_num(p.events_per_sec()) +
            ", \"wall_seconds_per_sim_hour\": " +
            json_num(p.wall_per_sim_hour()) + "}";
    json += i + 1 < points.size() ? ",\n" : "\n";
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::printf("\nwritten to %s\n", out_path.c_str());
  return 0;
}
