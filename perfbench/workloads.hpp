// The benchmark's three reference workloads and the metric catalogue.
//
// One call to run_rep() runs every arm of one workload once, one after
// another on the calling thread, reaching the simulator only through its
// public API. It returns the host time spent inside the simulator's run
// calls, the set-up time, the heap allocations made, and every simulated
// value (exact for a given seed), and it checks the simulated system's
// outputs.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "alloc_count.hpp"
#include "trace/trace_recorder.hpp"

namespace perfbench {

enum class Workload { kFig6, kA12, kGrid1000 };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);

/// Workload seeds one run simulates. Simulated results move with the seed
/// (placement, arrivals); a run reports each simulated end-to-end metric as
/// the mean over this many seeds, enough to bring its run-to-run spread well
/// inside the metric's bound.
std::size_t seeds_per_run(Workload w);

/// The end-to-end metrics, printed by an untraced run, in BENCHMARK.json order.
struct MetricDef {
  const char* name;
  const char* unit;
};
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics, printed by a traced run, in BENCHMARK.json order.
const std::vector<MetricDef>& per_layer_metrics();

struct RepOptions {
  std::uint64_t seed = 42;
  /// Set for a traced repetition: receives a span, on the recorder's own
  /// clock, around each call the benchmark makes into the simulator, and the
  /// repetition installs a trace::TraceRecorder for the simulator's own spans
  /// and reports their per-phase block-span sums (hdfs.phase.*). Null for an
  /// untraced repetition.
  smarth::trace::TraceRecorder* spans = nullptr;
};

/// Everything one repetition of a workload produced.
struct RepResult {
  /// Host seconds inside the simulator's run calls (run_upload,
  /// run_download, OpenLoopWorkload::run, run_until), summed over arms.
  double host_run_s = 0.0;
  /// Host seconds in cluster construction plus throttle set-up, summed over
  /// arms.
  double setup_s = 0.0;
  int clusters = 0;
  /// Uploads, reads and open-loop jobs attempted, and those the simulated
  /// system reported failed or left stuck.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Output-check violations; empty when every check held.
  std::vector<std::string> check_failures;
  /// Simulated values, exact per seed: the simulated end-to-end metrics,
  /// the per-layer counts and utilizations, keyed by metric name.
  std::map<std::string, double> sim;
  /// Heap allocations made by the repetition (set-up and runs).
  AllocTally allocs;
  /// Events the simulator's recorder captured (traced repetitions only).
  std::uint64_t trace_records = 0;
  /// Metrics-registry JSON snapshot taken at the end of each arm.
  std::vector<std::pair<std::string, std::string>> registry_snapshots;
};

RepResult run_rep(Workload w, const RepOptions& options);

/// Uploads 1 MiB onto a 9-datanode cluster whose datanodes have all
/// crashed and accounts the upload as a workload arm would. The tests use it
/// to show that a failure the simulated system reports counts into
/// `failed` and `failed_ratio`.
RepResult run_upload_with_all_datanodes_down(std::uint64_t seed);

}  // namespace perfbench
