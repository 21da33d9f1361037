// A general-purpose metrics registry: named counters, gauges and
// histogram-backed latency distributions that instrumented components
// register into, replacing ad-hoc per-subsystem counter structs
// incrementally. Lives next to the tracer (and below every instrumented
// library) so rpc/hdfs/faults can all link it without dependency cycles.
//
// Like the rest of the simulator the registry is single-threaded; names are
// kept in a std::map so every dump is deterministically ordered.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/histogram.hpp"

namespace smarth::metrics {

class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  /// Relative adjustment for occupancy-style gauges (streams open, jobs in
  /// flight) maintained by paired inc/dec sites.
  void add(double delta) { value_ += delta; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Latency distribution: a fixed-boundary Histogram for p50/p95/p99 plus
/// exact streaming summary stats. Values are nanoseconds by convention
/// (suffix metric names with `_ns`).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::vector<double> upper_bounds);

  void observe(double v);
  /// Adds `other`'s buckets and summary stats (bounds must match).
  void merge(const LatencyHistogram& other);
  std::size_t count() const { return stats_.count(); }
  const SummaryStats& stats() const { return stats_; }
  double quantile(double q) const { return histogram_.quantile(q); }
  const Histogram& histogram() const { return histogram_; }

 private:
  Histogram histogram_;
  SummaryStats stats_;
};

/// Exponential nanosecond buckets from 10us to 100s — wide enough for both
/// packet hop latencies and whole-block recovery times.
const std::vector<double>& default_latency_bounds();

class Registry {
 public:
  template <typename Metric>
  using Map = std::map<std::string, Metric, std::less<>>;

  Registry();

  /// Find-or-create. A hit neither allocates nor copies; the name is copied
  /// only when the metric is created. References stay valid until reset()
  /// (std::map nodes are stable), so hot paths may cache them (see Cached).
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  LatencyHistogram& histogram(std::string_view name);
  /// `upper_bounds` apply only when the histogram is created.
  LatencyHistogram& histogram(std::string_view name,
                              const std::vector<double>& upper_bounds);

  /// Read-only lookups (nullptr when absent) for tests and reports.
  const Counter* find_counter(std::string_view name) const;
  const Gauge* find_gauge(std::string_view name) const;
  const LatencyHistogram* find_histogram(std::string_view name) const;
  /// A counter's value, 0 when absent (a count that never happened).
  std::uint64_t counter_value(std::string_view name) const;

  const Map<Counter>& counters() const { return counters_; }
  const Map<Gauge>& gauges() const { return gauges_; }
  const Map<LatencyHistogram>& histograms() const { return histograms_; }

  /// Drops every metric. Invalidates references handed out earlier — callers
  /// that cache must re-resolve after a reset (smarthsim resets between
  /// protocol runs, before constructing the next cluster). Cached handles
  /// notice through epoch().
  void reset();
  /// Changes on every reset() and differs between registries, so a cached
  /// reference tagged with it is known to be current. (A copy keeps its
  /// source's epoch: snapshots are copied out of the global registry, never
  /// into it.)
  std::uint64_t epoch() const { return epoch_; }

  /// Folds `other` into this registry: counters and gauges add, histograms
  /// add their buckets and merge their summary stats, and metrics only
  /// `other` has are copied in. Merging an empty registry is the identity.
  /// The seed-sweep driver sums per-seed snapshots with it.
  void merge(const Registry& other);

  /// {"counters":{...},"gauges":{...},"histograms":{name:{count,mean_ns,
  /// min_ns,max_ns,p50_ns,p95_ns,p99_ns}}}
  std::string to_json() const;
  /// One row per metric: kind,name,count,value,mean,p50,p95,p99,min,max
  std::string to_csv(const std::string& label_column = "") const;

 private:
  Map<Counter> counters_;
  Map<Gauge> gauges_;
  Map<LatencyHistogram> histograms_;
  std::uint64_t epoch_;
};

/// The process-global registry every instrumented component records into.
/// Always on — a counter bump or histogram add is a few nanoseconds, far
/// below the cost of the simulation events surrounding it.
Registry& global_registry();

/// One metric of the thread's global registry, looked up by name on first
/// use and then kept as a reference, so a hot path pays neither a string
/// nor a map walk per event. Like an uncached lookup it creates the metric
/// only when first used, so the registry's keys are the same either way. It
/// re-resolves after the registry is reset.
template <typename Metric>
class Cached {
 public:
  explicit Cached(std::string name) : name_(std::move(name)) {}

  Metric& get() {
    Registry& registry = global_registry();
    if (epoch_ != registry.epoch()) {  // epochs start at 1
      metric_ = &lookup(registry);
      epoch_ = registry.epoch();
    }
    return *metric_;
  }
  Metric* operator->() { return &get(); }

 private:
  Metric& lookup(Registry& registry) const {
    if constexpr (std::is_same_v<Metric, Counter>) {
      return registry.counter(name_);
    } else if constexpr (std::is_same_v<Metric, Gauge>) {
      return registry.gauge(name_);
    } else {
      return registry.histogram(name_);
    }
  }

  std::string name_;
  Metric* metric_ = nullptr;
  std::uint64_t epoch_ = 0;
};

}  // namespace smarth::metrics
