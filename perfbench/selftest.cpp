// The benchmark's own tests: its statistics helpers, its metric catalogue
// against BENCHMARK.json, and its failure accounting.
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "stats.hpp"
#include "workloads.hpp"

namespace {

TEST(Stats, MedianOfOddEvenAndEmpty) {
  EXPECT_DOUBLE_EQ(perfbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(perfbench::median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(perfbench::median({7.5}), 7.5);
  EXPECT_DOUBLE_EQ(perfbench::median({}), 0.0);
}

TEST(Stats, MeanOfValuesAndEmpty) {
  EXPECT_DOUBLE_EQ(perfbench::mean({1.0, 2.0, 6.0}), 3.0);
  EXPECT_DOUBLE_EQ(perfbench::mean({}), 0.0);
}

TEST(Stats, RatioOfEmptyBaseIsZero) {
  EXPECT_DOUBLE_EQ(perfbench::ratio(3.0, 4.0), 0.75);
  EXPECT_DOUBLE_EQ(perfbench::ratio(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(perfbench::ratio(5.0, 0.0), 0.0);
}

/// (name, unit) of every metric object in the named array of the manifest.
/// The manifest is flat JSON written one object per line, so a line-wise
/// scan between the array's key and its closing bracket is enough.
std::vector<std::pair<std::string, std::string>> manifest_metrics(
    const std::string& array) {
  std::ifstream in(PERFBENCH_MANIFEST);
  EXPECT_TRUE(in) << "cannot read " << PERFBENCH_MANIFEST;
  std::vector<std::pair<std::string, std::string>> out;
  std::string line;
  bool inside = false;
  const auto field = [](const std::string& l, const std::string& key) {
    const std::string tag = "\"" + key + "\": \"";
    const std::size_t at = l.find(tag);
    if (at == std::string::npos) return std::string();
    const std::size_t from = at + tag.size();
    return l.substr(from, l.find('"', from) - from);
  };
  while (std::getline(in, line)) {
    if (line.find("\"" + array + "\"") != std::string::npos) {
      inside = true;
    } else if (inside && line.find(']') != std::string::npos &&
               line.find('{') == std::string::npos) {
      break;
    }
    if (inside && !field(line, "name").empty()) {
      out.emplace_back(field(line, "name"), field(line, "unit"));
    }
  }
  return out;
}

std::vector<std::pair<std::string, std::string>> catalogue(
    const std::vector<perfbench::MetricDef>& defs) {
  std::vector<std::pair<std::string, std::string>> out;
  for (const perfbench::MetricDef& d : defs) out.emplace_back(d.name, d.unit);
  return out;
}

TEST(Manifest, MetricNamesAndUnitsMatchTheBenchmark) {
  EXPECT_EQ(manifest_metrics("end_to_end"),
            catalogue(perfbench::end_to_end_metrics()));
  EXPECT_EQ(manifest_metrics("per_layer"),
            catalogue(perfbench::per_layer_metrics()));
}

TEST(Manifest, WorkloadNamesParse) {
  const auto workloads = manifest_metrics("workloads");
  ASSERT_EQ(workloads.size(), 3u);
  std::set<std::string> seen;
  for (const auto& [name, unit] : workloads) {
    const auto w = perfbench::parse_workload(name);
    ASSERT_TRUE(w.has_value()) << name;
    EXPECT_EQ(perfbench::workload_name(*w), name);
    seen.insert(name);
  }
  EXPECT_EQ(seen.size(), 3u);
}

TEST(FailureAccounting, UploadWithEveryDatanodeDownCountsAsFailed) {
  const perfbench::RepResult r =
      perfbench::run_upload_with_all_datanodes_down(42);
  EXPECT_EQ(r.attempted, 1u);
  EXPECT_EQ(r.failed, 1u);
  EXPECT_DOUBLE_EQ(r.sim.at("workload.failed_ratio"), 1.0);
  EXPECT_DOUBLE_EQ(r.sim.at("ok_ratio"), 0.0);
  EXPECT_DOUBLE_EQ(r.sim.at("workload.failed"), 1.0);
}

}  // namespace
