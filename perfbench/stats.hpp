// Small statistics helpers shared by the benchmark and its tests.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Arithmetic mean of `values`; 0 for an empty input.
inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

/// `part / base`, or 0 when the base is 0 (nothing attempted, nothing lost).
inline double ratio(double part, double base) {
  return base > 0.0 ? part / base : 0.0;
}

}  // namespace perfbench
