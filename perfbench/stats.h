// Small sample helpers shared by the measuring code.

#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// numerator / denominator, or 0 when the denominator is 0.
inline double Ratio(double numerator, double denominator) {
  return denominator != 0.0 ? numerator / denominator : 0.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
