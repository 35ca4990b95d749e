// The measuring process: runs one workload's ops for a fixed time from
// pre-generated inputs, checks every ruleset, and prints each metric by
// name with its unit, ending with the one-line JSON result.

#ifndef PERFBENCH_MEASURE_H_
#define PERFBENCH_MEASURE_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace perfbench {

struct MeasureArgs {
  WorkloadSpec spec;
  uint64_t seed = 0;
  std::string inputs;     ///< directory written by GenerateInputs
  std::string artifacts;  ///< run record and trace JSON go here
  std::string build_id;   ///< hash of the binary, for the run record
  double seconds = 0.0;   ///< measured time to fill with ops
  bool trace = false;     ///< per-layer metrics instead of end-to-end
};

/// Returns the process exit code: 0 once a result line was printed
/// (failed ops show in it), non-zero when no result could be produced.
int Measure(const MeasureArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_MEASURE_H_
