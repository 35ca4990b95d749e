// Layer probe of the traced run: times the public calls beneath one
// treatment evaluation, over every candidate rule's (grouping,
// intervention) pair of a finished op — a cold and a warm mask, the
// confounder partition and engine builds, one sufficient-statistics
// accumulation and one solve.

#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <vector>

#include "causal/dag.h"
#include "core/faircap.h"
#include "core/rule.h"
#include "dataframe/dataframe.h"
#include "mining/pattern.h"
#include "util/result.h"

namespace perfbench {

struct ProbeResult {
  double mask_cold_us = 0.0;        ///< median first Pattern::Evaluate
  double mask_warm_us = 0.0;        ///< median second Pattern::Evaluate
  double partition_build_ms = 0.0;  ///< median ConfounderPartition::Build
  double engine_build_ms = 0.0;     ///< median first EngineFor
  double accumulate_us = 0.0;       ///< median AccumulateSubgroups
  double accumulate_mrows_per_s = 0.0;  ///< group rows / accumulate time
  double solve_us = 0.0;            ///< median SolveFromAccums
};

/// Runs the probe on a fresh copy of `df` (so its PredicateIndex starts
/// cold) with a fresh estimator; `candidates` must cover `df`'s rows.
faircap::Result<ProbeResult> RunLayerProbe(
    const faircap::DataFrame& df, const faircap::CausalDag& dag,
    const faircap::Pattern& protected_pattern,
    const faircap::FairCapOptions& options,
    const std::vector<faircap::PrescriptionRule>& candidates);

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
