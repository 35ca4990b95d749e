// Test helper: the production estimate of one intervention's effect
// within one group — the `overall` field of the batch engine's answer, or
// the call's own Status when the call itself fails (empty or invalid
// intervention, mismatched bitmap).

#ifndef FAIRCAP_TESTS_ESTIMATE_OVERALL_H_
#define FAIRCAP_TESTS_ESTIMATE_OVERALL_H_

#include <utility>

#include "causal/estimator.h"

namespace faircap {

inline Result<CateEstimate> EstimateOverall(const CateEstimator& est,
                                            const Pattern& intervention,
                                            const Bitmap& group) {
  Result<CateSubgroupEstimates> ests =
      est.EstimateSubgroups(intervention, group, nullptr);
  if (!ests.ok()) return ests.status();
  return std::move(ests).ValueOrDie().overall;
}

}  // namespace faircap

#endif  // FAIRCAP_TESTS_ESTIMATE_OVERALL_H_
