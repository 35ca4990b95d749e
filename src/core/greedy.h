// Greedy ruleset selection (Section 5.3). At each iteration the rule with
// the highest marginal score — coverage gain (until coverage constraints
// are met) + benefit + expected-utility gain — is added. Matroid
// constraints (rule coverage, individual fairness; Appendix 9.1) are
// enforced by pre-filtering candidates; group constraints are enforced
// during selection and by a final trim pass.

#ifndef FAIRCAP_CORE_GREEDY_H_
#define FAIRCAP_CORE_GREEDY_H_

#include <vector>

#include "core/coverage.h"
#include "core/fairness.h"
#include "core/rule.h"
#include "core/ruleset.h"
#include "util/result.h"

namespace faircap {

class TaskScheduler;  // util/task_scheduler.h

/// Tuning knobs for greedy selection.
struct GreedyOptions {
  /// Weights of the three score terms. The paper sums raw coverage,
  /// benefit, and expected utility; we normalize each term to a common
  /// scale (fractions of population / of the best candidate utility) and
  /// keep the same argmax structure.
  double weight_coverage = 1.0;
  double weight_benefit = 1.0;
  double weight_utility = 1.0;
  /// Stop when the marginal (normalized) score falls below this.
  double min_marginal_gain = 1e-3;
  /// Hard cap on ruleset size (Table 4/5 saturate at 20).
  size_t max_rules = 20;
  /// Total intervention budget (0 = unlimited). Requires per-candidate
  /// costs; selection then maximizes marginal score per unit cost and
  /// never exceeds the budget (Section 8 extension).
  double budget = 0.0;
  /// Pool workers for the per-iteration candidate-trial evaluation (0 =
  /// hardware, 1 = sequential); the selecting thread scores trials too,
  /// so T > 1 scores on T + 1 threads. Trials are independent reads of the
  /// selection state and the argmax scan stays sequential in candidate
  /// order, so the selected ruleset is identical at every thread count.
  size_t num_threads = 1;
};

/// Outcome of a greedy run.
struct GreedyResult {
  std::vector<size_t> selected;  ///< indices into the candidate vector
  RulesetStats stats;
  /// True when both group-scope constraints hold for the final set.
  bool constraints_satisfied = false;
  /// Total cost of the selection (0 unless costs were supplied).
  double total_cost = 0.0;
};

/// Selects a ruleset from `candidates`. Candidates violating matroid
/// constraints (rule coverage / individual fairness) are never selected.
/// `candidate_costs` (parallel to `candidates`) enables the budget in
/// GreedyOptions; pass nullptr for unit-free selection. `pool` scores the
/// trials when non-null (FairCap::Run shares its Step-2 pool); otherwise
/// a pool of options.num_threads is started for the call.
GreedyResult GreedySelect(const std::vector<PrescriptionRule>& candidates,
                          const Bitmap& protected_mask,
                          const FairnessConstraint& fairness,
                          const CoverageConstraint& coverage,
                          const GreedyOptions& options = {},
                          const std::vector<double>* candidate_costs = nullptr,
                          TaskScheduler* pool = nullptr);

}  // namespace faircap

#endif  // FAIRCAP_CORE_GREEDY_H_
