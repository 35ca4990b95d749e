// Ruleset-level statistics (Definition 4.5). Coverage is the union of rule
// coverages; expected utility assigns each covered tuple the utility of
// one covering rule: the best for the overall population and the
// non-protected group, the worst for the protected group (conservative
// worst-case analysis, Section 4.3).
//
// Note on semantics: Definition 4.5 writes utility(r) inside all three
// sums, but Definition 4.4, the individual-fairness constraints, and every
// reported rule in the paper's case study use the group-specific utilities
// utility_p / utility_p̄ for the protected / non-protected populations. We
// follow that reading: protected tuples receive min_r utility_p(r),
// non-protected tuples max_r utility_p̄(r).

#ifndef FAIRCAP_CORE_RULESET_H_
#define FAIRCAP_CORE_RULESET_H_

#include <cstddef>
#include <vector>

#include "core/rule.h"
#include "dataframe/bitmap.h"

namespace faircap {

/// Aggregate metrics of a ruleset — the columns of Table 4 in the paper.
struct RulesetStats {
  size_t num_rules = 0;

  size_t population = 0;           ///< |D|
  size_t population_protected = 0; ///< |P_p(D)|

  size_t covered = 0;              ///< |Coverage(R)|
  size_t covered_protected = 0;    ///< |Coverage_p(R)|

  double coverage_fraction = 0.0;            ///< covered / population
  double coverage_protected_fraction = 0.0;  ///< covered_p / population_p

  double exp_utility = 0.0;               ///< Eq. (5)
  double exp_utility_protected = 0.0;     ///< Eq. (6), worst-case rule
  double exp_utility_nonprotected = 0.0;  ///< Eq. (7), best-case rule

  /// exp_utility_nonprotected - exp_utility_protected (the paper's
  /// "unfairness" column; may be negative when protected do better).
  double unfairness = 0.0;
};

/// ComputeRulesetStats walks the table this many bitmap words (64 rows
/// each) at a time, so its per-row scratch is three fixed block-sized
/// arrays (24 KB on the stack) rather than three population-sized ones.
inline constexpr size_t kRulesetStatsBlockWords = 16;

/// Computes Definition 4.5 statistics for the rules indexed by `selected`
/// within `candidates`. `protected_mask` marks protected rows; every
/// selected rule's coverage must span the same rows (checked in every
/// build type). Each covered row takes the selected rules in selection
/// order and each sum adds its rows in ascending order, so the result
/// does not depend on the block size.
RulesetStats ComputeRulesetStats(
    const std::vector<PrescriptionRule>& candidates,
    const std::vector<size_t>& selected, const Bitmap& protected_mask);

/// Convenience overload over a whole vector of rules.
RulesetStats ComputeRulesetStats(const std::vector<PrescriptionRule>& rules,
                                 const Bitmap& protected_mask);

/// The optimization objective of Definition 4.6:
///   lambda1 * (l - |R|) + lambda2 * ExpUtility(R)
/// where `l` is the number of candidate rules.
double RulesetObjective(const RulesetStats& stats, size_t num_candidates,
                        double lambda1, double lambda2);

}  // namespace faircap

#endif  // FAIRCAP_CORE_RULESET_H_
