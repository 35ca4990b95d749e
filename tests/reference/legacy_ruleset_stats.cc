#include "reference/legacy_ruleset_stats.h"

#include <algorithm>
#include <limits>

namespace faircap {

RulesetStats LegacyRulesetStats(const std::vector<PrescriptionRule>& candidates,
                                const std::vector<size_t>& selected,
                                const Bitmap& protected_mask) {
  RulesetStats stats;
  stats.num_rules = selected.size();
  stats.population = protected_mask.size();
  stats.population_protected = protected_mask.Count();
  if (stats.population == 0) return stats;

  const size_t n = stats.population;
  constexpr double kUnset = -std::numeric_limits<double>::infinity();
  // Per-tuple best (overall / non-protected) and worst (protected) rule
  // utilities across covering rules.
  std::vector<double> best_overall(n, kUnset);
  std::vector<double> best_nonprotected(n, kUnset);
  std::vector<double> worst_protected(n, -kUnset);
  Bitmap covered(n);

  for (size_t idx : selected) {
    const PrescriptionRule& rule = candidates[idx];
    rule.coverage.ForEach([&](size_t row) {
      covered.Set(row);
      best_overall[row] = std::max(best_overall[row], rule.utility);
      if (protected_mask.Get(row)) {
        worst_protected[row] =
            std::min(worst_protected[row], rule.utility_protected);
      } else {
        best_nonprotected[row] =
            std::max(best_nonprotected[row], rule.utility_nonprotected);
      }
    });
  }

  double sum_overall = 0.0, sum_protected = 0.0, sum_nonprotected = 0.0;
  size_t covered_protected = 0, covered_nonprotected = 0;
  covered.ForEach([&](size_t row) {
    sum_overall += best_overall[row];
    if (protected_mask.Get(row)) {
      ++covered_protected;
      sum_protected += worst_protected[row];
    } else {
      ++covered_nonprotected;
      sum_nonprotected += best_nonprotected[row];
    }
  });

  stats.covered = covered.Count();
  stats.covered_protected = covered_protected;
  stats.coverage_fraction =
      static_cast<double>(stats.covered) / static_cast<double>(n);
  stats.coverage_protected_fraction =
      stats.population_protected == 0
          ? 0.0
          : static_cast<double>(covered_protected) /
                static_cast<double>(stats.population_protected);

  // Eq. (5): normalized by |D|. Eqs. (6)/(7): by the covered group sizes.
  stats.exp_utility = sum_overall / static_cast<double>(n);
  stats.exp_utility_protected =
      covered_protected == 0
          ? 0.0
          : sum_protected / static_cast<double>(covered_protected);
  stats.exp_utility_nonprotected =
      covered_nonprotected == 0
          ? 0.0
          : sum_nonprotected / static_cast<double>(covered_nonprotected);
  stats.unfairness =
      stats.exp_utility_nonprotected - stats.exp_utility_protected;
  return stats;
}

}  // namespace faircap
