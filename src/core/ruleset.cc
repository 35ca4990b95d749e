#include "core/ruleset.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/logging.h"

namespace faircap {

namespace {

constexpr size_t kStatsBlockRows = kRulesetStatsBlockWords * 64;

// Calls fn(row) for every set bit of `word`, ascending; `base` is the
// row of the word's bit 0.
template <typename Fn>
inline void ForEachBit(uint64_t word, size_t base, Fn&& fn) {
  while (word != 0) {
    fn(base + static_cast<size_t>(__builtin_ctzll(word)));
    word &= word - 1;
  }
}

}  // namespace

RulesetStats ComputeRulesetStats(
    const std::vector<PrescriptionRule>& candidates,
    const std::vector<size_t>& selected, const Bitmap& protected_mask) {
  RulesetStats stats;
  stats.num_rules = selected.size();
  stats.population = protected_mask.size();
  stats.population_protected = protected_mask.Count();
  for (size_t idx : selected) {
    FAIRCAP_CHECK(candidates[idx].coverage.size() == protected_mask.size());
  }
  if (stats.population == 0) return stats;

  const size_t n = stats.population;
  constexpr double kUnset = -std::numeric_limits<double>::infinity();
  // Per-tuple best (overall / non-protected) and worst (protected) rule
  // utilities across covering rules, for the rows of one block. Each row
  // sees the selected rules in selection order and each sum takes its
  // rows in ascending order, exactly as a whole-table pass would, so the
  // block size never changes a bit of the result.
  double best_overall[kStatsBlockRows];
  double best_nonprotected[kStatsBlockRows];
  double worst_protected[kStatsBlockRows];
  uint64_t covered[kRulesetStatsBlockWords];

  const uint64_t* prot = protected_mask.words();
  const size_t num_words = protected_mask.num_words();
  double sum_overall = 0.0, sum_protected = 0.0, sum_nonprotected = 0.0;
  size_t covered_all = 0, covered_protected = 0, covered_nonprotected = 0;
  for (size_t w0 = 0; w0 < num_words; w0 += kRulesetStatsBlockWords) {
    const size_t block_words =
        std::min(kRulesetStatsBlockWords, num_words - w0);
    const size_t block_rows = block_words * 64;
    std::fill_n(best_overall, block_rows, kUnset);
    std::fill_n(best_nonprotected, block_rows, kUnset);
    std::fill_n(worst_protected, block_rows, -kUnset);
    std::fill_n(covered, block_words, uint64_t{0});

    for (size_t idx : selected) {
      const PrescriptionRule& rule = candidates[idx];
      const uint64_t* cov = rule.coverage.words() + w0;
      for (size_t w = 0; w < block_words; ++w) {
        const uint64_t bits = cov[w];
        if (bits == 0) continue;
        covered[w] |= bits;
        const size_t base = w * 64;
        const uint64_t p = prot[w0 + w];
        ForEachBit(bits, base, [&](size_t r) {
          best_overall[r] = std::max(best_overall[r], rule.utility);
        });
        ForEachBit(bits & p, base, [&](size_t r) {
          worst_protected[r] =
              std::min(worst_protected[r], rule.utility_protected);
        });
        ForEachBit(bits & ~p, base, [&](size_t r) {
          best_nonprotected[r] =
              std::max(best_nonprotected[r], rule.utility_nonprotected);
        });
      }
    }

    for (size_t w = 0; w < block_words; ++w) {
      const uint64_t bits = covered[w];
      if (bits == 0) continue;
      const size_t base = w * 64;
      const uint64_t p = prot[w0 + w];
      covered_all += static_cast<size_t>(__builtin_popcountll(bits));
      covered_protected += static_cast<size_t>(__builtin_popcountll(bits & p));
      covered_nonprotected +=
          static_cast<size_t>(__builtin_popcountll(bits & ~p));
      ForEachBit(bits, base,
                 [&](size_t r) { sum_overall += best_overall[r]; });
      ForEachBit(bits & p, base,
                 [&](size_t r) { sum_protected += worst_protected[r]; });
      ForEachBit(bits & ~p, base,
                 [&](size_t r) { sum_nonprotected += best_nonprotected[r]; });
    }
  }

  stats.covered = covered_all;
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

RulesetStats ComputeRulesetStats(const std::vector<PrescriptionRule>& rules,
                                 const Bitmap& protected_mask) {
  std::vector<size_t> all(rules.size());
  std::iota(all.begin(), all.end(), 0);
  return ComputeRulesetStats(rules, all, protected_mask);
}

double RulesetObjective(const RulesetStats& stats, size_t num_candidates,
                        double lambda1, double lambda2) {
  return lambda1 * (static_cast<double>(num_candidates) -
                    static_cast<double>(stats.num_rules)) +
         lambda2 * stats.exp_utility;
}

}  // namespace faircap
