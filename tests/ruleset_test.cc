#include "core/ruleset.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>
#include <vector>

#include "reference/legacy_ruleset_stats.h"
#include "util/random.h"

namespace faircap {
namespace {

// Builds a rule over a 10-row universe covering [begin, end).
PrescriptionRule MakeRule(size_t begin, size_t end, double utility,
                          double utility_p, double utility_np,
                          const Bitmap& protected_mask) {
  PrescriptionRule rule;
  rule.coverage = Bitmap(protected_mask.size());
  for (size_t i = begin; i < end; ++i) rule.coverage.Set(i);
  rule.support = rule.coverage.Count();
  rule.support_protected = rule.coverage.AndCount(protected_mask);
  rule.utility = utility;
  rule.utility_protected = utility_p;
  rule.utility_nonprotected = utility_np;
  return rule;
}

// Protected rows: 0..4; non-protected: 5..9.
Bitmap ProtectedMask() {
  Bitmap mask(10);
  for (size_t i = 0; i < 5; ++i) mask.Set(i);
  return mask;
}

TEST(RulesetStatsTest, EmptyRuleset) {
  const Bitmap mask = ProtectedMask();
  const RulesetStats stats = ComputeRulesetStats({}, {}, mask);
  EXPECT_EQ(stats.num_rules, 0u);
  EXPECT_EQ(stats.covered, 0u);
  EXPECT_DOUBLE_EQ(stats.exp_utility, 0.0);
  EXPECT_DOUBLE_EQ(stats.exp_utility_protected, 0.0);
  EXPECT_DOUBLE_EQ(stats.unfairness, 0.0);
  EXPECT_EQ(stats.population, 10u);
  EXPECT_EQ(stats.population_protected, 5u);
}

TEST(RulesetStatsTest, SingleRuleFullCoverage) {
  const Bitmap mask = ProtectedMask();
  const std::vector<PrescriptionRule> rules = {
      MakeRule(0, 10, 100.0, 40.0, 120.0, mask)};
  const RulesetStats stats = ComputeRulesetStats(rules, mask);
  EXPECT_EQ(stats.num_rules, 1u);
  EXPECT_EQ(stats.covered, 10u);
  EXPECT_EQ(stats.covered_protected, 5u);
  EXPECT_DOUBLE_EQ(stats.coverage_fraction, 1.0);
  EXPECT_DOUBLE_EQ(stats.coverage_protected_fraction, 1.0);
  // Eq. (5): 10 tuples * 100 / |D|=10.
  EXPECT_DOUBLE_EQ(stats.exp_utility, 100.0);
  // Protected tuples get utility_p; non-protected get utility_np.
  EXPECT_DOUBLE_EQ(stats.exp_utility_protected, 40.0);
  EXPECT_DOUBLE_EQ(stats.exp_utility_nonprotected, 120.0);
  EXPECT_DOUBLE_EQ(stats.unfairness, 80.0);
}

TEST(RulesetStatsTest, OverallUtilityNormalizedByPopulation) {
  // Rule covers half the rows: Eq. (5) divides by |D| not by coverage.
  const Bitmap mask = ProtectedMask();
  const std::vector<PrescriptionRule> rules = {
      MakeRule(0, 5, 100.0, 100.0, 100.0, mask)};
  const RulesetStats stats = ComputeRulesetStats(rules, mask);
  EXPECT_DOUBLE_EQ(stats.exp_utility, 50.0);  // 5 * 100 / 10
  // Protected normalization is by covered-protected count (all 5).
  EXPECT_DOUBLE_EQ(stats.exp_utility_protected, 100.0);
  // No non-protected tuples covered.
  EXPECT_DOUBLE_EQ(stats.exp_utility_nonprotected, 0.0);
}

TEST(RulesetStatsTest, OverlappingRulesMaxForOverallMinForProtected) {
  const Bitmap mask = ProtectedMask();
  // Two rules covering everything with different utilities.
  const std::vector<PrescriptionRule> rules = {
      MakeRule(0, 10, 100.0, 30.0, 110.0, mask),
      MakeRule(0, 10, 80.0, 60.0, 90.0, mask)};
  const RulesetStats stats = ComputeRulesetStats(rules, mask);
  // Overall: every tuple takes max(100, 80) = 100.
  EXPECT_DOUBLE_EQ(stats.exp_utility, 100.0);
  // Protected worst-case: min(30, 60) = 30.
  EXPECT_DOUBLE_EQ(stats.exp_utility_protected, 30.0);
  // Non-protected best-case: max(110, 90) = 110.
  EXPECT_DOUBLE_EQ(stats.exp_utility_nonprotected, 110.0);
  EXPECT_DOUBLE_EQ(stats.unfairness, 80.0);
}

TEST(RulesetStatsTest, DisjointRules) {
  const Bitmap mask = ProtectedMask();
  // One rule on protected half, one on non-protected half.
  const std::vector<PrescriptionRule> rules = {
      MakeRule(0, 5, 50.0, 50.0, 0.0, mask),
      MakeRule(5, 10, 70.0, 0.0, 70.0, mask)};
  const RulesetStats stats = ComputeRulesetStats(rules, mask);
  EXPECT_DOUBLE_EQ(stats.exp_utility, (5 * 50.0 + 5 * 70.0) / 10.0);
  EXPECT_DOUBLE_EQ(stats.exp_utility_protected, 50.0);
  EXPECT_DOUBLE_EQ(stats.exp_utility_nonprotected, 70.0);
  EXPECT_DOUBLE_EQ(stats.unfairness, 20.0);
}

TEST(RulesetStatsTest, SelectedSubsetOnly) {
  const Bitmap mask = ProtectedMask();
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 10, 100.0, 100.0, 100.0, mask),
      MakeRule(0, 10, 999.0, 999.0, 999.0, mask)};
  const RulesetStats stats = ComputeRulesetStats(candidates, {0}, mask);
  EXPECT_EQ(stats.num_rules, 1u);
  EXPECT_DOUBLE_EQ(stats.exp_utility, 100.0);
}

TEST(RulesetStatsTest, NegativeUnfairnessWhenProtectedDoBetter) {
  const Bitmap mask = ProtectedMask();
  const std::vector<PrescriptionRule> rules = {
      MakeRule(0, 10, 50.0, 80.0, 40.0, mask)};
  const RulesetStats stats = ComputeRulesetStats(rules, mask);
  EXPECT_DOUBLE_EQ(stats.unfairness, -40.0);
}

// ---------------------------------------------------------------------------
// Block-wise recompute vs the table-sized oracle

constexpr size_t kBlockRows = kRulesetStatsBlockWords * 64;

enum class MaskKind { kRandom, kAllProtected, kNoneProtected };

Bitmap MakeMask(size_t n, MaskKind kind, Rng* rng) {
  Bitmap mask(n, kind == MaskKind::kAllProtected);
  if (kind == MaskKind::kRandom) {
    for (size_t r = 0; r < n; ++r) {
      if (rng->NextBernoulli(0.3)) mask.Set(r);
    }
  }
  return mask;
}

// Utilities drawn so that rules tie (a few fixed values, signed zeros),
// go negative, and otherwise spread over several orders of magnitude, so
// that a sum taken in another order lands on other bits.
double DrawUtility(Rng* rng) {
  switch (rng->NextBounded(6)) {
    case 0: return 7.25;
    case 1: return -3.5;
    case 2: return rng->NextBernoulli(0.5) ? 0.0 : -0.0;
    case 3: return -rng->NextUniform(0.0, 1e4);
    case 4: return rng->NextUniform(0.0, 1.0) * 1e-3;
    default: return rng->NextUniform(-1e2, 1e6);
  }
}

// One rule's coverage: random density (overlapping), a row range (nested
// in or disjoint from another rule's), empty or full.
Bitmap MakeCoverage(size_t n, size_t shape, Rng* rng) {
  Bitmap coverage(n);
  if (n == 0) return coverage;
  switch (shape) {
    case 0: {  // random rows, random density
      const double density = rng->NextUniform(0.01, 0.9);
      for (size_t r = 0; r < n; ++r) {
        if (rng->NextBernoulli(density)) coverage.Set(r);
      }
      break;
    }
    case 1: {  // a contiguous range
      const size_t a = static_cast<size_t>(rng->NextBounded(n));
      const size_t b = static_cast<size_t>(rng->NextBounded(n + 1));
      for (size_t r = std::min(a, b); r < std::max(a, b); ++r) {
        coverage.Set(r);
      }
      break;
    }
    case 2:  // empty
      break;
    default:  // every row
      coverage = Bitmap(n, true);
      break;
  }
  return coverage;
}

PrescriptionRule RuleOver(Bitmap coverage, const Bitmap& mask, Rng* rng) {
  PrescriptionRule rule;
  rule.coverage = std::move(coverage);
  rule.support = rule.coverage.Count();
  rule.support_protected = rule.coverage.AndCount(mask);
  rule.utility = DrawUtility(rng);
  rule.utility_protected = DrawUtility(rng);
  rule.utility_nonprotected = DrawUtility(rng);
  return rule;
}

// Candidates over `n` rows: independent rules of every shape, plus a
// chain of nested ranges and a run of disjoint ranges.
std::vector<PrescriptionRule> MakeCandidates(size_t n, const Bitmap& mask,
                                             Rng* rng) {
  std::vector<PrescriptionRule> rules;
  for (size_t i = 0; i < 8; ++i) {
    rules.push_back(RuleOver(MakeCoverage(n, i % 4, rng), mask, rng));
  }
  size_t lo = 0, hi = n;
  for (int depth = 0; depth < 3; ++depth) {
    Bitmap nested(n);
    for (size_t r = lo; r < hi; ++r) nested.Set(r);
    rules.push_back(RuleOver(std::move(nested), mask, rng));
    lo += (hi - lo) / 4;
    hi -= (hi - lo) / 4;
  }
  const size_t parts = 3;
  for (size_t k = 0; k < parts; ++k) {
    Bitmap part(n);
    for (size_t r = k * n / parts; r < (k + 1) * n / parts; ++r) part.Set(r);
    rules.push_back(RuleOver(std::move(part), mask, rng));
  }
  return rules;
}

void ExpectSameBits(double got, double want, const char* field) {
  EXPECT_EQ(std::memcmp(&got, &want, sizeof(double)), 0)
      << field << ": got " << got << ", want " << want;
}

void ExpectMatchesOracle(const std::vector<PrescriptionRule>& candidates,
                         const std::vector<size_t>& selected,
                         const Bitmap& mask) {
  const RulesetStats got = ComputeRulesetStats(candidates, selected, mask);
  const RulesetStats want = LegacyRulesetStats(candidates, selected, mask);
  EXPECT_EQ(got.num_rules, want.num_rules);
  EXPECT_EQ(got.population, want.population);
  EXPECT_EQ(got.population_protected, want.population_protected);
  EXPECT_EQ(got.covered, want.covered);
  EXPECT_EQ(got.covered_protected, want.covered_protected);
  ExpectSameBits(got.coverage_fraction, want.coverage_fraction,
                 "coverage_fraction");
  ExpectSameBits(got.coverage_protected_fraction,
                 want.coverage_protected_fraction,
                 "coverage_protected_fraction");
  ExpectSameBits(got.exp_utility, want.exp_utility, "exp_utility");
  ExpectSameBits(got.exp_utility_protected, want.exp_utility_protected,
                 "exp_utility_protected");
  ExpectSameBits(got.exp_utility_nonprotected,
                 want.exp_utility_nonprotected, "exp_utility_nonprotected");
  ExpectSameBits(got.unfairness, want.unfairness, "unfairness");
}

TEST(RulesetStatsOracleTest, BitIdenticalAcrossBlockEdges) {
  const size_t sizes[] = {0,  1,  63, 64, 65, kBlockRows - 1, kBlockRows,
                          kBlockRows + 1, 3 * kBlockRows + 7, 100007};
  Rng rng(20250219);
  for (const size_t n : sizes) {
    for (const MaskKind kind : {MaskKind::kRandom, MaskKind::kAllProtected,
                                MaskKind::kNoneProtected}) {
      SCOPED_TRACE(testing::Message() << "rows=" << n << " mask="
                                      << static_cast<int>(kind));
      const Bitmap mask = MakeMask(n, kind, &rng);
      const std::vector<PrescriptionRule> candidates =
          MakeCandidates(n, mask, &rng);
      ExpectMatchesOracle(candidates, {}, mask);
      // Every candidate in index order, then random subsets in random
      // selection order.
      std::vector<size_t> all(candidates.size());
      for (size_t i = 0; i < all.size(); ++i) all[i] = i;
      ExpectMatchesOracle(candidates, all, mask);
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<size_t> order = rng.Permutation(candidates.size());
        order.resize(1 + rng.NextBounded(order.size()));
        ExpectMatchesOracle(candidates, order, mask);
      }
    }
  }
}

TEST(RulesetStatsDeathTest, RejectsCoverageOfAnotherSize) {
  const Bitmap mask = ProtectedMask();
  std::vector<PrescriptionRule> rules = {
      MakeRule(0, 10, 1.0, 1.0, 1.0, mask)};
  rules[0].coverage = Bitmap(mask.size() + 64, true);
  EXPECT_DEATH((void)ComputeRulesetStats(rules, {0}, mask),
               "coverage.size\\(\\) == protected_mask.size\\(\\)");
  rules[0].coverage = Bitmap(3, true);
  EXPECT_DEATH((void)ComputeRulesetStats(rules, {0}, mask), "coverage");
  // An empty table is no exemption.
  EXPECT_DEATH((void)ComputeRulesetStats(rules, {0}, Bitmap()), "coverage");
}

TEST(RulesetObjectiveTest, TradesSizeAgainstUtility) {
  RulesetStats small;
  small.num_rules = 1;
  small.exp_utility = 10.0;
  RulesetStats big;
  big.num_rules = 5;
  big.exp_utility = 12.0;
  // With a strong size penalty, the small set wins.
  EXPECT_GT(RulesetObjective(small, 10, 1.0, 1.0),
            RulesetObjective(big, 10, 1.0, 1.0));
  // With utility-only weighting, the big set wins.
  EXPECT_LT(RulesetObjective(small, 10, 0.0, 1.0),
            RulesetObjective(big, 10, 0.0, 1.0));
}

}  // namespace
}  // namespace faircap
