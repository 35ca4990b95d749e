// Parameterized property suites: estimator consistency across seeds and
// effect sizes, matroid properties of the individual-fairness and
// rule-coverage candidate sets (Appendix 9.1), monotonicity of the
// fairness-threshold sweep, and Apriori anti-monotonicity.

#include <gtest/gtest.h>

#include <cmath>

#include "causal/estimator.h"
#include "core/greedy.h"
#include "estimate_overall.h"
#include "mining/apriori.h"
#include "test_data.h"

namespace faircap {
namespace {

// ---------------------------------------------------------------------------
// Estimator recovers planted effects across seeds and effect sizes.

struct EffectCase {
  double effect;
  uint64_t seed;
};

class EstimatorRecovery : public ::testing::TestWithParam<EffectCase> {};

TEST_P(EstimatorRecovery, RegressionRecoversPlantedEffect) {
  const auto [effect, seed] = GetParam();
  auto schema = Schema::Create({
      {"Z", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  for (int i = 0; i < 6000; ++i) {
    const bool z = rng.NextBernoulli(0.4);
    const bool t = rng.NextBernoulli(z ? 0.7 : 0.3);
    const double o =
        (z ? 8.0 : 0.0) + (t ? effect : 0.0) + rng.NextGaussian(0.0, 1.5);
    ASSERT_TRUE(df.AppendRow({Value(z ? "1" : "0"), Value(t ? "1" : "0"),
                              Value(o)})
                    .ok());
  }
  const CausalDag dag =
      CausalDag::Create({"Z", "T", "O"}, {{"Z", "T"}, {"Z", "O"}, {"T", "O"}})
          .ValueOrDie();
  const auto est = CateEstimator::Create(&df, &dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *df.schema().IndexOf("T");
  const auto cate = EstimateOverall(
      *est, Pattern({Predicate(t, CompareOp::kEq, Value("1"))}), df.AllRows());
  ASSERT_TRUE(cate.ok());
  EXPECT_NEAR(cate->cate, effect, 0.25);
}

TEST_P(EstimatorRecovery, StratifiedAgreesWithRegression) {
  const auto [effect, seed] = GetParam();
  auto schema = Schema::Create({
      {"Z", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed + 1000);
  for (int i = 0; i < 6000; ++i) {
    const bool z = rng.NextBernoulli(0.4);
    const bool t = rng.NextBernoulli(z ? 0.7 : 0.3);
    const double o =
        (z ? 8.0 : 0.0) + (t ? effect : 0.0) + rng.NextGaussian(0.0, 1.5);
    ASSERT_TRUE(df.AppendRow({Value(z ? "1" : "0"), Value(t ? "1" : "0"),
                              Value(o)})
                    .ok());
  }
  const CausalDag dag =
      CausalDag::Create({"Z", "T", "O"}, {{"Z", "T"}, {"Z", "O"}, {"T", "O"}})
          .ValueOrDie();
  CateOptions reg_opt;
  CateOptions strat_opt;
  strat_opt.method = CateMethod::kStratified;
  const auto reg = CateEstimator::Create(&df, &dag, reg_opt);
  const auto strat = CateEstimator::Create(&df, &dag, strat_opt);
  ASSERT_TRUE(reg.ok() && strat.ok());
  const size_t t = *df.schema().IndexOf("T");
  const Pattern pattern({Predicate(t, CompareOp::kEq, Value("1"))});
  const auto c1 = EstimateOverall(*reg, pattern, df.AllRows());
  const auto c2 = EstimateOverall(*strat, pattern, df.AllRows());
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_NEAR(c1->cate, c2->cate, 0.2);
}

INSTANTIATE_TEST_SUITE_P(
    EffectSweep, EstimatorRecovery,
    ::testing::Values(EffectCase{0.5, 1}, EffectCase{1.0, 2},
                      EffectCase{2.0, 3}, EffectCase{4.0, 4},
                      EffectCase{8.0, 5}, EffectCase{1.0, 77},
                      EffectCase{2.0, 99}));

// ---------------------------------------------------------------------------
// Matroid properties (Appendix 9.1): the feasible sets of the individual
// fairness and rule coverage constraints are downward closed and satisfy
// the exchange property trivially (constraints are per-rule). We verify
// downward closure + exchange on random rule pools.

class MatroidProperty : public ::testing::TestWithParam<uint64_t> {};

std::vector<PrescriptionRule> RandomRules(uint64_t seed, size_t count,
                                          const Bitmap& protected_mask) {
  Rng rng(seed);
  std::vector<PrescriptionRule> rules;
  const size_t n = protected_mask.size();
  for (size_t i = 0; i < count; ++i) {
    PrescriptionRule rule;
    rule.coverage = Bitmap(n);
    for (size_t r = 0; r < n; ++r) {
      if (rng.NextBernoulli(0.5)) rule.coverage.Set(r);
    }
    rule.support = rule.coverage.Count();
    rule.support_protected = rule.coverage.AndCount(protected_mask);
    rule.utility = rng.NextUniform(0.0, 100.0);
    rule.utility_protected = rng.NextUniform(0.0, 100.0);
    rule.utility_nonprotected = rng.NextUniform(0.0, 100.0);
    rules.push_back(std::move(rule));
  }
  return rules;
}

TEST_P(MatroidProperty, IndividualFairnessIsDownwardClosed) {
  Bitmap mask(50);
  for (size_t i = 0; i < 10; ++i) mask.Set(i);
  const auto rules = RandomRules(GetParam(), 12, mask);
  const FairnessConstraint c = FairnessConstraint::IndividualSP(30.0);
  // Feasible set S = all rules individually satisfying the constraint.
  std::vector<size_t> feasible;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (c.RuleSatisfies(rules[i])) feasible.push_back(i);
  }
  // Hereditary: every subset of a feasible set is feasible (per-rule
  // constraints check each member independently).
  for (size_t drop = 0; drop < feasible.size(); ++drop) {
    for (size_t i : feasible) {
      if (i == feasible[drop]) continue;
      EXPECT_TRUE(c.RuleSatisfies(rules[i]));
    }
  }
  // Exchange: any feasible rule extends any smaller feasible set.
  if (feasible.size() >= 2) {
    EXPECT_TRUE(c.RuleSatisfies(rules[feasible.back()]));
  }
}

TEST_P(MatroidProperty, RuleCoverageIsDownwardClosed) {
  Bitmap mask(50);
  for (size_t i = 0; i < 10; ++i) mask.Set(i);
  const auto rules = RandomRules(GetParam() + 500, 12, mask);
  const CoverageConstraint c = CoverageConstraint::Rule(0.4, 0.4);
  std::vector<size_t> feasible;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (c.RuleSatisfies(rules[i], 50, 10)) feasible.push_back(i);
  }
  for (size_t i : feasible) {
    // Membership does not depend on the rest of the set.
    EXPECT_TRUE(c.RuleSatisfies(rules[i], 50, 10));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MatroidProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

// ---------------------------------------------------------------------------
// Greedy respects the group-SP threshold across epsilon values, and the
// achieved unfairness grows (weakly) with epsilon — the Table 5 shape.

class EpsilonSweep : public ::testing::TestWithParam<double> {};

TEST_P(EpsilonSweep, GreedyHonoursEpsilon) {
  const double epsilon = GetParam();
  Bitmap mask(100);
  for (size_t i = 0; i < 20; ++i) mask.Set(i);
  // Pool with a spectrum of gap sizes.
  std::vector<PrescriptionRule> rules;
  for (int gap = 0; gap <= 50; gap += 10) {
    PrescriptionRule rule;
    rule.coverage = Bitmap(100, true);
    rule.support = 100;
    rule.support_protected = 20;
    rule.utility = 50.0 + gap;  // bigger gap, bigger utility (the tension)
    rule.utility_protected = 50.0;
    rule.utility_nonprotected = 50.0 + gap;
    rules.push_back(std::move(rule));
  }
  const GreedyResult result =
      GreedySelect(rules, mask, FairnessConstraint::GroupSP(epsilon),
                   CoverageConstraint::None());
  ASSERT_FALSE(result.selected.empty());
  EXPECT_TRUE(result.constraints_satisfied);
  EXPECT_LE(std::abs(result.stats.unfairness), epsilon + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, EpsilonSweep,
                         ::testing::Values(0.0, 5.0, 15.0, 25.0, 60.0));

// ---------------------------------------------------------------------------
// Apriori anti-monotonicity on random data across seeds.

class AprioriProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AprioriProperty, ExtensionsNeverGainSupport) {
  Rng rng(GetParam());
  auto schema = Schema::Create({
      {"a", AttrType::kCategorical, AttrRole::kImmutable},
      {"b", AttrType::kCategorical, AttrRole::kImmutable},
      {"c", AttrType::kCategorical, AttrRole::kImmutable},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  const std::vector<std::string> cats = {"0", "1", "2"};
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(df.AppendRow({Value(cats[rng.NextBounded(3)]),
                              Value(cats[rng.NextBounded(3)]),
                              Value(cats[rng.NextBounded(3)])})
                    .ok());
  }
  AprioriOptions options;
  options.min_support_fraction = 0.05;
  options.max_pattern_length = 3;
  const auto patterns = MineFrequentPatterns(df, {0, 1, 2}, options);
  ASSERT_TRUE(patterns.ok());
  // Index supports by key.
  std::unordered_map<std::string, size_t> support;
  for (const auto& fp : *patterns) support[fp.pattern.Key()] = fp.support;
  for (const auto& fp : *patterns) {
    if (fp.pattern.size() < 2) continue;
    // Every sub-pattern must be present with >= support.
    const auto& preds = fp.pattern.predicates();
    for (size_t drop = 0; drop < preds.size(); ++drop) {
      std::vector<Predicate> sub;
      for (size_t i = 0; i < preds.size(); ++i) {
        if (i != drop) sub.push_back(preds[i]);
      }
      const auto it = support.find(Pattern(sub).Key());
      ASSERT_NE(it, support.end());
      EXPECT_GE(it->second, fp.support);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AprioriProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

// ---------------------------------------------------------------------------
// Ruleset stats invariants on random pools.

class StatsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(StatsProperty, AddingARuleNeverDecreasesOverallUtilityOrCoverage) {
  Bitmap mask(80);
  for (size_t i = 0; i < 16; ++i) mask.Set(i);
  auto rules = RandomRules(GetParam() + 900, 10, mask);
  for (auto& r : rules) {
    r.utility = std::abs(r.utility);  // positive-utility pool
  }
  std::vector<size_t> selected;
  RulesetStats previous = ComputeRulesetStats(rules, selected, mask);
  for (size_t i = 0; i < rules.size(); ++i) {
    selected.push_back(i);
    const RulesetStats now = ComputeRulesetStats(rules, selected, mask);
    EXPECT_GE(now.covered, previous.covered);
    // Per-tuple max over a larger set cannot shrink.
    EXPECT_GE(now.exp_utility, previous.exp_utility - 1e-9);
    previous = now;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsProperty,
                         ::testing::Values(7u, 8u, 9u));

}  // namespace
}  // namespace faircap
