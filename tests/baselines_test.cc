#include <gtest/gtest.h>

#include <cmath>

#include "baselines/adapters.h"
#include "baselines/brute_force.h"
#include "baselines/causumx.h"
#include "baselines/frl.h"
#include "baselines/ids.h"
#include "test_data.h"

namespace faircap {
namespace {

TEST(IdsTest, LearnsConfidentRules) {
  const ToyData data = MakeToyData(3000);
  IdsOptions options;
  options.apriori.min_support_fraction = 0.1;
  options.apriori.max_pattern_length = 2;
  const auto rules = FitIds(data.df, options);
  ASSERT_TRUE(rules.ok()) << rules.status().ToString();
  ASSERT_FALSE(rules->empty());
  for (const auto& rule : *rules) {
    EXPECT_GE(rule.confidence, options.min_confidence);
    EXPECT_EQ(rule.support, rule.coverage.Count());
    EXPECT_LE(rule.antecedent.size(), 2u);
  }
}

TEST(IdsTest, RespectsMaxRules) {
  const ToyData data = MakeToyData(2000);
  IdsOptions options;
  options.max_rules = 3;
  const auto rules = FitIds(data.df, options);
  ASSERT_TRUE(rules.ok());
  EXPECT_LE(rules->size(), 3u);
}

TEST(IdsTest, FindsThePlantedAssociation) {
  // T1=b raises the outcome strongly, so some rule should reference it.
  const ToyData data = MakeToyData(3000);
  IdsOptions options;
  options.apriori.min_support_fraction = 0.1;
  const auto rules = FitIds(data.df, options);
  ASSERT_TRUE(rules.ok());
  bool references_t1 = false;
  const size_t t1 = *data.df.schema().IndexOf("T1");
  for (const auto& rule : *rules) {
    if (rule.antecedent.ConstrainsAttr(t1)) references_t1 = true;
  }
  EXPECT_TRUE(references_t1);
}

TEST(FrlTest, ProbabilitiesAreFalling) {
  const ToyData data = MakeToyData(3000);
  FrlOptions options;
  options.apriori.min_support_fraction = 0.1;
  const auto list = FitFrl(data.df, options);
  ASSERT_TRUE(list.ok()) << list.status().ToString();
  ASSERT_FALSE(list->empty());
  for (size_t i = 1; i < list->size(); ++i) {
    EXPECT_LE((*list)[i].probability, (*list)[i - 1].probability);
  }
}

TEST(FrlTest, FirstRuleHasHighestProbability) {
  const ToyData data = MakeToyData(3000);
  const auto list = FitFrl(data.df);
  ASSERT_TRUE(list.ok());
  ASSERT_FALSE(list->empty());
  // Top rule should beat the base rate.
  const size_t o = *data.df.schema().IndexOf("O");
  const double mean = data.df.Mean(o);
  size_t above = 0;
  const Column& col = data.df.column(o);
  for (size_t r = 0; r < data.df.num_rows(); ++r) {
    if (col.numeric(r) >= mean) ++above;
  }
  const double base_rate =
      static_cast<double>(above) / static_cast<double>(data.df.num_rows());
  EXPECT_GT((*list)[0].probability, base_rate);
}

TEST(FrlTest, MinNewCoverageRespected) {
  const ToyData data = MakeToyData(3000);
  FrlOptions options;
  options.min_new_coverage = 200;
  const auto list = FitFrl(data.df, options);
  ASSERT_TRUE(list.ok());
  for (const auto& rule : *list) {
    EXPECT_GE(rule.support, 200u);
  }
}

TEST(CauSumXTest, MatchesUnconstrainedFairCapBehaviour) {
  const ToyData data = MakeToyData(4000);
  CauSumXOptions options;
  options.apriori.min_support_fraction = 0.2;
  options.lattice.max_predicates = 1;
  options.num_threads = 1;
  options.coverage_theta = 0.5;
  const auto result =
      RunCauSumX(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_FALSE(result->rules.empty());
  // No fairness: picks the unfair high-utility treatment.
  EXPECT_GT(result->stats.unfairness, 4.0);
  EXPECT_GE(result->stats.coverage_fraction, 0.5);
}

TEST(BruteForceTest, FindsOptimumAndGreedyIsClose) {
  const ToyData data = MakeToyData(2000);
  // Hand-build a small candidate pool.
  Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  std::vector<PrescriptionRule> candidates;
  for (size_t i = 0; i < 8; ++i) {
    PrescriptionRule rule;
    rule.coverage = Bitmap(data.df.num_rows());
    for (size_t r = i * 200; r < i * 200 + 400 && r < data.df.num_rows();
         ++r) {
      rule.coverage.Set(r);
    }
    rule.support = rule.coverage.Count();
    rule.support_protected = rule.coverage.AndCount(protected_mask);
    rule.utility = 5.0 + static_cast<double>(i);
    rule.utility_protected = rule.utility - 1.0;
    rule.utility_nonprotected = rule.utility + 1.0;
    candidates.push_back(std::move(rule));
  }
  BruteForceOptions bf_options;
  bf_options.lambda1 = 0.0;
  bf_options.lambda2 = 1.0;
  const auto brute =
      BruteForceSelect(candidates, protected_mask, FairnessConstraint::None(),
                       CoverageConstraint::None(), bf_options);
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(brute->found_valid);
  const GreedyResult greedy =
      GreedySelect(candidates, protected_mask, FairnessConstraint::None(),
                   CoverageConstraint::None());
  // Greedy achieves at least half the optimum (submodular guarantee is
  // 1-1/e for the utility term; be conservative).
  EXPECT_GE(greedy.stats.exp_utility, 0.5 * brute->stats.exp_utility);
}

TEST(BruteForceTest, RespectsConstraints) {
  Bitmap protected_mask(100);
  for (size_t i = 0; i < 20; ++i) protected_mask.Set(i);
  std::vector<PrescriptionRule> candidates;
  // One unfair but high-utility rule, one fair lower-utility rule.
  for (int i = 0; i < 2; ++i) {
    PrescriptionRule rule;
    rule.coverage = Bitmap(100, true);
    rule.support = 100;
    rule.support_protected = 20;
    if (i == 0) {
      rule.utility = 100.0;
      rule.utility_protected = 10.0;
      rule.utility_nonprotected = 110.0;
    } else {
      rule.utility = 50.0;
      rule.utility_protected = 48.0;
      rule.utility_nonprotected = 51.0;
    }
    candidates.push_back(std::move(rule));
  }
  const auto result = BruteForceSelect(
      candidates, protected_mask, FairnessConstraint::GroupSP(5.0),
      CoverageConstraint::Group(0.5, 0.5));
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->found_valid);
  ASSERT_EQ(result->selected.size(), 1u);
  EXPECT_EQ(result->selected[0], 1u);  // only the fair rule is feasible
}

TEST(BruteForceTest, TooManyCandidatesRejected) {
  std::vector<PrescriptionRule> candidates(30);
  Bitmap mask(10);
  const auto result =
      BruteForceSelect(candidates, mask, FairnessConstraint::None(),
                       CoverageConstraint::None());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(AdaptersTest, ProjectPatternSplitsByRole) {
  const ToyData data = MakeToyData(500);
  const size_t group = *data.df.schema().IndexOf("Group");
  const size_t t1 = *data.df.schema().IndexOf("T1");
  const Pattern mixed({Predicate(group, CompareOp::kEq, Value("g1")),
                       Predicate(t1, CompareOp::kEq, Value("b"))});
  const Pattern grouping =
      ProjectPattern(mixed, data.df.schema(), AttrRole::kImmutable);
  const Pattern intervention =
      ProjectPattern(mixed, data.df.schema(), AttrRole::kMutable);
  ASSERT_EQ(grouping.size(), 1u);
  EXPECT_EQ(grouping.predicates()[0].attr, group);
  ASSERT_EQ(intervention.size(), 1u);
  EXPECT_EQ(intervention.predicates()[0].attr, t1);
}

TEST(AdaptersTest, IfClauseAsInterventionCostsRules) {
  const ToyData data = MakeToyData(3000);
  FairCapOptions options;
  options.num_threads = 1;
  const auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok());
  const size_t t1 = *data.df.schema().IndexOf("T1");
  const size_t t2 = *data.df.schema().IndexOf("T2");
  const std::vector<Pattern> antecedents = {
      Pattern({Predicate(t1, CompareOp::kEq, Value("b"))}),
      Pattern({Predicate(t2, CompareOp::kEq, Value("y"))}),
      Pattern({Predicate(t2, CompareOp::kEq, Value("y"))}),  // duplicate
  };
  const auto rules = AdaptBaselineRules(
      *solver, antecedents, IfClauseTreatment::kAsInterventionPattern);
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->size(), 2u);  // deduplicated
  for (const auto& rule : *rules) {
    EXPECT_TRUE(rule.grouping.empty());  // whole-dataset group
    EXPECT_GT(rule.utility, 0.0);
    EXPECT_EQ(rule.support, data.df.num_rows());
  }
}

TEST(AdaptersTest, IfClauseAsGroupingMinesInterventions) {
  const ToyData data = MakeToyData(3000);
  FairCapOptions options;
  options.num_threads = 1;
  options.lattice.max_predicates = 1;
  const auto solver =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options);
  ASSERT_TRUE(solver.ok());
  const size_t group = *data.df.schema().IndexOf("Group");
  const size_t t1 = *data.df.schema().IndexOf("T1");
  // Antecedent mixes immutable and mutable; only Group=g1 survives the
  // projection, then step 2 finds a treatment for that subgroup.
  const std::vector<Pattern> antecedents = {
      Pattern({Predicate(group, CompareOp::kEq, Value("g1")),
               Predicate(t1, CompareOp::kEq, Value("b"))})};
  const auto rules = AdaptBaselineRules(*solver, antecedents,
                                        IfClauseTreatment::kAsGroupingPattern);
  ASSERT_TRUE(rules.ok());
  ASSERT_FALSE(rules->empty());
  for (const auto& rule : *rules) {
    EXPECT_FALSE(rule.intervention.empty());
    EXPECT_GT(rule.utility, 0.0);
    // Grouping is the projected immutable part.
    for (size_t attr : rule.grouping.Attributes()) {
      EXPECT_EQ(data.df.schema().attribute(attr).role, AttrRole::kImmutable);
    }
  }
}

}  // namespace
}  // namespace faircap
