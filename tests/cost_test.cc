#include "core/cost.h"

#include <gtest/gtest.h>

#include "core/faircap.h"
#include "core/greedy.h"
#include "test_data.h"

namespace faircap {
namespace {

Schema TestSchema() {
  return Schema::Create({
                            {"Role", AttrType::kCategorical,
                             AttrRole::kMutable},
                            {"Country", AttrType::kCategorical,
                             AttrRole::kMutable},
                            {"O", AttrType::kNumeric, AttrRole::kOutcome},
                        })
      .ValueOrDie();
}

TEST(CostModelTest, PrecedenceAtomOverAttributeOverDefault) {
  InterventionCostModel model(1.0);
  model.SetAttributeCost("Country", 50.0);
  model.SetAtomCost("Country", "us", 200.0);
  EXPECT_DOUBLE_EQ(model.AtomCost("Role", "frontend"), 1.0);     // default
  EXPECT_DOUBLE_EQ(model.AtomCost("Country", "india"), 50.0);    // attribute
  EXPECT_DOUBLE_EQ(model.AtomCost("Country", "us"), 200.0);      // atom
}

TEST(CostModelTest, PatternCostSumsAtoms) {
  InterventionCostModel model(1.0);
  model.SetAttributeCost("Country", 50.0);
  const Schema schema = TestSchema();
  const Pattern pattern({Predicate(0, CompareOp::kEq, Value("frontend")),
                         Predicate(1, CompareOp::kEq, Value("us"))});
  EXPECT_DOUBLE_EQ(model.PatternCost(pattern, schema), 51.0);
  EXPECT_DOUBLE_EQ(model.PatternCost(Pattern::Empty(), schema), 0.0);
}

TEST(CostModelTest, RuleTotalScalesWithSupport) {
  InterventionCostModel model(2.0);
  const Schema schema = TestSchema();
  PrescriptionRule rule;
  rule.intervention = Pattern({Predicate(0, CompareOp::kEq, Value("x"))});
  rule.support = 100;
  EXPECT_DOUBLE_EQ(model.RuleTotalCost(rule, schema), 200.0);
}

// ---------------------------------------------------------------------------
// Budgeted greedy.

Bitmap TestMask() {
  Bitmap mask(100);
  for (size_t i = 0; i < 20; ++i) mask.Set(i);
  return mask;
}

PrescriptionRule CoverRule(size_t begin, size_t end, double utility) {
  const Bitmap mask = TestMask();
  PrescriptionRule rule;
  rule.coverage = Bitmap(100);
  for (size_t i = begin; i < end; ++i) rule.coverage.Set(i);
  rule.support = rule.coverage.Count();
  rule.support_protected = rule.coverage.AndCount(mask);
  rule.utility = utility;
  rule.utility_protected = utility;
  rule.utility_nonprotected = utility;
  return rule;
}

TEST(BudgetedGreedyTest, NeverExceedsBudget) {
  const std::vector<PrescriptionRule> candidates = {
      CoverRule(0, 50, 10.0), CoverRule(50, 100, 10.0),
      CoverRule(0, 100, 12.0)};
  const std::vector<double> costs = {60.0, 60.0, 200.0};
  GreedyOptions options;
  options.budget = 130.0;
  options.min_marginal_gain = 0.0;
  const GreedyResult result =
      GreedySelect(candidates, TestMask(), FairnessConstraint::None(),
                   CoverageConstraint::None(), options, &costs);
  EXPECT_LE(result.total_cost, 130.0);
  // The two cheap rules fit (120) and together cover everything; the big
  // rule alone (200) never fits.
  EXPECT_EQ(result.selected.size(), 2u);
}

TEST(BudgetedGreedyTest, PrefersCostEffectiveRules) {
  // Equal utility and coverage; wildly different costs.
  const std::vector<PrescriptionRule> candidates = {
      CoverRule(0, 100, 10.0), CoverRule(0, 100, 10.0)};
  const std::vector<double> costs = {1000.0, 10.0};
  GreedyOptions options;
  options.budget = 1500.0;
  const GreedyResult result =
      GreedySelect(candidates, TestMask(), FairnessConstraint::None(),
                   CoverageConstraint::None(), options, &costs);
  ASSERT_FALSE(result.selected.empty());
  EXPECT_EQ(result.selected[0], 1u);
}

TEST(BudgetedGreedyTest, ZeroBudgetDisablesCostLogic) {
  const std::vector<PrescriptionRule> candidates = {CoverRule(0, 100, 10.0)};
  const std::vector<double> costs = {1e9};
  GreedyOptions options;  // budget = 0 -> unlimited
  const GreedyResult result =
      GreedySelect(candidates, TestMask(), FairnessConstraint::None(),
                   CoverageConstraint::None(), options, &costs);
  EXPECT_EQ(result.selected.size(), 1u);
  EXPECT_DOUBLE_EQ(result.total_cost, 0.0);
}

TEST(BudgetedGreedyTest, EndToEndThroughFairCap) {
  const ToyData data = MakeToyData(3000);
  auto model = std::make_shared<InterventionCostModel>(1.0);
  // Make every T1 prescription prohibitively expensive.
  model->SetAttributeCost("T1", 1000.0);

  FairCapOptions options;
  options.apriori.min_support_fraction = 0.3;
  options.lattice.max_predicates = 1;
  options.num_threads = 1;
  options.cost_model = model;
  options.greedy.budget = 10000.0;  // ~3 rows of T1 prescriptions max

  const auto result =
      FairCap::Create(&data.df, &data.dag, data.protected_pattern, options)
          ->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->total_cost, 10000.0);
  // Only cheap (T2) prescriptions are affordable at full coverage.
  for (const auto& rule : result->rules) {
    for (size_t attr : rule.intervention.Attributes()) {
      EXPECT_EQ(data.df.schema().attribute(attr).name, "T2")
          << rule.ToString(data.df.schema());
    }
  }
}

}  // namespace
}  // namespace faircap
