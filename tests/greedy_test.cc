#include "core/greedy.h"

#include <gtest/gtest.h>

#include <algorithm>

namespace faircap {
namespace {

// Rules over a 100-row universe; protected rows are 0..19 (20%).
Bitmap ProtectedMask() {
  Bitmap mask(100);
  for (size_t i = 0; i < 20; ++i) mask.Set(i);
  return mask;
}

PrescriptionRule MakeRule(size_t begin, size_t end, double utility,
                          double utility_p, double utility_np) {
  const Bitmap mask = ProtectedMask();
  PrescriptionRule rule;
  rule.coverage = Bitmap(100);
  for (size_t i = begin; i < end; ++i) rule.coverage.Set(i);
  rule.support = rule.coverage.Count();
  rule.support_protected = rule.coverage.AndCount(mask);
  rule.utility = utility;
  rule.utility_protected = utility_p;
  rule.utility_nonprotected = utility_np;
  return rule;
}

TEST(GreedyTest, EmptyCandidatesYieldEmptyResult) {
  const GreedyResult result =
      GreedySelect({}, ProtectedMask(), FairnessConstraint::None(),
                   CoverageConstraint::None());
  EXPECT_TRUE(result.selected.empty());
  EXPECT_TRUE(result.constraints_satisfied);
}

TEST(GreedyTest, PicksHighestUtilityFirst) {
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 100, 10.0, 10.0, 10.0),
      MakeRule(0, 100, 50.0, 50.0, 50.0),
  };
  const GreedyResult result =
      GreedySelect(candidates, ProtectedMask(), FairnessConstraint::None(),
                   CoverageConstraint::None());
  ASSERT_FALSE(result.selected.empty());
  EXPECT_EQ(result.selected[0], 1u);
}

TEST(GreedyTest, NegativeUtilityNeverSelected) {
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 100, -5.0, -5.0, -5.0)};
  const GreedyResult result =
      GreedySelect(candidates, ProtectedMask(), FairnessConstraint::None(),
                   CoverageConstraint::None());
  EXPECT_TRUE(result.selected.empty());
}

TEST(GreedyTest, MaxRulesCapRespected) {
  std::vector<PrescriptionRule> candidates;
  for (size_t i = 0; i < 30; ++i) {
    candidates.push_back(MakeRule(i * 3, i * 3 + 3, 10.0 + i, 10.0, 10.0));
  }
  GreedyOptions options;
  options.max_rules = 5;
  options.min_marginal_gain = 0.0;
  const GreedyResult result =
      GreedySelect(candidates, ProtectedMask(), FairnessConstraint::None(),
                   CoverageConstraint::None(), options);
  EXPECT_LE(result.selected.size(), 5u);
}

TEST(GreedyTest, RuleCoveragePreFiltersCandidates) {
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 5, 100.0, 100.0, 100.0),    // 5% coverage: fails 10%
      MakeRule(0, 60, 50.0, 50.0, 50.0),      // 60% coverage: passes
  };
  const GreedyResult result = GreedySelect(
      candidates, ProtectedMask(), FairnessConstraint::None(),
      CoverageConstraint::Rule(0.1, 0.1));
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0], 1u);
}

TEST(GreedyTest, IndividualFairnessPreFiltersCandidates) {
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 100, 100.0, 10.0, 100.0),  // gap 90: unfair
      MakeRule(0, 100, 40.0, 38.0, 42.0),    // gap 4: fair
  };
  const GreedyResult result = GreedySelect(
      candidates, ProtectedMask(), FairnessConstraint::IndividualSP(5.0),
      CoverageConstraint::None());
  ASSERT_EQ(result.selected.size(), 1u);
  EXPECT_EQ(result.selected[0], 1u);
}

TEST(GreedyTest, CoverageConstraintDrivesSelectionUntilMet) {
  // Highest-utility rule covers only protected rows; meeting the group
  // coverage constraint requires adding the broad rule too.
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 20, 90.0, 90.0, 0.0),     // protected-only, high utility
      MakeRule(20, 100, 30.0, 0.0, 30.0),   // non-protected bulk
  };
  const GreedyResult result = GreedySelect(
      candidates, ProtectedMask(), FairnessConstraint::None(),
      CoverageConstraint::Group(0.9, 0.9));
  EXPECT_EQ(result.selected.size(), 2u);
  EXPECT_TRUE(result.stats.coverage_fraction >= 0.9);
  EXPECT_TRUE(result.constraints_satisfied);
}

TEST(GreedyTest, GroupFairnessSteeringAvoidsViolatingRule) {
  // Candidate 0 creates a large group gap; candidate 1 is fair with decent
  // utility. Under group SP(5) the solver must not end up violating.
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 100, 100.0, 20.0, 120.0),  // unfair (gap 100)
      MakeRule(0, 100, 60.0, 58.0, 61.0),    // fair (gap 3)
  };
  const GreedyResult result = GreedySelect(
      candidates, ProtectedMask(), FairnessConstraint::GroupSP(5.0),
      CoverageConstraint::None());
  ASSERT_FALSE(result.selected.empty());
  EXPECT_TRUE(result.constraints_satisfied)
      << "unfairness=" << result.stats.unfairness;
  EXPECT_LE(std::abs(result.stats.unfairness), 5.0);
}

TEST(GreedyTest, GroupBGLSatisfiedViaTrim) {
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 100, 100.0, 0.05, 120.0),  // starves protected
      MakeRule(0, 100, 50.0, 45.0, 52.0),    // protects them
  };
  const GreedyResult result = GreedySelect(
      candidates, ProtectedMask(), FairnessConstraint::GroupBGL(40.0),
      CoverageConstraint::None());
  ASSERT_FALSE(result.selected.empty());
  EXPECT_TRUE(result.constraints_satisfied);
  EXPECT_GE(result.stats.exp_utility_protected, 40.0);
}

TEST(GreedyTest, StatsMatchRecomputation) {
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 50, 10.0, 8.0, 12.0), MakeRule(50, 100, 20.0, 0.0, 20.0)};
  const GreedyResult result =
      GreedySelect(candidates, ProtectedMask(), FairnessConstraint::None(),
                   CoverageConstraint::None());
  const RulesetStats recomputed =
      ComputeRulesetStats(candidates, result.selected, ProtectedMask());
  EXPECT_DOUBLE_EQ(result.stats.exp_utility, recomputed.exp_utility);
  EXPECT_EQ(result.stats.covered, recomputed.covered);
}

TEST(GreedyTest, MarginalGainStoppingAvoidsRedundantRules) {
  // Second rule identical to the first: adds nothing, must not be picked.
  const std::vector<PrescriptionRule> candidates = {
      MakeRule(0, 100, 50.0, 50.0, 50.0),
      MakeRule(0, 100, 50.0, 50.0, 50.0),
  };
  GreedyOptions options;
  options.min_marginal_gain = 1e-6;
  const GreedyResult result =
      GreedySelect(candidates, ProtectedMask(), FairnessConstraint::None(),
                   CoverageConstraint::None(), options);
  EXPECT_EQ(result.selected.size(), 1u);
}

}  // namespace
}  // namespace faircap
