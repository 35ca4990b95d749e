// Failure-injection and degenerate-input tests: empty protected groups,
// null-heavy columns, constant attributes, missing mutable attributes,
// and the lattice-pruning ablation switch.

#include <gtest/gtest.h>

#include <cmath>

#include "core/faircap.h"
#include "estimate_overall.h"
#include "in_order_evaluator.h"
#include "mining/lattice.h"
#include "test_data.h"

namespace faircap {
namespace {

TEST(RobustnessTest, EmptyProtectedGroupStillRuns) {
  const ToyData data = MakeToyData(2000);
  const size_t prot = *data.df.schema().IndexOf("Prot");
  // A category that never occurs: protected group is empty.
  Pattern empty_protected(
      {Predicate(prot, CompareOp::kEq, Value("never-seen"))});
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.3;
  options.lattice.max_predicates = 1;
  options.num_threads = 1;
  auto solver = FairCap::Create(&data.df, &data.dag, empty_protected, options);
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ(solver->protected_mask().Count(), 0u);
  const auto result = solver->Run();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // With no protected individuals, protected utilities are all zero and
  // coverage-protected is trivially zero.
  EXPECT_EQ(result->stats.covered_protected, 0u);
  EXPECT_DOUBLE_EQ(result->stats.exp_utility_protected, 0.0);
}

TEST(RobustnessTest, WholePopulationProtectedStillRuns) {
  const ToyData data = MakeToyData(2000);
  const size_t prot = *data.df.schema().IndexOf("Prot");
  // Protected = everyone with a non-null Prot value (yes or no).
  Pattern all_protected({Predicate(prot, CompareOp::kNe, Value("zzz"))});
  FairCapOptions options;
  options.apriori.min_support_fraction = 0.3;
  options.lattice.max_predicates = 1;
  options.num_threads = 1;
  auto solver = FairCap::Create(&data.df, &data.dag, all_protected, options);
  ASSERT_TRUE(solver.ok());
  EXPECT_EQ(solver->protected_mask().Count(), data.df.num_rows());
  const auto result = solver->Run();
  ASSERT_TRUE(result.ok());
  // Non-protected side is empty: its expected utility is zero by the
  // paper's convention.
  EXPECT_DOUBLE_EQ(result->stats.exp_utility_nonprotected, 0.0);
}

TEST(RobustnessTest, NullHeavyOutcomeRowsAreSkipped) {
  auto schema = Schema::Create({
      {"G", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const bool t = rng.NextBernoulli(0.5);
    // Half the outcome values are null.
    Value outcome = rng.NextBernoulli(0.5)
                        ? Value::Null()
                        : Value(t ? 10.0 : 5.0);
    ASSERT_TRUE(df.AppendRow({Value("g"), Value(t ? "1" : "0"),
                              std::move(outcome)})
                    .ok());
  }
  const CausalDag dag =
      CausalDag::Create({"G", "T", "O"}, {{"T", "O"}}).ValueOrDie();
  const auto est = CateEstimator::Create(&df, &dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *df.schema().IndexOf("T");
  const auto cate = EstimateOverall(
      *est, Pattern({Predicate(t, CompareOp::kEq, Value("1"))}), df.AllRows());
  ASSERT_TRUE(cate.ok()) << cate.status().ToString();
  EXPECT_NEAR(cate->cate, 5.0, 0.5);
  // Counted rows exclude the nulls.
  EXPECT_LT(cate->n_treated + cate->n_control, 400u);
}

TEST(RobustnessTest, NoMutableAttributesYieldsEmptyRuleset) {
  auto schema = Schema::Create({
      {"G", AttrType::kCategorical, AttrRole::kImmutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(
        df.AppendRow({Value(i % 2 == 0 ? "a" : "b"), Value(1.0 * i)}).ok());
  }
  const CausalDag dag =
      CausalDag::Create({"G", "O"}, {{"G", "O"}}).ValueOrDie();
  const size_t g = *df.schema().IndexOf("G");
  FairCapOptions options;
  options.num_threads = 1;
  auto solver = FairCap::Create(
      &df, &dag, Pattern({Predicate(g, CompareOp::kEq, Value("a"))}),
      options);
  ASSERT_TRUE(solver.ok());
  const auto result = solver->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rules.empty());
}

TEST(RobustnessTest, ConstantMutableAttributeProducesNoRules) {
  // A mutable attribute with a single category: treated or control side is
  // always empty, so no estimable treatment exists.
  auto schema = Schema::Create({
      {"G", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(6);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(df.AppendRow({Value(i % 2 == 0 ? "x" : "y"),
                              Value("always"),
                              Value(rng.NextGaussian(0, 1))})
                    .ok());
  }
  const CausalDag dag =
      CausalDag::Create({"G", "T", "O"}, {{"T", "O"}}).ValueOrDie();
  const size_t g = *df.schema().IndexOf("G");
  FairCapOptions options;
  options.num_threads = 1;
  auto solver = FairCap::Create(
      &df, &dag, Pattern({Predicate(g, CompareOp::kEq, Value("x"))}),
      options);
  ASSERT_TRUE(solver.ok());
  const auto result = solver->Run();
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->rules.empty());
}

TEST(RobustnessTest, LatticeAblationExploresMoreWithoutPruning) {
  const ToyData data = MakeToyData(1500);
  size_t evals_pruned = 0, evals_unpruned = 0;
  for (const bool prune : {true, false}) {
    const LevelEvaluator eval = InOrder(
        [&](const Pattern& p) -> std::optional<TreatmentEval> {
      TreatmentEval e;
      // Make exactly one atom negative so pruning bites.
      e.cate = p.ToString(data.df.schema()).find("T1 = a") !=
                       std::string::npos
                   ? -1.0
                   : 1.0;
      e.score = e.cate;
      return e;
    });
    LatticeOptions options;
    options.max_predicates = 2;
    options.require_positive_parents = prune;
    const std::vector<size_t> mutable_attrs =
        data.df.schema().IndicesWithRole(AttrRole::kMutable);
    const LatticeResult result = TraverseInterventionLattice(
        data.df, mutable_attrs, eval, options);
    (prune ? evals_pruned : evals_unpruned) = result.num_evaluated;
  }
  EXPECT_GT(evals_unpruned, evals_pruned);
}

TEST(RobustnessTest, ProtectedPatternOverMutableAttributeAllowed) {
  // Unusual but legal: protected group defined on a mutable attribute.
  const ToyData data = MakeToyData(1000);
  const size_t t2 = *data.df.schema().IndexOf("T2");
  FairCapOptions options;
  options.num_threads = 1;
  options.apriori.min_support_fraction = 0.4;
  options.lattice.max_predicates = 1;
  auto solver = FairCap::Create(
      &data.df, &data.dag,
      Pattern({Predicate(t2, CompareOp::kEq, Value("y"))}), options);
  ASSERT_TRUE(solver.ok());
  EXPECT_TRUE(solver->Run().ok());
}

}  // namespace
}  // namespace faircap
