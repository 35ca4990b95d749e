#include "causal/estimator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "estimate_overall.h"
#include "util/random.h"

namespace faircap {
namespace {

// Confounded dataset: Z ~ Bernoulli(0.5) as "hi"/"lo";
// T = "yes" w.p. 0.8 if Z=hi else 0.2; O = 10*[Z=hi] + effect*[T=yes] + eps.
// Naive mean difference is biased upward by the confounding (+~6.7);
// backdoor adjustment on Z recovers `effect`.
struct ConfoundedData {
  DataFrame df;
  CausalDag dag;
};

ConfoundedData MakeConfounded(double effect, size_t n, uint64_t seed) {
  auto schema = Schema::Create({
      {"Z", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const bool z = rng.NextBernoulli(0.5);
    const bool t = rng.NextBernoulli(z ? 0.8 : 0.2);
    const double o = (z ? 10.0 : 0.0) + (t ? effect : 0.0) +
                     rng.NextGaussian(0.0, 1.0);
    EXPECT_TRUE(df.AppendRow({Value(z ? "hi" : "lo"),
                              Value(t ? "yes" : "no"), Value(o)})
                    .ok());
  }
  CausalDag dag = CausalDag::Create({"Z", "T", "O"},
                                    {{"Z", "T"}, {"Z", "O"}, {"T", "O"}})
                      .ValueOrDie();
  return {std::move(df), std::move(dag)};
}

Pattern TreatYes(const DataFrame& df) {
  const size_t t = *df.schema().IndexOf("T");
  return Pattern({Predicate(t, CompareOp::kEq, Value("yes"))});
}

TEST(EstimatorTest, RegressionRecoversEffectUnderConfounding) {
  const ConfoundedData data = MakeConfounded(3.0, 8000, 5);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const auto cate = EstimateOverall(*est, TreatYes(data.df), data.df.AllRows());
  ASSERT_TRUE(cate.ok()) << cate.status().ToString();
  EXPECT_NEAR(cate->cate, 3.0, 0.15);
  EXPECT_GT(cate->n_treated, 1000u);
  EXPECT_GT(cate->n_control, 1000u);
  EXPECT_GT(cate->t_statistic(), 10.0);
}

TEST(EstimatorTest, StratifiedRecoversEffectUnderConfounding) {
  const ConfoundedData data = MakeConfounded(3.0, 8000, 5);
  CateOptions options;
  options.method = CateMethod::kStratified;
  const auto est = CateEstimator::Create(&data.df, &data.dag, options);
  ASSERT_TRUE(est.ok());
  const auto cate = EstimateOverall(*est, TreatYes(data.df), data.df.AllRows());
  ASSERT_TRUE(cate.ok()) << cate.status().ToString();
  EXPECT_NEAR(cate->cate, 3.0, 0.15);
}

TEST(EstimatorTest, NaiveDifferenceWouldBeBiased) {
  // Sanity-check the test construction itself: the unadjusted difference
  // of means must be far from the true effect.
  const ConfoundedData data = MakeConfounded(3.0, 8000, 5);
  const Bitmap treated = TreatYes(data.df).Evaluate(data.df);
  Bitmap control = data.df.AllRows();
  control.AndNot(treated);
  const size_t o = *data.df.schema().IndexOf("O");
  const double naive = data.df.Mean(o, treated) - data.df.Mean(o, control);
  EXPECT_GT(naive, 5.0);  // confounding inflates the difference
}

TEST(EstimatorTest, ZeroEffectEstimatesNearZero) {
  const ConfoundedData data = MakeConfounded(0.0, 8000, 11);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const auto cate = EstimateOverall(*est, TreatYes(data.df), data.df.AllRows());
  ASSERT_TRUE(cate.ok());
  EXPECT_NEAR(cate->cate, 0.0, 0.12);
  EXPECT_LT(std::abs(cate->t_statistic()), 4.0);
}

TEST(EstimatorTest, SubgroupEstimation) {
  // Effect only within Z=hi subgroup when estimated there.
  const ConfoundedData data = MakeConfounded(3.0, 8000, 13);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t z = *data.df.schema().IndexOf("Z");
  const Bitmap hi =
      Pattern({Predicate(z, CompareOp::kEq, Value("hi"))}).Evaluate(data.df);
  const auto cate = EstimateOverall(*est, TreatYes(data.df), hi);
  ASSERT_TRUE(cate.ok());
  EXPECT_NEAR(cate->cate, 3.0, 0.2);
}

TEST(EstimatorTest, InsufficientOverlapFails) {
  const ConfoundedData data = MakeConfounded(3.0, 40, 17);
  CateOptions options;
  options.min_group_size = 30;  // 40 rows cannot give 30 treated + 30 control
  const auto est = CateEstimator::Create(&data.df, &data.dag, options);
  ASSERT_TRUE(est.ok());
  const auto cate = EstimateOverall(*est, TreatYes(data.df), data.df.AllRows());
  EXPECT_EQ(cate.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EstimatorTest, EmptyInterventionRejected) {
  const ConfoundedData data = MakeConfounded(1.0, 100, 19);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const auto cate = EstimateOverall(*est, Pattern::Empty(), data.df.AllRows());
  EXPECT_EQ(cate.status().code(), StatusCode::kInvalidArgument);
}

TEST(EstimatorTest, AdjustmentSetIsTreatmentParents) {
  const ConfoundedData data = MakeConfounded(1.0, 100, 23);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const auto attrs = est->AdjustmentAttrs(TreatYes(data.df));
  ASSERT_TRUE(attrs.ok());
  ASSERT_EQ(attrs->size(), 1u);
  EXPECT_EQ((*attrs)[0], *data.df.schema().IndexOf("Z"));
}

TEST(EstimatorTest, MissingOutcomeInDagRejectedAtCreate) {
  const ConfoundedData data = MakeConfounded(1.0, 50, 29);
  const CausalDag wrong_dag =
      CausalDag::Create({"Z", "T"}, {{"Z", "T"}}).ValueOrDie();
  const auto est = CateEstimator::Create(&data.df, &wrong_dag);
  EXPECT_FALSE(est.ok());
}

TEST(EstimatorTest, TreatedMaskIsCachedAndCorrect) {
  const ConfoundedData data = MakeConfounded(1.0, 500, 31);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const Pattern p = TreatYes(data.df);
  const std::shared_ptr<const Bitmap> m1 = est->TreatedMask(p);
  const std::shared_ptr<const Bitmap> m2 = est->TreatedMask(p);
  EXPECT_EQ(m1.get(), m2.get());  // same cached object
  EXPECT_EQ(m1->Count(), p.Evaluate(data.df).Count());
}

TEST(EstimatorTest, MultiAttributeIntervention) {
  // Two treatments with additive effects: T1 adds 2, T2 adds 1.
  auto schema = Schema::Create({
      {"Z", AttrType::kCategorical, AttrRole::kImmutable},
      {"T1", AttrType::kCategorical, AttrRole::kMutable},
      {"T2", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(37);
  for (int i = 0; i < 8000; ++i) {
    const bool z = rng.NextBernoulli(0.5);
    const bool t1 = rng.NextBernoulli(z ? 0.7 : 0.3);
    const bool t2 = rng.NextBernoulli(0.5);
    const double o = (z ? 5.0 : 0.0) + (t1 ? 2.0 : 0.0) + (t2 ? 1.0 : 0.0) +
                     rng.NextGaussian(0.0, 1.0);
    ASSERT_TRUE(df.AppendRow({Value(z ? "hi" : "lo"),
                              Value(t1 ? "yes" : "no"),
                              Value(t2 ? "yes" : "no"), Value(o)})
                    .ok());
  }
  const CausalDag dag =
      CausalDag::Create({"Z", "T1", "T2", "O"},
                        {{"Z", "T1"}, {"Z", "O"}, {"T1", "O"}, {"T2", "O"}})
          .ValueOrDie();
  const auto est = CateEstimator::Create(&df, &dag);
  ASSERT_TRUE(est.ok());
  const size_t t1 = *df.schema().IndexOf("T1");
  const size_t t2 = *df.schema().IndexOf("T2");
  const Pattern both({Predicate(t1, CompareOp::kEq, Value("yes")),
                      Predicate(t2, CompareOp::kEq, Value("yes"))});
  const auto cate = EstimateOverall(*est, both, df.AllRows());
  ASSERT_TRUE(cate.ok()) << cate.status().ToString();
  // do(T1=yes, T2=yes) vs the mixed control population: the regression
  // contrast is between "both" and "not both", which averages over the
  // control's T1/T2 mix; expect between 1.5 and 3.
  EXPECT_GT(cate->cate, 1.2);
  EXPECT_LT(cate->cate, 3.2);
}

}  // namespace
}  // namespace faircap
