#include <gtest/gtest.h>

#include <cmath>

#include "causal/estimator.h"
#include "estimate_overall.h"
#include "util/random.h"

namespace faircap {
namespace {

struct ConfoundedData {
  DataFrame df;
  CausalDag dag;
};

// Same confounded construction as estimator_test: Z -> T, Z -> O, T -> O.
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

TEST(IpwTest, RecoversEffectUnderConfounding) {
  const ConfoundedData data = MakeConfounded(3.0, 10000, 41);
  CateOptions options;
  options.method = CateMethod::kIpw;
  const auto est = CateEstimator::Create(&data.df, &data.dag, options);
  ASSERT_TRUE(est.ok());
  const auto cate = EstimateOverall(*est, TreatYes(data.df), data.df.AllRows());
  ASSERT_TRUE(cate.ok()) << cate.status().ToString();
  EXPECT_NEAR(cate->cate, 3.0, 0.25);
  EXPECT_GT(cate->std_error, 0.0);
}

TEST(IpwTest, AgreesWithRegressionAcrossSeeds) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    const ConfoundedData data = MakeConfounded(2.0, 8000, seed);
    CateOptions ipw_options;
    ipw_options.method = CateMethod::kIpw;
    const auto ipw = CateEstimator::Create(&data.df, &data.dag, ipw_options);
    const auto reg = CateEstimator::Create(&data.df, &data.dag);
    ASSERT_TRUE(ipw.ok() && reg.ok());
    const auto c_ipw =
        EstimateOverall(*ipw, TreatYes(data.df), data.df.AllRows());
    const auto c_reg =
        EstimateOverall(*reg, TreatYes(data.df), data.df.AllRows());
    ASSERT_TRUE(c_ipw.ok() && c_reg.ok());
    EXPECT_NEAR(c_ipw->cate, c_reg->cate, 0.3) << "seed " << seed;
  }
}

TEST(IpwTest, NoConfounderReducesToDifferenceOfMeans) {
  // Randomized treatment: propensity is flat, IPW ~ naive difference.
  auto schema = Schema::Create({
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(5);
  for (int i = 0; i < 5000; ++i) {
    const bool t = rng.NextBernoulli(0.5);
    ASSERT_TRUE(df.AppendRow({Value(t ? "1" : "0"),
                              Value((t ? 4.0 : 0.0) +
                                    rng.NextGaussian(0.0, 1.0))})
                    .ok());
  }
  const CausalDag dag =
      CausalDag::Create({"T", "O"}, {{"T", "O"}}).ValueOrDie();
  CateOptions options;
  options.method = CateMethod::kIpw;
  const auto est = CateEstimator::Create(&df, &dag, options);
  ASSERT_TRUE(est.ok());
  const size_t t = *df.schema().IndexOf("T");
  const Pattern treat_one({Predicate(t, CompareOp::kEq, Value("1"))});
  const auto cate = EstimateOverall(*est, treat_one, df.AllRows());
  ASSERT_TRUE(cate.ok());
  EXPECT_NEAR(cate->cate, 4.0, 0.15);
}

TEST(IpwTest, InsufficientOverlapFails) {
  const ConfoundedData data = MakeConfounded(1.0, 30, 7);
  CateOptions options;
  options.method = CateMethod::kIpw;
  options.min_group_size = 25;
  const auto est = CateEstimator::Create(&data.df, &data.dag, options);
  ASSERT_TRUE(est.ok());
  const auto cate = EstimateOverall(*est, TreatYes(data.df), data.df.AllRows());
  EXPECT_EQ(cate.status().code(), StatusCode::kFailedPrecondition);
}

TEST(IpwTest, SubgroupEstimation) {
  const ConfoundedData data = MakeConfounded(3.0, 10000, 11);
  CateOptions options;
  options.method = CateMethod::kIpw;
  const auto est = CateEstimator::Create(&data.df, &data.dag, options);
  ASSERT_TRUE(est.ok());
  const size_t z = *data.df.schema().IndexOf("Z");
  const Bitmap lo =
      Pattern({Predicate(z, CompareOp::kEq, Value("lo"))}).Evaluate(data.df);
  const auto cate = EstimateOverall(*est, TreatYes(data.df), lo);
  ASSERT_TRUE(cate.ok());
  EXPECT_NEAR(cate->cate, 3.0, 0.3);
}

}  // namespace
}  // namespace faircap
