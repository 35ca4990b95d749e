// Property tests pinning the CateStatsEngine batch path against the
// test-side legacy per-call estimator (tests/reference/): for every method
// (regression / stratified / IPW), every subgroup estimate served by
// EstimateSubgroups must match what three independent ReferenceEstimate
// calls produce —
// bit-for-bit for the stratified combine and the per-row IPW fallback,
// within tight tolerance where only floating-point summation order
// differs (regression normal equations, grouped IRLS).

#include "causal/cate_stats_engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <utility>

#include "causal/estimator.h"
#include "core/faircap.h"
#include "data/german.h"
#include "data/stackoverflow.h"
#include "ingest/synthetic.h"
#include "reference/legacy_estimator.h"
#include "util/obs/metrics.h"
#include "util/random.h"
#include "util/simd/simd.h"

namespace faircap {
namespace {

// Relative-or-absolute tolerances per method. Stratified and the IPW
// numeric-confounder fallback replay the legacy arithmetic exactly
// (tolerance 0 = bit-for-bit); regression re-sums the normal equations
// per cell, which pins the CATE within 1e-9 but lets the *standard
// error* drift more: its residual sum of squares is the cancellation
// y'y - beta'X'y of two huge near-equal sums, so an O(1e-16) relative
// reordering difference in the inputs is amplified by the cancellation
// ratio. The grouped IRLS converges to the same optimum from
// group-summed Newton steps (convergence noise ~1e-8 of an iterate).
struct Tolerances {
  double cate;
  double std_error;
};

Tolerances ToleranceFor(CateMethod method) {
  switch (method) {
    case CateMethod::kStratified:
      return {0.0, 0.0};
    case CateMethod::kRegression:
      return {1e-9, 1e-6};
    case CateMethod::kIpw:
      return {1e-7, 1e-6};
  }
  return {1e-9, 1e-6};
}

void ExpectSameEstimate(const Result<CateEstimate>& batch,
                        const Result<CateEstimate>& legacy, Tolerances tol,
                        const std::string& label) {
  ASSERT_EQ(batch.ok(), legacy.ok())
      << label << ": batch=" << (batch.ok() ? "ok" : batch.status().ToString())
      << " legacy="
      << (legacy.ok() ? "ok" : legacy.status().ToString());
  if (!batch.ok()) {
    EXPECT_EQ(batch.status().code(), legacy.status().code()) << label;
    return;
  }
  EXPECT_EQ(batch->n_treated, legacy->n_treated) << label;
  EXPECT_EQ(batch->n_control, legacy->n_control) << label;
  if (tol.cate == 0.0) {
    EXPECT_EQ(batch->cate, legacy->cate) << label << " (bit-for-bit)";
    EXPECT_EQ(batch->std_error, legacy->std_error) << label;
  } else {
    const double cate_tol = tol.cate * std::max(1.0, std::abs(legacy->cate));
    EXPECT_NEAR(batch->cate, legacy->cate, cate_tol) << label;
    const double se_tol = tol.std_error * std::max(1.0, legacy->std_error);
    EXPECT_NEAR(batch->std_error, legacy->std_error, se_tol) << label;
  }
}

// The pinning oracle: three legacy per-call estimates vs one batch pass.
void ExpectBatchMatchesLegacy(const CateEstimator& est,
                              const Pattern& intervention, const Bitmap& group,
                              const Bitmap& protected_mask, size_t min_sub,
                              const std::string& label) {
  const Tolerances tol = ToleranceFor(est.options().method);
  const Result<CateSubgroupEstimates> batch =
      est.EstimateSubgroups(intervention, group, &protected_mask, min_sub);
  ASSERT_TRUE(batch.ok()) << label << ": " << batch.status().ToString();

  ExpectSameEstimate(batch->overall,
                     ReferenceEstimate(est, intervention, group), tol,
                     label + "/overall");
  const Bitmap prot = group & protected_mask;
  ExpectSameEstimate(batch->protected_group,
                     ReferenceEstimate(est, intervention, prot, min_sub), tol,
                     label + "/protected");
  Bitmap nonprot = group;
  nonprot.AndNot(protected_mask);
  ExpectSameEstimate(batch->nonprotected,
                     ReferenceEstimate(est, intervention, nonprot, min_sub),
                     tol, label + "/nonprotected");
}

// Random subgroup bitmap with the given set-bit density.
Bitmap RandomGroup(size_t num_rows, double density, Rng* rng) {
  Bitmap group(num_rows);
  for (size_t r = 0; r < num_rows; ++r) {
    if (rng->NextBernoulli(density)) group.Set(r);
  }
  return group;
}

// Random 1- or 2-predicate interventions over the mutable categorical
// attributes.
std::vector<Pattern> SampleInterventions(const DataFrame& df, size_t count,
                                         Rng* rng) {
  std::vector<size_t> mutables;
  for (size_t attr : df.schema().IndicesWithRole(AttrRole::kMutable)) {
    if (df.column(attr).type() == AttrType::kCategorical &&
        df.column(attr).num_categories() > 0) {
      mutables.push_back(attr);
    }
  }
  std::vector<Pattern> out;
  if (mutables.empty()) return out;
  auto random_predicate = [&](size_t attr) {
    const Column& col = df.column(attr);
    const int32_t code =
        static_cast<int32_t>(rng->NextBounded(col.num_categories()));
    return Predicate(attr, CompareOp::kEq, Value(col.CategoryName(code)));
  };
  for (size_t i = 0; i < count; ++i) {
    const size_t a = mutables[rng->NextBounded(mutables.size())];
    Pattern p({random_predicate(a)});
    if (mutables.size() > 1 && rng->NextBernoulli(0.5)) {
      const size_t b = mutables[rng->NextBounded(mutables.size())];
      if (b != a) p = p.With(random_predicate(b));
    }
    out.push_back(std::move(p));
  }
  return out;
}

void RunPropertySweep(const DataFrame& df, const CausalDag& dag,
                      const Pattern& protected_pattern, uint64_t seed,
                      const std::string& label) {
  const Bitmap protected_mask = protected_pattern.Evaluate(df);
  Rng rng(seed);
  const std::vector<Pattern> interventions = SampleInterventions(df, 4, &rng);
  ASSERT_FALSE(interventions.empty());
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&df, &dag, options);
    ASSERT_TRUE(est.ok());
    for (size_t i = 0; i < interventions.size(); ++i) {
      // Full population, a dense random subgroup, and a sparse one (the
      // sparse slice exercises min-arm failures on both paths).
      const Bitmap all = df.AllRows();
      const Bitmap dense = RandomGroup(df.num_rows(), 0.6, &rng);
      const Bitmap sparse = RandomGroup(df.num_rows(), 0.02, &rng);
      const std::string tag =
          label + "/m" + std::to_string(static_cast<int>(method)) + "/i" +
          std::to_string(i);
      ExpectBatchMatchesLegacy(*est, interventions[i], all, protected_mask,
                               /*min_sub=*/5, tag + "/all");
      ExpectBatchMatchesLegacy(*est, interventions[i], dense, protected_mask,
                               /*min_sub=*/5, tag + "/dense");
      ExpectBatchMatchesLegacy(*est, interventions[i], sparse, protected_mask,
                               /*min_sub=*/5, tag + "/sparse");
    }
  }
}

class CateStatsEngineProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CateStatsEngineProperty, MatchesLegacyOnGerman) {
  GermanConfig config;
  config.num_rows = 1500;
  config.seed = GetParam();
  const auto data = MakeGerman(config);
  ASSERT_TRUE(data.ok());
  RunPropertySweep(data->df, data->dag, data->protected_pattern, GetParam(),
                   "german");
}

TEST_P(CateStatsEngineProperty, MatchesLegacyOnSynthetic) {
  SyntheticConfig config;
  config.num_rows = 4000;
  config.seed = GetParam();
  const auto data = MakeSynthetic(config);
  ASSERT_TRUE(data.ok());
  RunPropertySweep(data->df, data->dag, data->protected_pattern, GetParam(),
                   "synthetic");
}

INSTANTIATE_TEST_SUITE_P(Seeds, CateStatsEngineProperty,
                         ::testing::Values(11u, 12u, 13u, 14u));

// Hand-built table covering the hard corners in one place: a numeric
// confounder (regression uses the raw values, stratification its
// quantile bins, IPW the per-row fallback), nulls in both confounders,
// a degenerate stratum with treated rows only, and a mutable attribute
// that the DAG does not know (empty adjustment set).
struct EdgeData {
  DataFrame df;
  CausalDag dag;
  Pattern protected_pattern;
};

// `outcome_null_rate` > 0 also nulls that share of outcomes: those rows
// must be masked out of every estimate.
EdgeData MakeEdgeData(size_t n, uint64_t seed,
                      double outcome_null_rate = 0.0) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zc", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zn", AttrType::kNumeric, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"U", AttrType::kCategorical, AttrRole::kMutable},  // not in the DAG
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  const char* zc_levels[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t zc = rng.NextBounded(3);
    const double zn = rng.NextGaussian(0.0, 2.0);
    const bool zc_null = rng.NextBernoulli(0.08);
    const bool zn_null = rng.NextBernoulli(0.08);
    // Stratum "c" is degenerate: always treated (positivity violation).
    const bool t = zc == 2 ? true
                          : rng.NextBernoulli(0.25 + 0.2 * zc +
                                              (zn > 0.0 ? 0.2 : 0.0));
    const bool u = rng.NextBernoulli(0.5);
    const double o = 5.0 + 3.0 * static_cast<double>(zc) + 1.5 * zn +
                     (t ? (prot ? 1.0 : 4.0) : 0.0) + (u ? 0.5 : 0.0) +
                     rng.NextGaussian(0.0, 1.0);
    const bool o_null =
        outcome_null_rate > 0.0 && rng.NextBernoulli(outcome_null_rate);
    const Status st = df.AppendRow(
        {Value(prot ? "yes" : "no"), zc_null ? Value::Null() : Value(zc_levels[zc]),
         zn_null ? Value::Null() : Value(zn), Value(t ? "yes" : "no"),
         Value(u ? "hi" : "lo"), o_null ? Value::Null() : Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag = CausalDag::Create({"Prot", "Zc", "Zn", "T", "O"},
                                    {{"Zc", "T"},
                                     {"Zn", "T"},
                                     {"Zc", "O"},
                                     {"Zn", "O"},
                                     {"Prot", "O"},
                                     {"T", "O"}})
                      .ValueOrDie();
  Pattern protected_pattern(
      {Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

TEST(CateStatsEngineEdgeTest, NumericAndNullConfoundersMatchLegacy) {
  const EdgeData data = MakeEdgeData(3000, 77);
  RunPropertySweep(data.df, data.dag, data.protected_pattern, 77, "edge");
}

TEST(CateStatsEngineEdgeTest, EmptyAdjustmentSetMatchesLegacy) {
  const EdgeData data = MakeEdgeData(2000, 78);
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  // "U" is absent from the DAG: no confounders, single joint stratum.
  const size_t u = *data.df.schema().IndexOf("U");
  const Pattern intervention({Predicate(u, CompareOp::kEq, Value("hi"))});
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    ExpectBatchMatchesLegacy(*est, intervention, data.df.AllRows(),
                             protected_mask, 5,
                             "noadj/m" +
                                 std::to_string(static_cast<int>(method)));
  }
}

TEST(CateStatsEngineEdgeTest, MinArmFailuresMatchLegacy) {
  const EdgeData data = MakeEdgeData(800, 79);
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  Rng rng(79);
  // A 12-row group cannot satisfy the default floor of 10 per arm: both
  // paths must fail identically (FailedPrecondition).
  Bitmap tiny(data.df.num_rows());
  for (size_t i = 0; i < 12; ++i) {
    tiny.Set(rng.NextBounded(data.df.num_rows()));
  }
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    ExpectBatchMatchesLegacy(*est, intervention, tiny, protected_mask, 5,
                             "tiny/m" +
                                 std::to_string(static_cast<int>(method)));
  }
}

// ---------------------------------------------------------------------
// Rule level: every rule the full pipeline selects carries utilities the
// reference estimator reproduces on the rule's coverage and its protected
// / non-protected slices — end to end through lattice evaluation, rule
// costing and greedy selection. Same configurations as
// golden_ruleset_test (group-SP fairness + group coverage, 1 thread),
// under the given estimation methods.

// A subgroup utility as CostRule reports it against the reference: an
// empty slice has utility 0 and counts as estimable; a non-empty one is
// estimable exactly when the reference succeeds, and then carries its
// CATE.
void ExpectSubgroupUtility(double utility, bool estimable, size_t support,
                           const Result<CateEstimate>& ref, Tolerances tol,
                           const std::string& label) {
  if (support == 0) {
    EXPECT_TRUE(estimable) << label;
    EXPECT_EQ(utility, 0.0) << label;
    return;
  }
  ASSERT_EQ(estimable, ref.ok())
      << label << ": " << (ref.ok() ? "ok" : ref.status().ToString());
  if (!ref.ok()) return;
  if (tol.cate == 0.0) {
    EXPECT_EQ(utility, ref->cate) << label << " (bit-for-bit)";
  } else {
    EXPECT_NEAR(utility, ref->cate,
                tol.cate * std::max(1.0, std::abs(ref->cate)))
        << label;
  }
}

void ExpectRulesMatchReference(const DataFrame& df, const CausalDag& dag,
                               const Pattern& protected_pattern,
                               double epsilon, double theta,
                               const std::vector<CateMethod>& methods,
                               const std::string& label) {
  const Bitmap protected_mask = protected_pattern.Evaluate(df);
  for (const CateMethod method : methods) {
    FairCapOptions options;
    options.fairness = FairnessConstraint::GroupSP(epsilon);
    options.coverage = CoverageConstraint::Group(theta, theta);
    options.num_threads = 1;
    options.cate.method = method;
    const auto solver = FairCap::Create(&df, &dag, protected_pattern, options);
    ASSERT_TRUE(solver.ok()) << solver.status().ToString();
    const auto result = solver->Run();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    const std::string mtag =
        label + "/m" + std::to_string(static_cast<int>(method));
    EXPECT_FALSE(result->rules.empty()) << mtag;

    const auto est = CateEstimator::Create(&df, &dag, options.cate);
    ASSERT_TRUE(est.ok());
    const Tolerances tol = ToleranceFor(method);
    for (size_t i = 0; i < result->rules.size(); ++i) {
      const PrescriptionRule& rule = result->rules[i];
      const std::string tag = mtag + "/rule" + std::to_string(i);
      const Result<CateEstimate> overall =
          ReferenceEstimate(*est, rule.intervention, rule.coverage);
      ASSERT_TRUE(overall.ok()) << tag << ": " << overall.status().ToString();
      ExpectSubgroupUtility(rule.utility, true, rule.support, overall, tol,
                            tag + "/overall");
      const Bitmap prot = rule.coverage & protected_mask;
      Bitmap nonprot = rule.coverage;
      nonprot.AndNot(protected_mask);
      ExpectSubgroupUtility(
          rule.utility_protected, rule.utility_protected_estimable,
          prot.Count(),
          ReferenceEstimate(*est, rule.intervention, prot,
                            options.min_subgroup_arm),
          tol, tag + "/protected");
      ExpectSubgroupUtility(
          rule.utility_nonprotected, rule.utility_nonprotected_estimable,
          nonprot.Count(),
          ReferenceEstimate(*est, rule.intervention, nonprot,
                            options.min_subgroup_arm),
          tol, tag + "/nonprotected");
    }
  }
}

TEST(CateStatsEngineRuleTest, GermanSelectedRulesMatchReference) {
  const auto data = MakeGerman();
  ASSERT_TRUE(data.ok());
  ExpectRulesMatchReference(
      data->df, data->dag, data->protected_pattern, /*epsilon=*/0.1,
      /*theta=*/0.3,
      {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw},
      "german");
}

// IPW is left out here: its pipeline run on this table takes ~50 s in a
// Release build, against ~2 s for regression.
TEST(CateStatsEngineRuleTest, StackOverflow5kSelectedRulesMatchReference) {
  StackOverflowConfig config;
  config.num_rows = 5000;
  const auto data = MakeStackOverflow(config);
  ASSERT_TRUE(data.ok());
  ExpectRulesMatchReference(
      data->df, data->dag, data->protected_pattern, /*epsilon=*/10000.0,
      /*theta=*/0.5, {CateMethod::kRegression, CateMethod::kStratified},
      "stackoverflow_5k");
}

TEST(CateStatsEngineEdgeTest, MismatchedBitmapSizesAreInvalidArgument) {
  // The accumulation pass walks every mask over the table's words; a
  // shorter or longer group / protected mask must be rejected at the
  // entry point in every build type rather than read out of bounds.
  const EdgeData data = MakeEdgeData(1000, 84);
  const size_t n = data.df.num_rows();
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  const Bitmap all = data.df.AllRows();
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);
  for (const size_t bad : {n - 200, n + 200}) {
    const Bitmap bad_mask(bad, /*value=*/true);
    const std::string tag = "size " + std::to_string(bad);
    const Result<CateSubgroupEstimates> bad_group =
        est->EstimateSubgroups(intervention, bad_mask, &prot, 5);
    ASSERT_FALSE(bad_group.ok()) << tag;
    EXPECT_EQ(bad_group.status().code(), StatusCode::kInvalidArgument) << tag;
    const Result<CateSubgroupEstimates> bad_prot =
        est->EstimateSubgroups(intervention, all, &bad_mask, 5);
    ASSERT_FALSE(bad_prot.ok()) << tag;
    EXPECT_EQ(bad_prot.status().code(), StatusCode::kInvalidArgument) << tag;
  }
  // Matching sizes still estimate.
  EXPECT_TRUE(est->EstimateSubgroups(intervention, all, &prot, 5).ok());
}

TEST(CateStatsEngineDeathTest, AccumulateDeltaRejectsRowBeginPastTable) {
  // A delta boundary past the table would clear bits in a scratch word
  // past the end of the bitmap; Release builds must stop, not write.
  const EdgeData data = MakeEdgeData(1000, 85);  // 1000 % 64 != 0
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const auto engine =
      est->EngineFor(Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}));
  ASSERT_TRUE(engine.ok());
  const Bitmap all = data.df.AllRows();
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);
  EXPECT_DEATH((void)(*engine)->AccumulateDelta(all, &prot,
                                                data.df.num_rows() + 30),
               "CHECK failed.*row_begin <= group.size\\(\\)");
  // The boundary itself is a valid (empty) delta.
  EXPECT_EQ((*engine)->AccumulateDelta(all, &prot, data.df.num_rows())
                .overall.rows,
            0u);
}

TEST(CateStatsEngineDeathTest, MergeSubgroupAccumsRejectsMismatchedAccums) {
  // Accums of another engine (a different partition, so a different cell
  // count) must not be merged by indexing one with the other's sizes.
  const EdgeData data = MakeEdgeData(1000, 86);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const size_t u = *data.df.schema().IndexOf("U");
  const auto many_cells =
      est->EngineFor(Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}));
  const auto one_cell =
      est->EngineFor(Pattern({Predicate(u, CompareOp::kEq, Value("hi"))}));
  ASSERT_TRUE(many_cells.ok());
  ASSERT_TRUE(one_cell.ok());
  ASSERT_GT((*many_cells)->partition().cells().size(),
            (*one_cell)->partition().cells().size());
  const Bitmap all = data.df.AllRows();
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);
  CateStatsEngine::SubgroupAccums into =
      (*one_cell)->AccumulateSubgroups(all, &prot);
  const CateStatsEngine::SubgroupAccums from =
      (*many_cells)->AccumulateSubgroups(all, &prot);
  EXPECT_DEATH((*one_cell)->MergeSubgroupAccums(&into, from),
               "CHECK failed.*into->slots.size\\(\\) == from.slots.size\\(\\)");
}

// The per-slot double assembly that AssembleNormalEquations replaced,
// kept as its bit-for-bit oracle: every X'X entry — counts included — is
// summed in double per non-empty slot, in ascending slot order.
CateStatsEngine::NormalEquations PerSlotDoubleAssembly(
    const CateStatsEngine& engine, const CateStatsEngine::Accum& acc) {
  const ConfounderPartition& part = engine.partition();
  const auto& nf = part.numeric_features();
  const size_t m = part.num_numeric();
  const size_t mm = m * (m + 1) / 2;
  const size_t p = 2 + part.features().size();
  CateStatsEngine::NormalEquations out;
  out.p = p;
  out.xtx.assign(p * p, 0.0);
  out.xty.assign(p, 0.0);
  std::vector<double>& xtx = out.xtx;
  std::vector<double>& xty = out.xty;
  for (size_t c = 0; c < part.cells().size(); ++c) {
    const std::vector<uint32_t> onehot(
        part.onehot_ids().begin() + part.onehot_begin()[c],
        part.onehot_ids().begin() + part.onehot_begin()[c + 1]);
    for (int arm = 0; arm < 2; ++arm) {
      const size_t idx = c * 2 + static_cast<size_t>(arm);
      const uint32_t cnt = acc.slots[idx].n;
      if (cnt == 0) continue;
      const double nd = static_cast<double>(cnt);
      const double sy = acc.slots[idx].sy;
      xtx[0] += nd;
      if (arm != 0) {
        xtx[1] += nd;
        xtx[p + 1] += nd;
      }
      xty[0] += sy;
      if (arm != 0) xty[1] += sy;
      out.yty += acc.slots[idx].syy;
      for (const uint32_t f : onehot) {
        const size_t col = 2 + f;
        xtx[col] += nd;
        if (arm != 0) xtx[p + col] += nd;
        xty[col] += sy;
      }
      for (size_t i = 0; i < onehot.size(); ++i) {
        for (size_t j = i; j < onehot.size(); ++j) {
          xtx[(2 + onehot[i]) * p + (2 + onehot[j])] += nd;
        }
      }
      if (m == 0) continue;
      const size_t zbase = idx * m;
      for (size_t j = 0; j < m; ++j) {
        const double sz = acc.zsum[zbase + j];
        const size_t colj = 2 + nf[j];
        xtx[colj] += sz;
        if (arm != 0) xtx[p + colj] += sz;
        for (const uint32_t f : onehot) {
          const size_t a = 2 + f;
          if (a <= colj) {
            xtx[a * p + colj] += sz;
          } else {
            xtx[colj * p + a] += sz;
          }
        }
        xty[colj] += acc.zysum[zbase + j];
      }
      const size_t zzbase = idx * mm;
      for (size_t i = 0, t = 0; i < m; ++i) {
        for (size_t j = i; j < m; ++j, ++t) {
          xtx[(2 + nf[i]) * p + (2 + nf[j])] += acc.zzsum[zzbase + t];
        }
      }
    }
  }
  return out;
}

uint64_t Bits(double x) {
  uint64_t bits = 0;
  std::memcpy(&bits, &x, sizeof(bits));
  return bits;
}

// X'X (upper triangle), X'y and y'y of every accum of `accums` equal the
// per-slot double oracle bit for bit.
void ExpectAssemblyMatchesOracle(const CateStatsEngine& engine,
                                 const CateStatsEngine::SubgroupAccums& accums,
                                 const std::string& label) {
  const std::pair<const CateStatsEngine::Accum*, const char*> parts[] = {
      {&accums.overall, "overall"},
      {&accums.prot, "protected"},
      {&accums.nonprot, "nonprotected"}};
  for (const auto& [acc, name] : parts) {
    const std::string tag = label + "/" + name;
    CateStatsEngine::NormalEquations got;
    engine.AssembleNormalEquations(*acc, &got);
    const CateStatsEngine::NormalEquations want =
        PerSlotDoubleAssembly(engine, *acc);
    ASSERT_EQ(got.p, want.p) << tag;
    const size_t p = want.p;
    for (size_t i = 0; i < p; ++i) {
      for (size_t j = i; j < p; ++j) {
        EXPECT_EQ(Bits(got.xtx[i * p + j]), Bits(want.xtx[i * p + j]))
            << tag << " X'X(" << i << "," << j << ") "
            << got.xtx[i * p + j] << " vs " << want.xtx[i * p + j];
      }
      EXPECT_EQ(Bits(got.xty[i]), Bits(want.xty[i])) << tag << " X'y " << i;
    }
    EXPECT_EQ(Bits(got.yty), Bits(want.yty)) << tag << " y'y";
  }
}

// Sweeps interventions x (all, dense, sparse) groups with the protected
// split through `est`'s regression engines.
void SweepAssembly(const CateEstimator& est, const DataFrame& df,
                   const Pattern& protected_pattern, uint64_t seed,
                   const std::string& label) {
  const Bitmap prot = protected_pattern.Evaluate(df);
  Rng rng(seed);
  const std::vector<Pattern> interventions = SampleInterventions(df, 4, &rng);
  ASSERT_FALSE(interventions.empty());
  for (size_t i = 0; i < interventions.size(); ++i) {
    const auto engine = est.EngineFor(interventions[i]);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    const Bitmap groups[] = {df.AllRows(), RandomGroup(df.num_rows(), 0.6, &rng),
                             RandomGroup(df.num_rows(), 0.05, &rng)};
    for (size_t g = 0; g < 3; ++g) {
      ExpectAssemblyMatchesOracle(
          **engine, (*engine)->AccumulateSubgroups(groups[g], &prot),
          label + "/i" + std::to_string(i) + "/g" + std::to_string(g));
    }
  }
}

TEST(CateStatsEngineAssemblyTest, NullAndNumericConfoundersBitForBit) {
  // Zc and Zn both carry nulls (null-confounder cells) and Zn is numeric
  // (the moment path); a tenth of the outcomes are null as well.
  const EdgeData data = MakeEdgeData(3000, 87, /*outcome_null_rate=*/0.1);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const auto engine =
      est->EngineFor(Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}));
  ASSERT_TRUE(engine.ok());
  ASSERT_GT((*engine)->partition().num_numeric(), 0u);
  SweepAssembly(*est, data.df, data.protected_pattern, 87, "edge");
}

TEST(CateStatsEngineAssemblyTest, CategoricalConfoundersBitForBit) {
  GermanConfig config;
  config.num_rows = 2000;
  const auto data = MakeGerman(config);
  ASSERT_TRUE(data.ok());
  const auto est = CateEstimator::Create(&data->df, &data->dag);
  ASSERT_TRUE(est.ok());
  SweepAssembly(*est, data->df, data->protected_pattern, 88, "german");
}

TEST(CateStatsEngineAssemblyTest, CellsAddedByExtendInPlaceBitForBit) {
  GermanConfig config;
  config.num_rows = 2000;
  const auto data = MakeGerman(config);
  ASSERT_TRUE(data.ok());
  // A 24-row base misses some joint confounder cells, so the delta
  // interns new ones at the end of the extended partitions.
  std::vector<uint32_t> head(24), tail(1976);
  for (uint32_t r = 0; r < 24; ++r) head[r] = r;
  for (uint32_t r = 0; r < 1976; ++r) tail[r] = 24 + r;
  DataFrame df = data->df.TakeRows(head);
  const DataFrame delta = data->df.TakeRows(tail);
  auto est = CateEstimator::Create(&df, &data->dag);
  ASSERT_TRUE(est.ok());
  Rng rng(89);
  const std::vector<Pattern> interventions = SampleInterventions(df, 4, &rng);
  std::vector<size_t> cells_before;
  for (const Pattern& intervention : interventions) {
    const auto engine = est->EngineFor(intervention);
    ASSERT_TRUE(engine.ok());
    cells_before.push_back((*engine)->partition().cells().size());
  }
  ASSERT_TRUE(df.AppendFrame(delta).ok());
  const CateEstimator::AppendRefreshStats stats = est->NotifyAppend();
  ASSERT_GT(stats.partitions_extended, 0u);
  ASSERT_EQ(stats.partitions_rebuilt, 0u);
  bool grew = false;
  const Bitmap prot = data->protected_pattern.Evaluate(df);
  for (size_t i = 0; i < interventions.size(); ++i) {
    const auto engine = est->EngineFor(interventions[i]);
    ASSERT_TRUE(engine.ok());
    grew |= (*engine)->partition().cells().size() > cells_before[i];
    ExpectAssemblyMatchesOracle(
        **engine, (*engine)->AccumulateSubgroups(df.AllRows(), &prot),
        "extended/i" + std::to_string(i));
  }
  EXPECT_TRUE(grew) << "the delta interned no new cells";
}

TEST(CateStatsEngineCacheTest, EnginesAreCachedPerTreatment) {
  const EdgeData data = MakeEdgeData(1000, 80);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  const Bitmap all = data.df.AllRows();
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);

  ASSERT_TRUE(est->EstimateSubgroups(intervention, all, &prot, 5).ok());
  const auto first = est->GetEngineStats();
  EXPECT_EQ(first.engines, 1u);
  EXPECT_EQ(first.misses, 1u);
  EXPECT_EQ(first.partitions, 1u);
  EXPECT_GT(first.bytes, 0u);

  ASSERT_TRUE(est->EstimateSubgroups(intervention, all, &prot, 5).ok());
  const auto second = est->GetEngineStats();
  EXPECT_EQ(second.engines, 1u);
  EXPECT_EQ(second.misses, 1u);
  EXPECT_GE(second.hits, 1u);
}

TEST(CateStatsEngineCacheTest, PartitionsAreSharedAcrossSameAttrTreatments) {
  const EdgeData data = MakeEdgeData(1000, 81);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const Bitmap all = data.df.AllRows();
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);
  // T=yes and T=no share the treatment attribute, hence the adjustment
  // set, hence one confounder partition.
  (void)est->EstimateSubgroups(
      Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}), all, &prot, 5);
  (void)est->EstimateSubgroups(
      Pattern({Predicate(t, CompareOp::kEq, Value("no"))}), all, &prot, 5);
  const auto stats = est->GetEngineStats();
  EXPECT_EQ(stats.engines, 2u);
  EXPECT_EQ(stats.partitions, 1u);
}

TEST(CateStatsEngineCacheTest, BudgetEvictsLruEnginesAndSharedPtrSurvives) {
  const EdgeData data = MakeEdgeData(1000, 82);
  auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const size_t u = *data.df.schema().IndexOf("U");
  const Bitmap all = data.df.AllRows();

  const Pattern t_yes({Predicate(t, CompareOp::kEq, Value("yes"))});
  const auto held = est->EngineFor(t_yes);
  ASSERT_TRUE(held.ok());
  const Result<CateEstimate> before =
      CateStatsEngine::EstimateSubgroupsBatch({held->get()}, all, nullptr, 10,
                                              10)[0]
          .overall;

  // A 1-byte budget keeps only the most recently used engine.
  est->SetEngineMemoryBudget(1);
  for (const char* level : {"hi", "lo"}) {
    (void)est->EngineFor(Pattern({Predicate(u, CompareOp::kEq, Value(level))}));
  }
  const auto stats = est->GetEngineStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_EQ(stats.engines, 1u);

  // The held engine still answers, identically, after eviction.
  const Result<CateEstimate> after =
      CateStatsEngine::EstimateSubgroupsBatch({held->get()}, all, nullptr, 10,
                                              10)[0]
          .overall;
  ASSERT_EQ(before.ok(), after.ok());
  if (before.ok()) {
    EXPECT_EQ(before->cate, after->cate);
  }
}

// ---------------------------------------------------------------------
// ISA sweep: every SIMD tier must produce BIT-IDENTICAL estimates — the
// accumulation kernels keep integer stats exact and perform float adds
// in the scalar association order, so there is no tolerance here, for
// any method, including the batch protected/non-protected split.

void ExpectSameBits(const Result<CateEstimate>& got,
                    const Result<CateEstimate>& ref,
                    const std::string& label) {
  ASSERT_EQ(got.ok(), ref.ok()) << label;
  if (!got.ok()) {
    EXPECT_EQ(got.status().code(), ref.status().code()) << label;
    return;
  }
  EXPECT_EQ(got->cate, ref->cate) << label;
  EXPECT_EQ(got->std_error, ref->std_error) << label;
  EXPECT_EQ(got->n_treated, ref->n_treated) << label;
  EXPECT_EQ(got->n_control, ref->n_control) << label;
}

// The group densities every accumulation sweep covers: empty, sparse,
// mid, dense, nearly full, and all rows (every group word ~0).
std::vector<std::pair<std::string, Bitmap>> DensitySweepGroups(
    const DataFrame& df, Rng* rng) {
  std::vector<std::pair<std::string, Bitmap>> groups;
  groups.emplace_back("d0", Bitmap(df.num_rows()));
  for (const double density : {0.05, 0.3, 0.6, 0.95}) {
    groups.emplace_back("d" + std::to_string(static_cast<int>(density * 100)),
                        RandomGroup(df.num_rows(), density, rng));
  }
  groups.emplace_back("all", df.AllRows());
  return groups;
}

// Split and no-split estimates of one (intervention, group), for sweeps
// that compare the same calls across tiers or engines.
struct SweepResult {
  Result<CateSubgroupEstimates> split = Status::Internal("unset");
  Result<CateSubgroupEstimates> nosplit = Status::Internal("unset");
};

SweepResult RunSplitAndNoSplit(const CateEstimator& est,
                               const Pattern& intervention,
                               const Bitmap& group,
                               const Bitmap& protected_mask) {
  SweepResult out;
  out.split = est.EstimateSubgroups(intervention, group, &protected_mask, 5);
  out.nosplit = est.EstimateSubgroups(intervention, group, nullptr, 5);
  return out;
}

void ExpectSameSweep(const SweepResult& got, const SweepResult& ref,
                     const std::string& label) {
  ASSERT_TRUE(got.split.ok()) << label << ": " << got.split.status().ToString();
  ASSERT_TRUE(ref.split.ok()) << label;
  ASSERT_TRUE(got.nosplit.ok()) << label;
  ASSERT_TRUE(ref.nosplit.ok()) << label;
  ExpectSameBits(got.split->overall, ref.split->overall, label + "/overall");
  ExpectSameBits(got.split->protected_group, ref.split->protected_group,
                 label + "/protected");
  ExpectSameBits(got.split->nonprotected, ref.split->nonprotected,
                 label + "/nonprotected");
  ExpectSameBits(got.nosplit->overall, ref.nosplit->overall,
                 label + "/nosplit");
}

// The legacy oracle for both the split triple and the no-split estimate.
void ExpectSweepMatchesLegacy(const CateEstimator& est,
                              const Pattern& intervention, const Bitmap& group,
                              const Bitmap& protected_mask,
                              const std::string& label) {
  ExpectBatchMatchesLegacy(est, intervention, group, protected_mask, 5,
                           label);
  const Result<CateSubgroupEstimates> batch =
      est.EstimateSubgroups(intervention, group, nullptr);
  ASSERT_TRUE(batch.ok()) << label;
  ExpectSameEstimate(batch->overall,
                     ReferenceEstimate(est, intervention, group),
                     ToleranceFor(est.options().method), label + "/nosplit");
}

TEST(CateStatsEngineSimdTest, EstimatesBitIdenticalAcrossIsaTiers) {
  // 3001 rows (not a multiple of 64) with 5% null outcomes, which the
  // valid-row bitmap masks out word by word; the numeric confounder puts
  // the regression method on the moments path. Every group density,
  // split and no-split, must be bit-identical at every tier and match the
  // legacy oracle, which skips null outcomes row by row.
  const EdgeData data = MakeEdgeData(3001, 91, /*outcome_null_rate=*/0.05);
  ASSERT_NE(data.df.num_rows() % 64, 0u);
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  Rng rng(91);
  const auto groups = DensitySweepGroups(data.df, &rng);
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    for (const auto& [name, group] : groups) {
      const std::string tag =
          "m" + std::to_string(static_cast<int>(method)) + "/" + name;
      SweepResult ref;
      {
        simd::ScopedSimdLevel pin(simd::SimdLevel::kScalar);
        ref = RunSplitAndNoSplit(*est, intervention, group, protected_mask);
      }
      for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
        simd::ScopedSimdLevel pin(level);
        const std::string ltag = tag + "/" + simd::SimdLevelName(level);
        ExpectSameSweep(
            RunSplitAndNoSplit(*est, intervention, group, protected_mask),
            ref, ltag);
        ExpectSweepMatchesLegacy(*est, intervention, group, protected_mask,
                                 ltag + "/legacy");
      }
    }
  }
}

TEST(CateStatsEngineSimdTest, DenseGroupMatchesLegacyAtEveryTier) {
  // The all-rows group (every group word ~0) next to dense and sparse
  // random groups, pinned against the legacy oracle per tier.
  const EdgeData data = MakeEdgeData(1500, 92);
  for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
    simd::ScopedSimdLevel pin(level);
    RunPropertySweep(data.df, data.dag, data.protected_pattern, 92,
                     std::string("simd-") + simd::SimdLevelName(level));
  }
}

// ---------------------------------------------------------------------
// Integer-valued outcomes: every partial Σy and Σy² is an integer, exact
// in double while below 2^53, so the one FP accumulation is order-free on
// them. Estimates must therefore be bit-identical across SIMD tiers.

// For every method, intervention and group, split and no-split: every
// tier must be bit-identical to the scalar tier's pass, and match the
// legacy oracle (method-specific tolerances; stratified is bit-for-bit).
void ExpectIntegerOutcomeOrderFree(
    const DataFrame& df, const CausalDag& dag,
    const std::vector<Pattern>& interventions,
    const std::vector<std::pair<std::string, Bitmap>>& groups,
    const Bitmap& protected_mask, const std::string& label) {
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&df, &dag, options);
    ASSERT_TRUE(est.ok());
    for (size_t i = 0; i < interventions.size(); ++i) {
      for (const auto& [name, group] : groups) {
        const std::string tag = label + "/m" +
                                std::to_string(static_cast<int>(method)) +
                                "/i" + std::to_string(i) + "/" + name;
        SweepResult ref;
        {
          simd::ScopedSimdLevel pin(simd::SimdLevel::kScalar);
          ref = RunSplitAndNoSplit(*est, interventions[i], group,
                                   protected_mask);
        }
        for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
          simd::ScopedSimdLevel pin(level);
          const std::string ltag = tag + "/" + simd::SimdLevelName(level);
          ExpectSameSweep(RunSplitAndNoSplit(*est, interventions[i], group,
                                             protected_mask),
                          ref, ltag);
          ExpectSweepMatchesLegacy(*est, interventions[i], group,
                                   protected_mask, ltag + "/legacy");
        }
      }
    }
  }
}

// Integer outcomes uniform in [-max_abs, max_abs], `null_rate` of them
// null, over one categorical confounder.
EdgeData MakeIntData(size_t n, uint64_t seed, int64_t max_abs,
                     double null_rate) {
  auto schema = Schema::Create({
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"Z", AttrType::kCategorical, AttrRole::kImmutable},
      {"T", AttrType::kCategorical, AttrRole::kMutable},
      {"O", AttrType::kNumeric, AttrRole::kOutcome},
  });
  DataFrame df = DataFrame::Create(std::move(schema).ValueOrDie());
  Rng rng(seed);
  const char* z_levels[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t z = rng.NextBounded(3);
    const bool t = rng.NextBernoulli(0.3 + 0.15 * static_cast<double>(z));
    const double o = static_cast<double>(
        static_cast<int64_t>(rng.NextBounded(
            static_cast<uint64_t>(2 * max_abs + 1))) -
        max_abs);
    const bool o_null = null_rate > 0.0 && rng.NextBernoulli(null_rate);
    const Status st =
        df.AppendRow({Value(prot ? "yes" : "no"), Value(z_levels[z]),
                      Value(t ? "yes" : "no"),
                      o_null ? Value::Null() : Value(o)});
    EXPECT_TRUE(st.ok());
  }
  CausalDag dag =
      CausalDag::Create({"Prot", "Z", "T", "O"},
                        {{"Z", "T"}, {"Z", "O"}, {"Prot", "O"}, {"T", "O"}})
          .ValueOrDie();
  Pattern protected_pattern({Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

TEST(CateStatsEngineIntegerOutcomeTest, BitIdenticalAcrossTiers) {
  {
    SyntheticConfig config;
    config.num_rows = 4000;
    config.seed = 21;
    config.integer_outcome = true;
    const auto data = MakeSynthetic(config);
    ASSERT_TRUE(data.ok());
    const DataFrame& df = data->df;
    Rng rng(21);
    const std::vector<Pattern> interventions =
        SampleInterventions(df, 2, &rng);
    ASSERT_FALSE(interventions.empty());
    const std::vector<std::pair<std::string, Bitmap>> groups = {
        {"d70", RandomGroup(df.num_rows(), 0.7, &rng)}};
    ExpectIntegerOutcomeOrderFree(df, data->dag, interventions, groups,
                                  data->protected_pattern.Evaluate(df),
                                  "synthetic");
  }
  // Small magnitudes with 5% null outcomes over 4001 rows (not a multiple
  // of 64), at every group density.
  const EdgeData data = MakeIntData(4001, 102, /*max_abs=*/1000,
                                    /*null_rate=*/0.05);
  const size_t t = *data.df.schema().IndexOf("T");
  const Pattern intervention({Predicate(t, CompareOp::kEq, Value("yes"))});
  Rng rng(102);
  ExpectIntegerOutcomeOrderFree(data.df, data.dag, {intervention},
                                DensitySweepGroups(data.df, &rng),
                                data.protected_pattern.Evaluate(data.df),
                                "nulls");
}

// Seeded random groups and interventions, every method, group density
// and split: the interventions are estimated as one level, in one
// EstimateSubgroupsBatch call with a fresh view, so every partition that
// holds at least four of them reads the view (gathered once, bound once
// per such partition) and the others take fused table passes. Each
// estimate must equal its own one-at-a-time table pass bit for bit
// (ExpectSameBits: status, cate, std_error and both arm counts of all
// three estimates).
void ExpectCompactMatchesTable(const DataFrame& df, const CausalDag& dag,
                               const Pattern& protected_pattern,
                               std::vector<Pattern> interventions,
                               uint64_t seed, const std::string& label) {
  const Bitmap protected_mask = protected_pattern.Evaluate(df);
  Rng rng(seed);
  for (Pattern& p : SampleInterventions(df, 24, &rng)) {
    interventions.push_back(std::move(p));
  }
  std::vector<const Pattern*> level;
  for (const Pattern& p : interventions) level.push_back(&p);
  const auto groups = DensitySweepGroups(df, &rng);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter& compact_evals =
      registry.GetCounter("estimation.compact_evals");
  const obs::Counter& compact_views =
      registry.GetCounter("estimation.compact_views");
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&df, &dag, options);
    ASSERT_TRUE(est.ok());
    // The compact share of the level: the partitions with >= 4 members.
    std::vector<const ConfounderPartition*> partitions;
    for (const Pattern* p : level) {
      const auto engine = est->EngineFor(*p);
      ASSERT_TRUE(engine.ok()) << label;
      partitions.push_back(&(*engine)->partition());
    }
    uint64_t want_compact = 0;
    uint64_t want_views = 0;
    for (size_t i = 0; i < partitions.size(); ++i) {
      if (std::find(partitions.begin(), partitions.begin() + i,
                    partitions[i]) != partitions.begin() + i) {
        continue;
      }
      const auto members = static_cast<uint64_t>(
          std::count(partitions.begin(), partitions.end(), partitions[i]));
      if (members >= 4) {
        want_compact += members;
        ++want_views;
      }
    }
    ASSERT_GT(want_compact, 0u) << label;
    for (const auto& [name, group] : groups) {
      for (const bool split : {false, true}) {
        const std::string tag =
            label + "/m" + std::to_string(static_cast<int>(method)) + "/" +
            name + (split ? "/split" : "/whole");
        const Bitmap* prot = split ? &protected_mask : nullptr;
        CompactGroup view;
        const uint64_t evals_before = compact_evals.value();
        const uint64_t views_before = compact_views.value();
        const auto got = est->EstimateSubgroupsBatch(
            level, group, prot, 5, /*skip_subgroups_unless_positive=*/false,
            &view);
        ASSERT_TRUE(got.ok()) << tag << ": " << got.status().ToString();
        ASSERT_EQ(got->size(), level.size()) << tag;
        EXPECT_EQ(compact_evals.value() - evals_before, want_compact) << tag;
        EXPECT_EQ(compact_views.value() - views_before, want_views) << tag;
        for (size_t i = 0; i < level.size(); ++i) {
          const std::string at = tag + "/i" + std::to_string(i);
          const auto want = est->EstimateSubgroups(*level[i], group, prot, 5);
          const auto& one = (*got)[i];
          ASSERT_TRUE(want.ok() && one.ok()) << at;
          ExpectSameBits(one->overall, want->overall, at + "/overall");
          ExpectSameBits(one->protected_group, want->protected_group,
                         at + "/protected");
          ExpectSameBits(one->nonprotected, want->nonprotected,
                         at + "/nonprotected");
        }
      }
    }
  }
}

TEST(CateStatsEngineCompactTest, MatchesTablePath) {
  // Categorical and numeric confounders, both with nulls, 5% null
  // outcomes, 3001 rows (a partial last word); "U" has no confounders.
  {
    const EdgeData data = MakeEdgeData(3001, 93, /*outcome_null_rate=*/0.05);
    const size_t t = *data.df.schema().IndexOf("T");
    const size_t u = *data.df.schema().IndexOf("U");
    ExpectCompactMatchesTable(
        data.df, data.dag, data.protected_pattern,
        {Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}),
         Pattern({Predicate(t, CompareOp::kEq, Value("no"))}),
         Pattern({Predicate(u, CompareOp::kEq, Value("hi"))}),
         Pattern({Predicate(u, CompareOp::kEq, Value("lo"))})},
        93, "edge");
  }
  // Categorical-only confounders: the grouped IPW solve.
  GermanConfig config;
  config.num_rows = 1500;
  config.seed = 94;
  const auto data = MakeGerman(config);
  ASSERT_TRUE(data.ok());
  ExpectCompactMatchesTable(data->df, data->dag, data->protected_pattern, {},
                            94, "german");
}

// One level over two partitions, interleaved, plus an empty pattern:
// the four treatments over T (adjusting for {Zc, Zn}) read the view, the
// two over U alone (adjusting for nothing) share one fused table pass,
// and the empty pattern fails its own entry only. Every other entry gets
// the bits of its own table pass. A second level over T's partition
// reads the view as the first one bound it.
TEST(CateStatsEngineBatchTest, LevelOverTwoPartitionsSplitsCompactAndFused) {
  const EdgeData data = MakeEdgeData(3001, 95, /*outcome_null_rate=*/0.05);
  const size_t t = *data.df.schema().IndexOf("T");
  const size_t u = *data.df.schema().IndexOf("U");
  const Predicate t_yes(t, CompareOp::kEq, Value("yes"));
  const Predicate t_no(t, CompareOp::kEq, Value("no"));
  const Predicate u_hi(u, CompareOp::kEq, Value("hi"));
  const Predicate u_lo(u, CompareOp::kEq, Value("lo"));
  const std::vector<Pattern> first = {
      Pattern({t_yes}),       Pattern({u_hi}), Pattern({t_no}),
      Pattern(),              Pattern({t_yes, u_hi}), Pattern({u_lo}),
      Pattern({t_no, u_lo})};
  const std::vector<Pattern> second = {
      Pattern({t_yes, u_lo}), Pattern({t_no, u_hi}), Pattern({t_yes}),
      Pattern({t_no})};
  const Bitmap all = data.df.AllRows();
  const Bitmap prot = data.protected_pattern.Evaluate(data.df);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const char* const kCounters[] = {
      "estimation.batch_evals", "estimation.compact_views",
      "estimation.compact_evals", "estimation.table_passes",
      "estimation.accumulate_path_sparse"};
  for (const CateMethod method :
       {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
    CateOptions options;
    options.method = method;
    const auto est = CateEstimator::Create(&data.df, &data.dag, options);
    ASSERT_TRUE(est.ok());
    CompactGroup view;
    // {batch_evals, compact_views, compact_evals, table_passes, sparse}
    // added by each level.
    const uint64_t want_counts[2][5] = {{7, 1, 4, 1, 2}, {4, 0, 4, 0, 0}};
    size_t at_level = 0;
    for (const std::vector<Pattern>* level : {&first, &second}) {
      const std::string tag = "m" + std::to_string(static_cast<int>(method)) +
                              "/level" + std::to_string(at_level);
      std::vector<const Pattern*> interventions;
      for (const Pattern& p : *level) interventions.push_back(&p);
      uint64_t before[5];
      for (size_t c = 0; c < 5; ++c) {
        before[c] = registry.CounterValue(kCounters[c]);
      }
      const auto got = est->EstimateSubgroupsBatch(
          interventions, all, &prot, 5,
          /*skip_subgroups_unless_positive=*/false, &view);
      ASSERT_TRUE(got.ok()) << tag << ": " << got.status().ToString();
      ASSERT_EQ(got->size(), level->size()) << tag;
      for (size_t c = 0; c < 5; ++c) {
        EXPECT_EQ(registry.CounterValue(kCounters[c]) - before[c],
                  want_counts[at_level][c])
            << tag << ": " << kCounters[c];
      }
      for (size_t i = 0; i < level->size(); ++i) {
        const std::string at = tag + "/i" + std::to_string(i);
        const auto& one = (*got)[i];
        if ((*level)[i].empty()) {
          ASSERT_FALSE(one.ok()) << at;
          EXPECT_EQ(one.status().code(), StatusCode::kInvalidArgument) << at;
          continue;
        }
        const auto want = est->EstimateSubgroups((*level)[i], all, &prot, 5);
        ASSERT_TRUE(want.ok() && one.ok()) << at;
        ExpectSameBits(one->overall, want->overall, at + "/overall");
        ExpectSameBits(one->protected_group, want->protected_group,
                       at + "/protected");
        ExpectSameBits(one->nonprotected, want->nonprotected,
                       at + "/nonprotected");
      }
      ++at_level;
    }
  }
}

// A fused table pass accumulates up to simd::kMaxCateBatch treatments
// of one partition at once, each into its own sinks. Every treatment of
// a batch of width 1..5 (5 takes two passes) must get exactly the bits
// of its own one-at-a-time EstimateSubgroups, for every method, group
// density, split and ISA tier. `interventions` share one adjustment set.
void ExpectFusedMatchesSingle(const DataFrame& df, const CausalDag& dag,
                              const Pattern& protected_pattern,
                              const std::vector<Pattern>& interventions,
                              uint64_t seed, const std::string& label) {
  ASSERT_GE(interventions.size(), 5u) << label;
  const Bitmap protected_mask = protected_pattern.Evaluate(df);
  Rng rng(seed);
  const Bitmap groups[] = {df.AllRows(), RandomGroup(df.num_rows(), 0.6, &rng),
                           RandomGroup(df.num_rows(), 0.05, &rng)};
  const obs::Counter& table_passes =
      obs::MetricsRegistry::Global().GetCounter("estimation.table_passes");
  for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
    const simd::ScopedSimdLevel pin(level);
    for (const CateMethod method :
         {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw}) {
      CateOptions options;
      options.method = method;
      const auto est = CateEstimator::Create(&df, &dag, options);
      ASSERT_TRUE(est.ok());
      for (size_t g = 0; g < 3; ++g) {
        for (const bool split : {false, true}) {
          const Bitmap* prot = split ? &protected_mask : nullptr;
          for (size_t width = 1; width <= 5; ++width) {
            const std::string tag =
                label + "/" + simd::SimdLevelName(level) + "/m" +
                std::to_string(static_cast<int>(method)) + "/g" +
                std::to_string(g) + (split ? "/split" : "/whole") + "/B" +
                std::to_string(width);
            std::vector<const Pattern*> batch;
            for (size_t i = 0; i < width; ++i) {
              batch.push_back(&interventions[i]);
            }
            const uint64_t passes_before = table_passes.value();
            const auto got = est->EstimateSubgroupsBatch(
                batch, groups[g], prot, 5,
                /*skip_subgroups_unless_positive=*/false);
            ASSERT_TRUE(got.ok()) << tag << ": " << got.status().ToString();
            EXPECT_EQ(table_passes.value() - passes_before,
                      (width + simd::kMaxCateBatch - 1) / simd::kMaxCateBatch)
                << tag;
            ASSERT_EQ(got->size(), width) << tag;
            for (size_t i = 0; i < width; ++i) {
              const std::string at = tag + "/i" + std::to_string(i);
              const auto want =
                  est->EstimateSubgroups(*batch[i], groups[g], prot, 5);
              const auto& one = (*got)[i];
              ASSERT_TRUE(want.ok() && one.ok()) << at;
              ExpectSameBits(one->overall, want->overall, at + "/overall");
              ExpectSameBits(one->protected_group, want->protected_group,
                             at + "/protected");
              ExpectSameBits(one->nonprotected, want->nonprotected,
                             at + "/nonprotected");
            }
          }
        }
      }
    }
  }
}

TEST(CateStatsEngineBatchTest, FusedPassMatchesSingleTreatmentPasses) {
  // Categorical and numeric confounders, both with nulls, 5% null
  // outcomes, 3001 rows (a partial last word). "U" is not in the DAG, so
  // every pattern over T, alone or with U, adjusts for {Zc, Zn}.
  {
    const EdgeData data = MakeEdgeData(3001, 97, /*outcome_null_rate=*/0.05);
    const size_t t = *data.df.schema().IndexOf("T");
    const size_t u = *data.df.schema().IndexOf("U");
    std::vector<Pattern> interventions;
    for (const char* t_value : {"yes", "no"}) {
      const Predicate on_t(t, CompareOp::kEq, Value(t_value));
      interventions.push_back(Pattern({on_t}));
      for (const char* u_value : {"hi", "lo"}) {
        interventions.push_back(
            Pattern({on_t, Predicate(u, CompareOp::kEq, Value(u_value))}));
      }
    }
    ExpectFusedMatchesSingle(data.df, data.dag, data.protected_pattern,
                             interventions, 97, "edge");
  }
  // Categorical-only confounders (the grouped IPW solve): the largest
  // set of sampled interventions that share one adjustment set.
  GermanConfig config;
  config.num_rows = 1500;
  config.seed = 98;
  const auto data = MakeGerman(config);
  ASSERT_TRUE(data.ok());
  const auto est = CateEstimator::Create(&data->df, &data->dag);
  ASSERT_TRUE(est.ok());
  Rng rng(98);
  std::vector<std::vector<size_t>> adjustments;
  std::vector<std::vector<Pattern>> by_adjustment;
  for (Pattern& p : SampleInterventions(data->df, 60, &rng)) {
    const auto adjustment = est->AdjustmentAttrs(p);
    ASSERT_TRUE(adjustment.ok());
    const auto it =
        std::find(adjustments.begin(), adjustments.end(), *adjustment);
    const size_t at = static_cast<size_t>(it - adjustments.begin());
    if (it == adjustments.end()) {
      adjustments.push_back(*adjustment);
      by_adjustment.emplace_back();
    }
    by_adjustment[at].push_back(std::move(p));
  }
  const auto largest = std::max_element(
      by_adjustment.begin(), by_adjustment.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  ExpectFusedMatchesSingle(data->df, data->dag, data->protected_pattern,
                           *largest, 98, "german");
}

// A table whose treatments over T (three levels) and U (three levels, not
// in the DAG) all adjust for one set, {Zc} or {Zc, Zn}: Zc has
// `zc_levels` categories, so a group over many rows touches many cells.
EdgeData MakeOnePartitionData(size_t n, size_t zc_levels, bool numeric,
                              uint64_t seed) {
  std::vector<AttributeSpec> specs = {
      {"Prot", AttrType::kCategorical, AttrRole::kImmutable},
      {"Zc", AttrType::kCategorical, AttrRole::kImmutable}};
  if (numeric) specs.push_back({"Zn", AttrType::kNumeric, AttrRole::kImmutable});
  specs.push_back({"T", AttrType::kCategorical, AttrRole::kMutable});
  specs.push_back({"U", AttrType::kCategorical, AttrRole::kMutable});
  specs.push_back({"O", AttrType::kNumeric, AttrRole::kOutcome});
  DataFrame df = DataFrame::Create(Schema::Create(specs).ValueOrDie());
  Rng rng(seed);
  const char* t_levels[] = {"a", "b", "c"};
  const char* u_levels[] = {"x", "y", "z"};
  for (size_t i = 0; i < n; ++i) {
    const bool prot = rng.NextBernoulli(0.3);
    const size_t zc = rng.NextBounded(zc_levels);
    const double zn = rng.NextGaussian(0.0, 2.0);
    const size_t t = rng.NextBounded(3);
    const size_t u = rng.NextBounded(3);
    const double o = 5.0 + 0.01 * static_cast<double>(zc) +
                     (numeric ? 1.5 * zn : 0.0) +
                     static_cast<double>(t) * (prot ? 1.0 : 3.0) +
                     0.5 * static_cast<double>(u) + rng.NextGaussian(0.0, 1.0);
    std::vector<Value> row = {Value(prot ? "yes" : "no"),
                              Value("z" + std::to_string(zc))};
    if (numeric) {
      row.push_back(rng.NextBernoulli(0.05) ? Value::Null() : Value(zn));
    }
    row.push_back(Value(t_levels[t]));
    row.push_back(Value(u_levels[u]));
    row.push_back(rng.NextBernoulli(0.03) ? Value::Null() : Value(o));
    EXPECT_TRUE(df.AppendRow(row).ok());
  }
  std::vector<std::string> nodes = {"Prot", "Zc", "T", "O"};
  std::vector<std::pair<std::string, std::string>> edges = {
      {"Zc", "T"}, {"Zc", "O"}, {"Prot", "O"}, {"T", "O"}};
  if (numeric) {
    nodes.push_back("Zn");
    edges.push_back({"Zn", "T"});
    edges.push_back({"Zn", "O"});
  }
  CausalDag dag = CausalDag::Create(nodes, edges).ValueOrDie();
  Pattern protected_pattern({Predicate(0, CompareOp::kEq, Value("yes"))});
  return {std::move(df), std::move(dag), std::move(protected_pattern)};
}

// Compact batches of 4..9 engines over one partition, so the chunks of
// four end in every tail width 1..4: each engine's estimates must be the
// bits of its own table pass (AccumulateSubgroups + SolveFromAccums), at
// every ISA tier, split and unsplit, over the whole table and a sparser
// group. With `narrowed`, the split batches must take more compact passes
// than ceil(n / 4): their touched cells are too many for four treatments'
// accums to fit the fused-pass byte budget.
void ExpectFusedCompactMatchesTablePasses(
    const EdgeData& data, const std::vector<CateMethod>& methods,
    bool narrowed, uint64_t seed, const std::string& label) {
  const size_t t = *data.df.schema().IndexOf("T");
  const size_t u = *data.df.schema().IndexOf("U");
  std::vector<Pattern> treatments;
  for (const char* t_value : {"a", "b", "c"}) {
    treatments.push_back(
        Pattern({Predicate(t, CompareOp::kEq, Value(t_value))}));
  }
  for (const auto& [t_value, u_value] :
       std::vector<std::pair<const char*, const char*>>{{"a", "x"},
                                                        {"a", "y"},
                                                        {"b", "x"},
                                                        {"b", "z"},
                                                        {"c", "y"},
                                                        {"c", "z"}}) {
    treatments.push_back(
        Pattern({Predicate(t, CompareOp::kEq, Value(t_value)),
                 Predicate(u, CompareOp::kEq, Value(u_value))}));
  }
  const Bitmap protected_mask = data.protected_pattern.Evaluate(data.df);
  Rng rng(seed);
  const Bitmap groups[] = {data.df.AllRows(),
                           RandomGroup(data.df.num_rows(), 0.4, &rng)};
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  const obs::Counter& compact_passes =
      registry.GetCounter("estimation.compact_passes");
  const obs::Counter& compact_evals =
      registry.GetCounter("estimation.compact_evals");
  size_t estimable = 0;  // subgroup estimates that solved: not vacuous
  for (const simd::SimdLevel level : simd::SupportedSimdLevels()) {
    const simd::ScopedSimdLevel pin(level);
    for (const CateMethod method : methods) {
      CateOptions options;
      options.method = method;
      const auto est = CateEstimator::Create(&data.df, &data.dag, options);
      ASSERT_TRUE(est.ok());
      std::vector<std::shared_ptr<const CateStatsEngine>> held;
      std::vector<const CateStatsEngine*> engines;
      for (const Pattern& p : treatments) {
        auto engine = est->EngineFor(p);
        ASSERT_TRUE(engine.ok()) << label;
        held.push_back(*engine);
        engines.push_back(held.back().get());
        ASSERT_EQ(&engines.back()->partition(), &engines[0]->partition())
            << label;
      }
      for (size_t g = 0; g < 2; ++g) {
        for (const bool split : {false, true}) {
          const Bitmap* prot = split ? &protected_mask : nullptr;
          for (size_t n = 4; n <= engines.size(); ++n) {
            const std::string tag =
                label + "/" + simd::SimdLevelName(level) + "/m" +
                std::to_string(static_cast<int>(method)) + "/g" +
                std::to_string(g) + (split ? "/split" : "/whole") + "/n" +
                std::to_string(n);
            const std::vector<const CateStatsEngine*> batch(
                engines.begin(), engines.begin() + n);
            CompactGroup view;
            const uint64_t passes_before = compact_passes.value();
            const uint64_t evals_before = compact_evals.value();
            const std::vector<CateSubgroupEstimates> got =
                CateStatsEngine::EstimateSubgroupsBatch(
                    batch, groups[g], prot, 5, 5,
                    /*skip_subgroups_unless_positive=*/false, &view);
            ASSERT_EQ(got.size(), n) << tag;
            EXPECT_EQ(compact_evals.value() - evals_before, n) << tag;
            const uint64_t passes = compact_passes.value() - passes_before;
            const uint64_t full_width_passes =
                (n + simd::kMaxCateBatch - 1) / simd::kMaxCateBatch;
            if (!narrowed) {
              EXPECT_EQ(passes, full_width_passes) << tag;
            } else if (split) {
              EXPECT_GT(passes, full_width_passes) << tag;
            }
            for (size_t i = 0; i < n; ++i) {
              const std::string at = tag + "/i" + std::to_string(i);
              const CateStatsEngine::SubgroupAccums accums =
                  batch[i]->AccumulateSubgroups(groups[g], prot);
              const CateSubgroupEstimates want =
                  batch[i]->SolveFromAccums(accums, groups[g], prot, 5, 5);
              ExpectSameBits(got[i].overall, want.overall, at + "/overall");
              ExpectSameBits(got[i].protected_group, want.protected_group,
                             at + "/protected");
              ExpectSameBits(got[i].nonprotected, want.nonprotected,
                             at + "/nonprotected");
              estimable += got[i].overall.ok() + got[i].protected_group.ok() +
                           got[i].nonprotected.ok();
            }
          }
        }
      }
    }
  }
  EXPECT_GT(estimable, 0u) << label;
}

TEST(CateStatsEngineBatchTest, FusedCompactPassMatchesPerEngineTablePasses) {
  // Categorical and numeric confounders: the regression pass carries
  // numeric moments. Every batch of four fits one pass.
  ExpectFusedCompactMatchesTablePasses(
      MakeOnePartitionData(2500, 6, /*numeric=*/true, 101),
      {CateMethod::kRegression, CateMethod::kStratified, CateMethod::kIpw},
      /*narrowed=*/false, 101, "moments");
  // ~1,200 touched cells of a 1,500-category confounder: a split chunk of
  // four would hold ~670 KB of accums, so it is narrowed.
  ExpectFusedCompactMatchesTablePasses(
      MakeOnePartitionData(4000, 1500, /*numeric=*/false, 102),
      {CateMethod::kStratified}, /*narrowed=*/true, 102, "wide");
}

TEST(CateStatsEngineBatchTest, EnginesOverTwoPartitionsAbort) {
  const EdgeData data = MakeEdgeData(1000, 99);
  const auto est = CateEstimator::Create(&data.df, &data.dag);
  ASSERT_TRUE(est.ok());
  const size_t t = *data.df.schema().IndexOf("T");
  const size_t u = *data.df.schema().IndexOf("U");
  // T adjusts for {Zc, Zn}; U for nothing.
  const auto engine_t = est->EngineFor(
      Pattern({Predicate(t, CompareOp::kEq, Value("yes"))}));
  const auto engine_u = est->EngineFor(
      Pattern({Predicate(u, CompareOp::kEq, Value("hi"))}));
  ASSERT_TRUE(engine_t.ok() && engine_u.ok());
  const CateStatsEngine* on_t = engine_t->get();
  const CateStatsEngine* on_u = engine_u->get();
  const Bitmap all = data.df.AllRows();
  // The fused table pass and the compact pass.
  EXPECT_DEATH((void)CateStatsEngine::EstimateSubgroupsBatch(
                   {on_t, on_u}, all, nullptr, 5, 5),
               "CHECK failed.*partition");
  EXPECT_DEATH(
      {
        CompactGroup view;
        (void)CateStatsEngine::EstimateSubgroupsBatch(
            {on_t, on_t, on_t, on_u}, all, nullptr, 5, 5, false, &view);
      },
      "CHECK failed.*partition");
}

// Regression test for the empty-arm guard: one-class inputs used to
// divide by a zero weight sum and return a NaN estimate.
TEST(HajekIpwTest, EmptyArmFailsInsteadOfNaN) {
  const size_t n = 6;
  const size_t p = 1;  // intercept-only propensity design
  const std::vector<double> design(n * p, 1.0);
  const std::vector<double> outcomes = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  for (const bool treated : {true, false}) {
    const std::vector<double> labels(n, treated ? 1.0 : 0.0);
    const std::vector<uint8_t> is_treated(n, treated ? 1 : 0);
    const Result<CateEstimate> result = HajekIpwFromRows(
        design, n, p, labels, outcomes, is_treated, /*propensity_clip=*/0.02);
    ASSERT_FALSE(result.ok()) << (treated ? "all-treated" : "all-control");
    EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(result.status().ToString().find("arms"), std::string::npos);
  }
}

}  // namespace
}  // namespace faircap
